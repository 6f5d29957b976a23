// Ablation bench — design choices DESIGN.md calls out, explored with the
// virtual-time simulator:
//
//  1. Task-queue overhead: the paper found lock time negligible; sweep the
//     per-task cost to find where that stops being true (slice tasks are
//     ~100x smaller than GOP tasks).
//  2. Bounded GOP queue: backpressure trades the paper's unbounded memory
//     growth against scan-ahead (the fix the paper's Fig. 9 problem
//     implies).
//  3. Improved-policy open-picture window: how much lookahead the slice
//     decoder needs before returns vanish.
#include "bench/common.h"
#include "sched/sim.h"

using namespace pmp2;

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  bench::print_header("Ablations: queue overhead, backpressure, window",
                      "design-choice studies (no paper figure)");

  streamgen::StreamSpec spec;
  spec.width = static_cast<int>(flags.get_int("width", 352));
  spec.height = spec.width * 240 / 352;
  spec.bit_rate = 5'000'000;
  spec.gop_size = static_cast<int>(flags.get_int("gop", 13));
  spec = bench::apply_scale(spec, flags);
  const auto profile = bench::sim_profile(spec, flags);
  const int workers = static_cast<int>(flags.get_int("workers", 8));

  obs::RunReport report("bench_ablations",
                        "Queue overhead, backpressure, and window ablations");
  report.set_meta("width", spec.width)
      .set_meta("height", spec.height)
      .set_meta("gop_size", spec.gop_size)
      .set_meta("workers", workers);

  // --- 1. Task-queue overhead sweep --------------------------------------
  {
    std::cout << "\n--- queue overhead per task (P=" << workers << ") ---\n";
    Series series("overhead us",
                  {"GOP pics/s", "slice pics/s", "slice/GOP"});
    for (const int us : {0, 1, 10, 100, 1000, 10000}) {
      sched::SimConfig cfg;
      cfg.workers = workers;
      cfg.queue_overhead_ns = static_cast<std::int64_t>(us) * 1000;
      const double gop =
          sched::simulate(profile, cfg).pictures_per_second();
      const double slice =
          sched::simulate(profile, bench::improved_slice(cfg))
              .pictures_per_second();
      series.add_point(us, {gop, slice, slice / gop});
      report.add_row()
          .set("study", "queue_overhead")
          .set("us_per_task", us)
          .set("gop_pictures_per_second", gop)
          .set("slice_pictures_per_second", slice);
    }
    series.print(std::cout, 2);
    std::cout << "Expected: GOP version insensitive (tasks are whole GOPs);"
                 " slice version collapses once overhead rivals a slice's"
                 " decode time — the paper's granularity argument.\n";
  }

  // --- 2. Bounded GOP task queue ------------------------------------------
  {
    std::cout << "\n--- GOP queue bound (paper-speed processors, paced"
                 " display, P=" << workers << ") ---\n";
    // Slow the virtual processors to the paper's per-worker rate so the
    // scan process genuinely runs ahead (on a modern core it barely can).
    double total_ns = 0;
    for (const auto& g : profile.gops) {
      for (const auto& pic : g.pictures) {
        for (const auto& s : pic.slices) {
          total_ns += static_cast<double>(profile.slice_cost_ns(s, false));
        }
      }
    }
    const double one_worker_pps = profile.total_pictures() * 1e9 / total_ns;
    const double target_pps =
        5.0 * (352.0 * 240.0) / (spec.width * spec.height);
    Series series("max queued GOPs",
                  {"scan-ahead peak MB", "total peak MB", "pics/s"});
    for (const int bound : {0, 1, 2, 4, 8, 16}) {
      sched::SimConfig cfg;
      cfg.workers = workers;
      cfg.paced_display = true;
      cfg.cost_scale = one_worker_pps / target_pps;
      cfg.max_queued_gops = bound;
      const auto r = sched::simulate(profile, cfg);
      series.add_point(bound,
                       {static_cast<double>(r.peak_stream_bytes) / (1 << 20),
                        static_cast<double>(r.peak_memory) / (1 << 20),
                        r.pictures_per_second()});
      report.add_row()
          .set("study", "gop_queue_bound")
          .set("max_queued_gops", bound)
          .set("peak_stream_bytes", r.peak_stream_bytes)
          .set("peak_memory_bytes", r.peak_memory)
          .set("pictures_per_second", r.pictures_per_second());
    }
    series.print(std::cout, 2);
    std::cout << "Expected: unbounded (0) lets the scan buffer hold most of"
                 " the stream (the scan(t) term of Fig. 9); small bounds cap"
                 " it at ~bound GOPs of bytes with no throughput loss.\n";
  }

  // --- 3. Improved-policy open-picture window ------------------------------
  {
    std::cout << "\n--- improved slice policy: max open pictures (P="
              << workers << ") ---\n";
    Series series("max open", {"pics/s", "sync/exec"});
    for (const int window : {1, 2, 3, 4, 6, 8}) {
      sched::SimConfig cfg;
      cfg.workers = workers;
      cfg.max_open_pictures = window;
      const auto r = sched::simulate(profile, bench::improved_slice(cfg));
      series.add_point(window, {r.pictures_per_second(), r.sync_ratio()});
      report.add_row()
          .set("study", "open_picture_window")
          .set("max_open_pictures", window)
          .set("pictures_per_second", r.pictures_per_second())
          .set("sync_ratio", r.sync_ratio());
    }
    series.print(std::cout, 3);
    std::cout << "Expected: window 1 equals the simple policy; gains level"
                 " off around M (the I/P distance, 3) because only the B"
                 " run between references overlaps.\n";
  }
  return bench::finish(flags, report);
}
