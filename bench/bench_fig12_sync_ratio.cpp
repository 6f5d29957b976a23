// Figure 12 — average (sync time / exec time) over all workers versus the
// number of workers, for the simple and improved slice versions. The ratio
// generally rises with workers and dips where slices/P divides evenly
// (the reversed knees of Fig. 11).
//
// The ratio comes from the shared parallel::summarize_load() derivation
// (via SimResult::load_summary), and --report-out=PATH emits the full
// per-policy load summaries as a structured JSON report.
#include "bench/common.h"
#include "sched/sim.h"

using namespace pmp2;

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  bench::print_header("Figure 12: slice-version sync/exec ratio",
                      "Bilas et al., Fig. 12");
  const auto worker_list =
      flags.get_int_list("workers", {2, 3, 4, 5, 6, 7, 8, 10, 12, 14});
  const int gop = static_cast<int>(flags.get_int("gop", 13));

  obs::RunReport report("bench_fig12_sync_ratio",
                        "Slice-version sync/exec ratio vs workers (Fig. 12)");
  report.set_meta("gop_size", gop);

  for (const auto& res : bench::resolutions(flags)) {
    if (res.width < 352) continue;
    streamgen::StreamSpec spec;
    spec.width = res.width;
    spec.height = res.height;
    spec.bit_rate = res.bit_rate;
    spec.gop_size = gop;
    spec = bench::apply_scale(spec, flags);
    const auto profile = bench::sim_profile(spec, flags);
    std::cout << "\n--- " << res.width << "x" << res.height << " ("
              << profile.slices_per_picture << " slices/picture) ---\n";
    Series series("workers", {"sync/exec (simple)", "sync/exec (improved)"});
    for (const int workers : worker_list) {
      sched::SimConfig cfg;
      cfg.workers = workers;
      const auto simple_load =
          sched::simulate(profile, bench::simple_slice(cfg))
              .load_summary();
      const auto improved_load =
          sched::simulate(profile, bench::improved_slice(cfg))
              .load_summary();
      series.add_point(workers,
                       {simple_load.sync_ratio, improved_load.sync_ratio});
      for (const auto* policy_load : {&simple_load, &improved_load}) {
        auto& row = report.add_row();
        row.set("width", res.width)
            .set("height", res.height)
            .set("slices_per_picture", profile.slices_per_picture)
            .set("policy",
                 policy_load == &simple_load ? "simple" : "improved");
        bench::append_load_summary(row, *policy_load);
      }
    }
    series.print(std::cout, 3);
  }
  std::cout << "\nPaper reference (Fig. 12): improved version clearly lower;"
               " ratio increases (or stays flat) with workers, dropping"
               " whenever slices/workers divides more evenly. Task-queue"
               " time itself is negligible vs barrier waiting.\n";
  return bench::finish(flags, report);
}
