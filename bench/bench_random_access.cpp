// Extension bench — random-access latency for play-control functions
// (paper §5.1/§5.2 discussion): after a seek, how long until the first
// picture can be displayed?
//
// GOP version: one worker must decode the whole landing GOP alone before
// its first picture is displayable ("the speed at which the video begins to
// display ... is dependent upon one processor"). Slice version: all workers
// attack the landing pictures slice by slice. The simulator measures
// time-to-first-display for both after a seek to each GOP boundary.
#include "bench/common.h"
#include "sched/sim.h"

using namespace pmp2;

namespace {

/// Time until the first picture of the (sub)stream is displayable.
std::int64_t first_display_ns(const sched::SimResult& r) {
  // The memory timeline is not what we need; recompute from makespan is
  // wrong too. Approximate: with display unpaced, the first display is the
  // first completion in display order — equal to the makespan of a
  // one-GOP-prefix simulation. Callers pass such a prefix.
  return r.makespan_ns;
}

sched::StreamProfile prefix_profile(const sched::StreamProfile& full,
                                    std::size_t gops, std::size_t pictures) {
  sched::StreamProfile out = full;
  out.gops.assign(full.gops.begin(),
                  full.gops.begin() + static_cast<std::ptrdiff_t>(gops));
  if (pictures > 0 && !out.gops.empty()) {
    auto& pics = out.gops.back().pictures;
    if (pics.size() > pictures) pics.resize(pictures);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  bench::print_header(
      "Extension: random-access latency after a seek",
      "Bilas et al., §5.1-§5.2 (play-control discussion; no figure)");
  const int workers = static_cast<int>(flags.get_int("workers", 8));
  const auto gop_sizes = flags.get_int_list("gops", {4, 13, 31});

  obs::RunReport report("bench_random_access",
                        "Random-access latency after a seek (Section 5)");
  report.set_meta("workers", workers);

  for (const auto& res : bench::resolutions(flags)) {
    if (res.width < 352) continue;
    std::cout << "\n--- " << res.width << "x" << res.height << " (P="
              << workers << ") ---\n";
    Table t({"GOP size", "GOP seek latency ms", "Slice seek latency ms",
             "GOP/slice"});
    for (const int gop : gop_sizes) {
      streamgen::StreamSpec spec;
      spec.width = res.width;
      spec.height = res.height;
      spec.bit_rate = res.bit_rate;
      spec.gop_size = gop;
      spec = bench::apply_scale(spec, flags);
      const auto& full = bench::cached_profile(spec);
      if (!full.ok || full.gops.empty()) continue;

      // Seek = decode restarts at a GOP boundary. Latency to the first
      // displayable picture: the landing GOP's first picture (display
      // order = its I picture) must complete.
      sched::SimConfig cfg;
      cfg.workers = workers;
      cfg.measured_costs = true;
      cfg.model_scan = false;  // the seek point is already buffered

      // GOP decoder: one worker decodes the I picture after taking the
      // whole-GOP task; the first display needs just the I picture —
      // simulate a one-picture prefix on ONE worker (GOP task is owned by
      // a single worker).
      auto gop_prefix = prefix_profile(full, 1, 1);
      sched::SimConfig one = cfg;
      one.workers = 1;
      const auto g = sched::simulate(gop_prefix, one);

      // Slice decoder: all P workers decode that same I picture's slices.
      const auto s = sched::simulate(gop_prefix, bench::improved_slice(cfg));

      t.add_row({std::to_string(gop),
                 Table::fmt(first_display_ns(g) / 1e6, 2),
                 Table::fmt(first_display_ns(s) / 1e6, 2),
                 Table::fmt(static_cast<double>(first_display_ns(g)) /
                                static_cast<double>(first_display_ns(s)),
                            2)});
      report.add_row()
          .set("width", res.width)
          .set("height", res.height)
          .set("gop_size", gop)
          .set("gop_seek_latency_ns", first_display_ns(g))
          .set("slice_seek_latency_ns", first_display_ns(s));
    }
    t.print(std::cout);
  }
  std::cout << "\nPaper reference: no figure; §5.1 argues the GOP method has"
               " large random-access latency (one processor decodes the"
               " landing GOP) while §5.2 notes the slice method lets all"
               " workers start immediately."
               "\nShape to check: GOP/slice latency ratio ~P for pictures"
               " with >= P slices.\n";
  return bench::finish(flags, report);
}
