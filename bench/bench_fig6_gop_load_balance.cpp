// Figure 6 — GOP-version load imbalance: minimum / average / maximum worker
// compute time versus GOP size. Larger GOPs mean fewer, larger tasks: one
// extra task on a worker shows as visible imbalance (a finite-stream
// artifact the paper calls out).
//
// The min/avg/max/imbalance columns come from the shared
// parallel::summarize_load() derivation (via SimResult::load_summary), and
// --report-out=PATH emits the same numbers as a structured JSON report.
#include "bench/common.h"
#include "sched/sim.h"

using namespace pmp2;

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  bench::print_header("Figure 6: GOP-version load balance vs GOP size",
                      "Bilas et al., Fig. 6");
  const int workers = static_cast<int>(flags.get_int("workers", 8));
  const auto gop_sizes = flags.get_int_list("gops", {4, 13, 16, 31});

  obs::RunReport report("bench_fig6_gop_load_balance",
                        "GOP-version load balance vs GOP size (Fig. 6)");
  report.set_meta("workers", workers);

  for (const auto& res : bench::resolutions(flags)) {
    if (res.width < 352) continue;
    std::cout << "\n--- " << res.width << "x" << res.height << " (P="
              << workers << ") ---\n";
    Table t({"GOP size", "Tasks", "Min compute ms", "Avg compute ms",
             "Max compute ms", "Max/Avg"});
    for (const int gop : gop_sizes) {
      streamgen::StreamSpec spec;
      spec.width = res.width;
      spec.height = res.height;
      spec.bit_rate = res.bit_rate;
      spec.gop_size = gop;
      spec = bench::apply_scale(spec, flags);
      const auto profile = bench::sim_profile(spec, flags);
      sched::SimConfig cfg;
      cfg.workers = workers;
      const auto r = sched::simulate(profile, cfg);
      const auto load = r.load_summary();
      t.add_row({std::to_string(gop),
                 std::to_string(profile.gops.size()),
                 Table::fmt(static_cast<double>(load.min_busy_ns) / 1e6, 2),
                 Table::fmt(load.avg_busy_ns / 1e6, 2),
                 Table::fmt(static_cast<double>(load.max_busy_ns) / 1e6, 2),
                 Table::fmt(load.imbalance, 2)});
      auto& row = report.add_row();
      row.set("width", res.width)
          .set("height", res.height)
          .set("gop_size", gop)
          .set("gop_tasks", profile.gops.size())
          .set("makespan_ns", r.makespan_ns)
          .set("pictures_per_second", r.pictures_per_second());
      bench::append_load_summary(row, load);
    }
    t.print(std::cout);
  }
  std::cout << "\nPaper reference (Fig. 6): min/max close to average for"
               " small GOPs; imbalance grows with GOP size as tasks become"
               " fewer and larger (one extra task per worker dominates)."
               "\nShape to check: Max/Avg rises with GOP size.\n";
  return bench::finish(flags, report);
}
