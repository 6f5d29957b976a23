// Figure 5 — GOP-version speedup vs number of worker processes, per picture
// size and GOP size. Speedup is pictures/sec(P workers) over
// pictures/sec(1 worker), exactly the paper's metric (P+2 processors
// total).
#include "bench/common.h"
#include "sched/sim.h"

using namespace pmp2;

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  bench::print_header("Figure 5: GOP-version speedup vs workers",
                      "Bilas et al., Fig. 5");
  const auto worker_list =
      flags.get_int_list("workers", {1, 2, 4, 6, 8, 10, 12, 14});
  const auto gop_sizes = flags.get_int_list("gops", {4, 13, 31});

  obs::RunReport report("bench_fig5_gop_speedup",
                        "GOP-version speedup vs workers (Fig. 5)");

  for (const auto& res : bench::resolutions(flags)) {
    if (res.width < 352) continue;  // the paper omits 176x120
    std::cout << "\n--- " << res.width << "x" << res.height << " ---\n";
    std::vector<std::string> labels;
    for (const int g : gop_sizes) {
      labels.push_back("speedup (GOP=" + std::to_string(g) + ")");
    }
    Series series("workers", labels);
    std::vector<double> base(gop_sizes.size(), 0.0);
    for (const int workers : worker_list) {
      std::vector<double> ys;
      for (std::size_t gi = 0; gi < gop_sizes.size(); ++gi) {
        streamgen::StreamSpec spec;
        spec.width = res.width;
        spec.height = res.height;
        spec.bit_rate = res.bit_rate;
        spec.gop_size = gop_sizes[gi];
        spec = bench::apply_scale(spec, flags);
        const auto profile = bench::sim_profile(spec, flags);
        sched::SimConfig cfg;
        cfg.workers = workers;
        const double pps =
            sched::simulate(profile, cfg).pictures_per_second();
        if (workers == worker_list.front() && worker_list.front() == 1) {
          base[gi] = pps;
        }
        ys.push_back(base[gi] > 0 ? pps / base[gi] : 0.0);
        report.add_row()
            .set("width", res.width)
            .set("height", res.height)
            .set("gop_size", gop_sizes[gi])
            .set("workers", workers)
            .set("pictures_per_second", pps)
            .set("speedup", ys.back());
      }
      series.add_point(workers, ys);
    }
    series.print(std::cout, 2);
  }
  std::cout << "\nPaper reference (Fig. 5): speedup almost linear in all"
               " cases. Shape to check: near-linear until the number of GOP"
               " tasks in the (shortened) stream limits parallelism; small"
               " GOPs give more tasks and stay linear longer.\n";
  return bench::finish(flags, report);
}
