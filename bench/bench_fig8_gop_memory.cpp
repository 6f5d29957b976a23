// Figure 8 — actual memory requirements of the GOP approach as a function
// of the number of processors, GOP size and resolution: peak of the
// simulated memory timeline (stream read-ahead + frame buffers) with the
// display process paced at 30 pictures/s, as in the paper's runs.
//
// The virtual processors are slowed (cost_scale) to the paper's
// per-processor decode rate (~5 pics/s at 352x240 on a 150 MHz R4400):
// a modern core outruns the 30 pics/s display so thoroughly that the
// decoded-but-undisplayed backlog would swamp the workers x GOP-size
// effect this figure is about. Override with --paper-speed=false.
#include "bench/common.h"
#include "sched/sim.h"

using namespace pmp2;

namespace {

double one_worker_rate(const sched::StreamProfile& profile) {
  double total_ns = 0;
  for (const auto& g : profile.gops) {
    for (const auto& pic : g.pictures) {
      for (const auto& s : pic.slices) {
        total_ns += static_cast<double>(profile.slice_cost_ns(s, false));
      }
    }
  }
  return profile.total_pictures() * 1e9 / total_ns;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  bench::print_header("Figure 8: GOP-version peak memory",
                      "Bilas et al., Fig. 8");
  const auto worker_list = flags.get_int_list("workers", {1, 3, 7, 11, 14});
  const auto gop_sizes = flags.get_int_list("gops", {4, 13, 31});

  obs::RunReport report("bench_fig8_gop_memory",
                        "GOP-version peak memory vs workers (Fig. 8)");
  report.set_meta("paper_speed", flags.get_bool("paper-speed", true));

  for (const auto& res : bench::resolutions(flags)) {
    if (res.width < 352) continue;
    std::cout << "\n--- " << res.width << "x" << res.height << " ---\n";
    std::vector<std::string> labels;
    for (const int g : gop_sizes) {
      labels.push_back("peak MB (GOP=" + std::to_string(g) + ")");
    }
    Series series("workers", labels);
    for (const int workers : worker_list) {
      std::vector<double> ys;
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
        cfg.paced_display = true;
        if (flags.get_bool("paper-speed", true)) {
          const double target =
              5.0 * (352.0 * 240.0) / (res.width * res.height);
          cfg.cost_scale = one_worker_rate(profile) / target;
        }
        const auto r = sched::simulate(profile, cfg);
        ys.push_back(static_cast<double>(r.peak_memory) / (1 << 20));
        report.add_row()
            .set("width", res.width)
            .set("height", res.height)
            .set("gop_size", gop)
            .set("workers", workers)
            .set("peak_memory_bytes", r.peak_memory);
      }
      series.add_point(workers, ys);
    }
    series.print(std::cout, 2);
  }
  std::cout << "\nPaper reference (Fig. 8): memory grows linearly with the"
               " number of processors, GOP size, and picture resolution; the"
               " largest configurations approach the machine limit."
               "\nShape to check: peak ~ workers x GOP size x frame size"
               " until the stream runs out of GOPs to hand out.\n";
  return bench::finish(flags, report);
}
