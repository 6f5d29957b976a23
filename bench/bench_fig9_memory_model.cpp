// Figure 9 — predicted memory requirements over time from the analytical
// model mem(t) = scan(t) + frames(t), for the paper's three cases at full
// paper scale (1120 pictures), including the 1408x960 / 31-pictures /
// 11-processor case that exceeds the machine's 500 MB. The model's rates
// are taken from this host's measured scan/decode throughput; a
// model-vs-simulator comparison at bench scale validates it.
#include "bench/common.h"
#include "model/memory_model.h"
#include "sched/sim.h"

using namespace pmp2;

namespace {

model::MemoryModelParams params_from_profile(
    const sched::StreamProfile& profile, int workers, int gop_size,
    int total_pictures) {
  model::MemoryModelParams p;
  p.workers = workers;
  p.gop_size = gop_size;
  p.frame_bytes = profile.frame_bytes();
  p.total_pictures = total_pictures;
  p.coded_bytes_per_pic =
      static_cast<double>(profile.stream_bytes) / profile.total_pictures();
  p.scan_bytes_per_s =
      profile.scan_ns > 0
          ? static_cast<double>(profile.stream_bytes) * 1e9 / profile.scan_ns
          : 1e12;
  double total_s = 0;
  for (const auto& g : profile.gops) {
    for (const auto& pic : g.pictures) {
      for (const auto& s : pic.slices) {
        total_s += static_cast<double>(profile.slice_cost_ns(s, true)) * 1e-9;
      }
    }
  }
  p.decode_pics_per_s = profile.total_pictures() / total_s;
  p.display_pics_per_s = profile.frame_rate;
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  bench::print_header("Figure 9: predicted memory over time (model)",
                      "Bilas et al., Fig. 9");
  const int paper_pictures =
      static_cast<int>(flags.get_int("model-pictures", 1120));

  struct Case {
    int width, height, gop, workers;
    std::int64_t bit_rate;
  };
  const Case cases[] = {
      {352, 240, 13, 7, 5'000'000},
      {704, 480, 31, 7, 5'000'000},
      {1408, 960, 31, 11, 7'000'000},
  };

  obs::RunReport report("bench_fig9_memory_model",
                        "Analytical memory model mem(t) peaks (Fig. 9)");
  report.set_meta("model_pictures", paper_pictures)
      .set_meta("paper_speed", flags.get_bool("paper-speed", true));

  for (const auto& c : cases) {
    if (c.width > flags.get_int("max-res", 1408)) continue;
    streamgen::StreamSpec spec;
    spec.width = c.width;
    spec.height = c.height;
    spec.bit_rate = c.bit_rate;
    spec.gop_size = c.gop;
    spec = bench::apply_scale(spec, flags);
    const auto& profile = bench::cached_profile(spec);
    auto params =
        params_from_profile(profile, c.workers, c.gop, paper_pictures);
    if (flags.get_bool("paper-speed", true)) {
      // Reproduce the paper's machine balance: per-processor decode ~5
      // pics/s at 352x240 (Table 3 / 14 workers), scan ~4.5 MB/s (Table 2).
      params.decode_pics_per_s =
          5.0 * (352.0 * 240.0) / (c.width * c.height);
      params.scan_bytes_per_s = 4.5e6;
    }
    const model::MemoryModel m(params);

    std::cout << "\n--- " << c.width << "x" << c.height << ", "
              << c.gop << " pics/GOP, " << c.workers << " processors, "
              << paper_pictures << " pictures ---\n";
    Series series("t (s)", {"scan MB", "frames MB", "mem MB"});
    const double end = m.run_length_s();
    for (int i = 0; i <= 10; ++i) {
      const double t = end * i / 10;
      const auto p = m.at(t);
      series.add_point(t, {p.scan_bytes / (1 << 20),
                           p.frame_bytes / (1 << 20),
                           p.total() / (1 << 20)});
    }
    series.print(std::cout, 1);
    const double peak_mb =
        static_cast<double>(m.peak_bytes()) / (1 << 20);
    report.add_row()
        .set("case", "model")
        .set("width", c.width)
        .set("height", c.height)
        .set("gop_size", c.gop)
        .set("workers", c.workers)
        .set("peak_memory_bytes", m.peak_bytes())
        .set("fits_500_mb", peak_mb <= 500);
    std::cout << "peak mem(t) = " << Table::fmt(peak_mb, 1) << " MB"
              << (peak_mb > 500 ? "  -> EXCEEDS the paper's 500 MB limit "
                                  "(cannot run, as the paper reports)"
                                : "  (fits in the paper's 500 MB)")
              << "\n";
  }

  // Validation: model vs simulator at bench scale.
  {
    std::cout << "\n--- model vs simulator (bench scale, 352x240, GOP 13,"
                 " 7 workers) ---\n";
    streamgen::StreamSpec spec;
    spec.width = 352;
    spec.height = 240;
    spec.bit_rate = 5'000'000;
    spec.gop_size = 13;
    spec = bench::apply_scale(spec, flags);
    const auto& profile = bench::cached_profile(spec);
    sched::SimConfig cfg;
    cfg.workers = 7;
    cfg.paced_display = true;
    cfg.measured_costs = true;
    const auto sim = sched::simulate(profile, cfg);
    const auto params = params_from_profile(profile, 7, 13,
                                            profile.total_pictures());
    const auto model_peak = model::MemoryModel(params).peak_bytes();
    report.add_row()
        .set("case", "model_vs_sim")
        .set("width", 352)
        .set("height", 240)
        .set("gop_size", 13)
        .set("workers", 7)
        .set("sim_peak_memory_bytes", sim.peak_memory)
        .set("model_peak_memory_bytes", model_peak);
    std::cout << "simulated peak: "
              << Table::fmt(sim.peak_memory / double(1 << 20), 2)
              << " MB, model peak: "
              << Table::fmt(model_peak / double(1 << 20), 2)
              << " MB (paper: 'model verified to be very close')\n";
  }
  std::cout << "\nPaper reference (Fig. 9): mem(x) = scan(x) + frames(x);"
               " memory ramps up while scan and P-worker decode outpace the"
               " 30 pics/s display, then drains; the 1408x960/31/11 case"
               " exceeds available memory.\n";
  return bench::finish(flags, report);
}
