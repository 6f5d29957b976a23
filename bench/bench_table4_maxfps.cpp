// Table 4 — maximum frames/sec decoded per picture size for the three
// decoders: simple slice, improved slice, GOP. The ordering (GOP >=
// improved >= simple) and the relative gaps are the paper's result.
#include <thread>

#include "bench/common.h"
#include "parallel/gop_decoder.h"
#include "sched/sim.h"

using namespace pmp2;

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  bench::print_header("Table 4: max frames/sec by decoder version",
                      "Bilas et al., Table 4 (14 workers)");
  const int workers = static_cast<int>(flags.get_int("workers", 14));
  const int gop = static_cast<int>(flags.get_int("gop", 13));

  obs::RunReport report("bench_table4_maxfps",
                        "Max frames/sec by decoder version (Table 4)");
  report.set_meta("workers", workers).set_meta("gop_size", gop);
  Table t({"Picture size", "Simple slice", "Improved slice", "GOP version",
           "Improved/GOP", "Simple/GOP"});
  for (const auto& res : bench::resolutions(flags)) {
    streamgen::StreamSpec spec;
    spec.width = res.width;
    spec.height = res.height;
    spec.bit_rate = res.bit_rate;
    spec.gop_size = gop;
    spec = bench::apply_scale(spec, flags);
    const auto profile = bench::sim_profile(spec, flags);
    sched::SimConfig cfg;
    cfg.workers = workers;
    cfg.measured_costs = true;
    const double simple =
        sched::simulate(profile, bench::simple_slice(cfg))
            .pictures_per_second();
    const double improved =
        sched::simulate(profile, bench::improved_slice(cfg))
            .pictures_per_second();
    const double gop_pps =
        sched::simulate(profile, cfg).pictures_per_second();
    t.add_row({std::to_string(res.width) + "x" + std::to_string(res.height),
               Table::fmt(simple, 1), Table::fmt(improved, 1),
               Table::fmt(gop_pps, 1), Table::fmt(improved / gop_pps, 2),
               Table::fmt(simple / gop_pps, 2)});
    report.add_row()
        .set("width", res.width)
        .set("height", res.height)
        .set("simple_pictures_per_second", simple)
        .set("improved_pictures_per_second", improved)
        .set("gop_pictures_per_second", gop_pps);
  }
  t.print(std::cout);
  std::cout << "\nPaper reference (Table 4): 27.4 / 54.4 / 69.9 (352x240),"
               " 15.1 / 21.6 / 26.6 (704x480), 6.6 / 6.8 / 7.3 (1408x960)"
               " for simple / improved / GOP."
               "\nShape to check: GOP >= improved >= simple; the gap closes"
               " at large pictures (more slices per picture).\n";
  return bench::finish(flags, report);
}
