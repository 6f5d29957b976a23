// Table 3 — "Maximum number of pictures/sec decoded for each picture size"
// (GOP version, 14 workers). Uses the virtual-time simulator at 14 workers
// with measured per-slice costs; also reports the real threaded decoder on
// this host's cores for reference.
#include <thread>

#include "bench/common.h"
#include "parallel/gop_decoder.h"
#include "sched/sim.h"

using namespace pmp2;

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  bench::print_header(
      "Table 3: max pictures/sec, GOP-parallel decoder",
      "Bilas et al., Table 3 (14 workers + scan + display)");
  const int workers = static_cast<int>(flags.get_int("workers", 14));
  const int gop = static_cast<int>(flags.get_int("gop", 13));
  const unsigned hw = std::thread::hardware_concurrency();

  obs::RunReport report("bench_table3_gop_maxfps",
                        "Max pictures/sec, GOP-parallel decoder (Table 3)");
  report.set_meta("workers", workers)
      .set_meta("gop_size", gop)
      .set_meta("host_threads", static_cast<std::int64_t>(hw));
  Table t({"Picture size", "Sim pics/s (P=" + std::to_string(workers) + ")",
           "Sim pics/s (P=1)", "Real pics/s (host, P=" +
               std::to_string(hw) + ")"});
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
    const double sim = sched::simulate(profile, cfg).pictures_per_second();
    cfg.workers = 1;
    const double sim1 =
        sched::simulate(profile, cfg).pictures_per_second();

    const auto stream = bench::load_or_generate(spec);
    parallel::GopDecoderConfig pcfg;
    pcfg.workers = static_cast<int>(hw);
    const auto real = parallel::GopParallelDecoder(pcfg).decode(stream);

    t.add_row({std::to_string(res.width) + "x" + std::to_string(res.height),
               Table::fmt(sim, 1), Table::fmt(sim1, 1),
               real.ok ? Table::fmt(real.pictures_per_second(), 1) : "fail"});
    report.add_row()
        .set("width", res.width)
        .set("height", res.height)
        .set("sim_pictures_per_second", sim)
        .set("sim_single_worker_pictures_per_second", sim1)
        .set("real_pictures_per_second",
             real.ok ? real.pictures_per_second() : 0.0)
        .set("real_ok", real.ok);
  }
  t.print(std::cout);
  std::cout << "\nPaper reference (Table 3, 150 MHz R4400s): 69.9 / 26.6 /"
               " 7.3 pics/s at 352x240 / 704x480 / 1408x960 with 14 workers."
               "\nShape to check: throughput scales ~1/pixels; 14-worker sim"
               " >> 1-worker sim; modern-core absolute numbers are much"
               " higher than 1997's.\n";
  return bench::finish(flags, report);
}
