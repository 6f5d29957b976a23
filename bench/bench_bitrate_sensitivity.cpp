// §3 (test streams) — bit-rate sensitivity: "decoding times for streams of
// a given picture size are typically within 10%-15% ... there is no
// noticeable impact on parallel performance." Encode the same content at
// widely varying quantization (hence bit rate), measure decode time and
// simulated speedups.
#include "bench/common.h"
#include "mpeg2/decoder.h"
#include "streamgen/scene.h"
#include "sched/sim.h"
#include "util/timer.h"

using namespace pmp2;

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  bench::print_header("Section 3: bit-rate sensitivity",
                      "Bilas et al., §3 (no figure)");
  const int width = static_cast<int>(flags.get_int("width", 352));
  const int workers = static_cast<int>(flags.get_int("workers", 8));

  obs::RunReport report("bench_bitrate_sensitivity",
                        "Decode-time sensitivity to bit rate (Section 3)");
  report.set_meta("width", width).set_meta("workers", workers);
  Table t({"qscale", "Mb/s", "decode ms (min of 5)", "vs qscale 8",
           "GOP speedup@8", "improved-slice speedup@8"});
  double base_ms = 0;
  for (const int q : {2, 5, 8, 16, 31}) {
    streamgen::StreamSpec spec;
    spec.width = width;
    spec.height = width * 240 / 352;
    spec.gop_size = 13;
    spec.rate_control = false;
    spec.bit_rate = 5'000'000;  // informational; quantizer fixed below
    spec = bench::apply_scale(spec, flags);
    // base_qscale_code is not in StreamSpec; encode directly.
    mpeg2::EncoderConfig cfg;
    cfg.width = spec.width;
    cfg.height = spec.height;
    cfg.gop_size = spec.gop_size;
    cfg.rate_control = false;
    cfg.base_qscale_code = q;
    mpeg2::Encoder enc(cfg);
    streamgen::SceneConfig sc;
    sc.width = spec.width;
    sc.height = spec.height;
    const streamgen::SceneGenerator scene(sc);
    for (int i = 0; i < spec.pictures; ++i) enc.push_frame(scene.render(i));
    const auto stream = enc.finish();

    double best_ns = 1e18;
    for (int rep = 0; rep < 5; ++rep) {
      mpeg2::Decoder dec;
      WallTimer timer;
      (void)dec.decode_stream(stream, [](mpeg2::FramePtr) {});
      best_ns = std::min(best_ns, static_cast<double>(timer.elapsed_ns()));
    }
    if (q == 8) base_ms = best_ns / 1e6;

    const auto profile =
        sched::replicate_profile(sched::profile_stream(stream), 260);
    sched::SimConfig scfg;
    scfg.workers = workers;
    sched::SimConfig one = scfg;
    one.workers = 1;
    const double gop_speedup =
        sched::simulate(profile, scfg).pictures_per_second() /
        sched::simulate(profile, one).pictures_per_second();
    const double slice_speedup =
        sched::simulate(profile, bench::improved_slice(scfg))
            .pictures_per_second() /
        sched::simulate(profile, bench::improved_slice(one))
            .pictures_per_second();

    const double mbps =
        stream.size() * 8.0 * 30 / spec.pictures / 1e6;
    t.add_row({std::to_string(q), Table::fmt(mbps, 2),
               Table::fmt(best_ns / 1e6, 1),
               base_ms > 0 ? Table::fmt(best_ns / 1e6 / base_ms, 2) : "-",
               Table::fmt(gop_speedup, 2), Table::fmt(slice_speedup, 2)});
    report.add_row()
        .set("qscale", q)
        .set("megabits_per_second_rate", mbps)
        .set("decode_ns", best_ns)
        .set("gop_speedup", gop_speedup)
        .set("slice_speedup", slice_speedup);
  }
  t.print(std::cout);
  std::cout << "\nPaper reference (§3): decode times within 10-15% across"
               " widely varying bit rates; speedups consistent."
               "\nShape to check: decode time varies far less than bit rate"
               " (a ~10x rate spread moves decode time a few tens of"
               " percent); speedup columns flat across quantizers.\n";
  return bench::finish(flags, report);
}
