// Live telemetry overhead: wall time of a 14-worker playback with the
// null telemetry sink vs the same run publishing into LiveTelemetry with
// a LiveSampler ticking (docs/OBSERVABILITY.md, "Live telemetry").
// Acceptance budget: <= 1% overhead. Interleaved min-of-N per decoder so
// the pair sees the same thermal/cache conditions; the report feeds
// bench_all.sh / bench_check regression gating.
#include <algorithm>
#include <chrono>
#include <functional>
#include <vector>

#include "bench/common.h"
#include "obs/live/sampler.h"
#include "obs/live/telemetry.h"
#include "parallel/gop_decoder.h"
#include "parallel/slice_parallel.h"

using namespace pmp2;

namespace {

double min_of(const std::vector<double>& v) {
  return *std::min_element(v.begin(), v.end());
}

double time_once(const std::function<parallel::RunResult()>& run) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto r = run();
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  return r.ok ? secs : -1.0;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  bench::print_header("Live telemetry overhead (14-worker playback)",
                      "pmp2 observability acceptance: <= 1% budget");
  const int workers = static_cast<int>(flags.get_int("workers", 14));
  const int reps = static_cast<int>(flags.get_int("reps", 5));
  const std::int64_t interval_ms = flags.get_int("live-interval-ms", 10);

  obs::RunReport report("bench_live_overhead",
                        "Wall-time cost of live telemetry vs null sink");
  report.set_meta("workers", workers)
      .set_meta("reps", reps)
      .set_meta("live_interval_ms", interval_ms);

  streamgen::StreamSpec spec;  // 352x240 defaults
  spec.gop_size = 13;
  spec.pictures = 78;
  spec = bench::apply_scale(spec, flags);
  const auto stream = bench::load_or_generate(spec);

  Table t({"Decoder", "Base s (min)", "Live s (min)", "Overhead %",
           "Ticks"});
  for (const char* decoder : {"gop", "slice"}) {
    const bool gop = decoder[0] == 'g';
    auto decode = [&](obs::live::LiveTelemetry* live) {
      if (gop) {
        parallel::GopDecoderConfig config;
        config.workers = workers;
        config.live = live;
        return parallel::GopParallelDecoder(config).decode(stream);
      }
      parallel::SliceDecoderConfig config;
      config.workers = workers;
      config.live = live;
      return parallel::SliceParallelDecoder(config).decode(stream);
    };

    std::vector<double> base_s, live_s;
    std::uint64_t ticks = 0;
    bool failed = false;
    for (int rep = 0; rep < reps && !failed; ++rep) {
      const double base = time_once([&] { return decode(nullptr); });
      obs::live::LiveTelemetry telemetry(workers);
      obs::live::LiveSampler::Options options;
      options.interval_ms = interval_ms;
      obs::live::LiveSampler sampler(telemetry, options);
      sampler.start();
      const double live = time_once([&] { return decode(&telemetry); });
      sampler.stop();
      ticks += sampler.snapshots();
      if (base < 0 || live < 0) {
        failed = true;
        break;
      }
      base_s.push_back(base);
      live_s.push_back(live);
    }
    if (failed) {
      t.add_row({decoder, "fail", "fail", "-", "-"});
      report.add_row().set("decoder", decoder).set("ok", false);
      continue;
    }
    const double base_min = min_of(base_s);
    const double live_min = min_of(live_s);
    const double overhead_pct = (live_min / base_min - 1.0) * 100.0;
    double live_total_s = 0;
    for (const double s : live_s) live_total_s += s;
    t.add_row({decoder, Table::fmt(base_min, 4), Table::fmt(live_min, 4),
               Table::fmt(overhead_pct, 2),
               std::to_string(static_cast<long long>(ticks))});
    report.add_row()
        .set("decoder", decoder)
        .set("ok", true)
        .set("base_min_s", base_min)
        .set("live_min_s", live_min)
        .set("overhead_pct", overhead_pct)
        // The tick count follows wall time, so it is reported as an
        // (advisory) rate; that the sampler ran at all is the identity.
        .set("sampler_ran", ticks > 0)
        .set("sampler_ticks_per_second",
             static_cast<double>(ticks) / live_total_s);
  }
  t.print(std::cout);
  std::cout << "\nBudget: overhead <= 1% (null-sink discipline: one pointer"
               " test per event when detached; seqlock cells when live).\n";
  return bench::finish(flags, report);
}
