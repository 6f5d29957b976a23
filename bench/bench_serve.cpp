// Multi-stream serving bench (docs/SERVING.md): the DecodeServer replaying
// the scaled resolution sweep at several session counts and fault mixes
// over one shared worker pool.
//
// Where bench_table1/bench_adaptive measure one stream decoded alone, this
// harness measures the serving regime the paper's real-time goal implies:
// many streams contending for the same workers, admission by predicted
// load, weighted fair scheduling, per-session frame-latency accounting.
// Each row is one (sessions, corrupt_sessions) configuration — the
// identity bench_check diffs against BENCH_parallel.json — with aggregate
// pictures_per_second (higher-better) and p50/p95/p99 queue-inclusive
// frame latency in ns (lower-better), so a regression in either direction
// is visible under the suite's direction-aware tolerances. How many GOPs
// split for idle workers depends on thread timing, so the row reports it
// as a metric (exploded_ratio), never as part of its identity.
//
// Fault mixes replay deterministic inject::plan_fault specs on the first N
// sessions: the serving cost of bounded recovery (concealment, quarantine)
// under load, not just its correctness. A spec is kept only when a solo
// quarantine decode of its output conceals something, and the bench exits
// nonzero when a fault row recovered nothing — so the row provably
// measures recovery.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench/common.h"
#include "inject/fault.h"
#include "parallel/gop_decoder.h"
#include "serve/server.h"
#include "util/table.h"
#include "util/timer.h"

using namespace pmp2;

namespace {

struct MixResult {
  bool ok = true;
  double wall_s = 0.0;
  std::int64_t pictures = 0;
  obs::HistogramSnapshot latency;
  parallel::WorkerLoadSummary load;
  int concealed_slices = 0;
  int concealed_pictures = 0;
  int quarantined_gops = 0;
  int exploded_gops = 0;
  int gop_mode_gops = 0;
};

constexpr std::int64_t kWatchdogNs = 30'000'000'000;

/// Faulted copies of the streams for the corrupt sessions: plan_fault
/// specs are tried in order and a copy is kept only when a solo quarantine
/// decode of it conceals something. Empty when `count` copies could not
/// be found within a bounded number of specs.
std::vector<std::vector<std::uint8_t>> plan_corrupt_streams(
    const std::vector<std::vector<std::uint8_t>>& streams, int count,
    int workers, std::uint64_t fault_seed) {
  constexpr std::uint64_t kMaxSpecsPerStream = 64;
  parallel::GopDecoderConfig solo;
  solo.workers = workers;
  solo.quarantine_gops = true;
  solo.watchdog_ns = kWatchdogNs;
  std::vector<std::vector<std::uint8_t>> out;
  std::uint64_t next = 0;
  for (int i = 0; i < count; ++i) {
    const auto& base = streams[static_cast<std::size_t>(i) % streams.size()];
    for (std::uint64_t tries = 0; tries < kMaxSpecsPerStream; ++tries) {
      auto faulted =
          inject::apply_fault(base, inject::plan_fault(fault_seed, next++));
      const auto r = parallel::GopParallelDecoder(solo).decode(faulted);
      if (r.ok && (r.concealed_slices > 0 || r.concealed_pictures > 0)) {
        out.push_back(std::move(faulted));
        break;
      }
    }
    if (out.size() != static_cast<std::size_t>(i) + 1) return {};
  }
  return out;
}

/// Runs one mix; the first `corrupt` sessions decode `corrupted` copies.
MixResult run_mix(const std::vector<std::vector<std::uint8_t>>& streams,
                  const std::vector<std::vector<std::uint8_t>>& corrupted,
                  int sessions, int corrupt, int workers) {
  serve::ServerConfig config;
  config.workers = workers;
  config.watchdog_ns = kWatchdogNs;
  config.admission.max_queued = sessions;  // wait, never bounce

  MixResult out;
  WallTimer wall;
  serve::DecodeServer server(config);
  std::vector<serve::SessionId> ids;
  ids.reserve(static_cast<std::size_t>(sessions));
  for (int i = 0; i < sessions; ++i) {
    ids.push_back(server.submit(
        i < corrupt ? corrupted[static_cast<std::size_t>(i)]
                    : streams[static_cast<std::size_t>(i) % streams.size()],
        {}));
  }
  for (int i = 0; i < sessions; ++i) {
    const serve::SessionResult r =
        server.wait(ids[static_cast<std::size_t>(i)]);
    if (r.hung || (i >= corrupt && !r.ok)) out.ok = false;
    out.pictures += r.pictures_delivered;
    out.latency.add(r.latency);
    out.concealed_slices += r.concealed_slices;
    out.concealed_pictures += r.concealed_pictures;
    out.quarantined_gops += r.quarantined_gops;
    out.exploded_gops += r.exploded_gops;
    out.gop_mode_gops += r.gop_mode_gops;
  }
  out.wall_s = wall.elapsed_s();
  out.load = server.load_summary();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  bench::apply_kernels_flag(flags);
  bench::print_header("Multi-stream serving: DecodeServer session mixes",
                      "shared-pool serving over the paper's stream matrix");
  const int workers = static_cast<int>(flags.get_int("workers", 4));
  const auto fault_seed =
      static_cast<std::uint64_t>(flags.get_int("fault-seed", 1));

  // The scaled resolution sweep, one generated stream per resolution
  // (cached across runs by the bench stream cache).
  std::vector<std::vector<std::uint8_t>> streams;
  std::vector<std::string> names;
  for (const auto& res : bench::resolutions(flags)) {
    streamgen::StreamSpec spec;
    spec.width = res.width;
    spec.height = res.height;
    spec.bit_rate = res.bit_rate;
    spec = bench::apply_scale(spec, flags);
    streams.push_back(bench::load_or_generate(spec));
    names.push_back(spec.name());
  }
  if (streams.empty()) {
    std::cerr << "bench_serve: no streams\n";
    return 1;
  }

  obs::RunReport report("bench_serve",
                        "DecodeServer session/fault mixes: aggregate "
                        "throughput and frame-latency percentiles");
  report.set_meta("workers", workers);
  report.set_meta("streams", static_cast<std::int64_t>(streams.size()));
  bench::set_kernel_identity(report);

  // The mix grid: contention from 1x to 4x the worker count, plus one
  // fault mix proving recovery stays affordable under load.
  struct Mix {
    int sessions;
    int corrupt;
  };
  const std::vector<Mix> mixes = {
      {1, 0}, {workers, 0}, {2 * workers, 0}, {4 * workers, 0},
      {2 * workers, 2},
  };
  int max_corrupt = 0;
  for (const auto& mix : mixes) {
    max_corrupt = std::max(max_corrupt, mix.corrupt);
  }
  const auto corrupted =
      plan_corrupt_streams(streams, max_corrupt, workers, fault_seed);
  if (corrupted.size() != static_cast<std::size_t>(max_corrupt)) {
    std::cerr << "bench_serve: no fault spec made a solo quarantine decode "
                 "conceal anything\n";
    return 1;
  }

  Table table({"sessions", "corrupt", "pics/s", "p50 ms", "p95 ms",
               "p99 ms", "util", "split", "concealed", "conc. pics"});
  bool all_ok = true;
  bool all_recovered = true;
  for (const auto& mix : mixes) {
    const MixResult r =
        run_mix(streams, corrupted, mix.sessions, mix.corrupt, workers);
    all_ok = all_ok && r.ok;
    if (mix.corrupt > 0 && r.concealed_slices + r.concealed_pictures == 0) {
      all_recovered = false;
    }
    const double pps = r.wall_s > 0 ? r.pictures / r.wall_s : 0.0;
    const int gops = r.exploded_gops + r.gop_mode_gops;
    const double exploded_ratio =
        gops > 0 ? static_cast<double>(r.exploded_gops) / gops : 0.0;
    table.add_row({std::to_string(mix.sessions),
                   std::to_string(mix.corrupt), Table::fmt(pps, 1),
                   Table::fmt(r.latency.percentile(0.50) / 1e6),
                   Table::fmt(r.latency.percentile(0.95) / 1e6),
                   Table::fmt(r.latency.percentile(0.99) / 1e6),
                   Table::fmt(r.load.utilization),
                   Table::fmt(exploded_ratio),
                   std::to_string(r.concealed_slices),
                   std::to_string(r.concealed_pictures)});
    report.add_row()
        .set("sessions", static_cast<std::int64_t>(mix.sessions))
        .set("corrupt_sessions", static_cast<std::int64_t>(mix.corrupt))
        .set("ok", r.ok)
        .set("pictures_per_second", pps)
        .set("latency_p50_ns", r.latency.percentile(0.50))
        .set("latency_p95_ns", r.latency.percentile(0.95))
        .set("latency_p99_ns", r.latency.percentile(0.99))
        .set("utilization", r.load.utilization)
        .set("imbalance", r.load.imbalance)
        .set("exploded_ratio", exploded_ratio)
        .set("concealed_slices",
             static_cast<std::int64_t>(r.concealed_slices))
        .set("concealed_pictures",
             static_cast<std::int64_t>(r.concealed_pictures))
        .set("quarantined_gops",
             static_cast<std::int64_t>(r.quarantined_gops));
  }
  table.print(std::cout);
  if (!all_ok) {
    std::cerr << "bench_serve: a session hung or a clean session failed\n";
  }
  if (!all_recovered) {
    std::cerr << "bench_serve: a fault row concealed nothing\n";
  }

  const int rc = bench::finish(flags, report);
  if (rc != 0) return rc;
  return all_ok && all_recovered ? 0 : 1;
}
