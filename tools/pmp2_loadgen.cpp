// pmp2_loadgen — multi-stream serving load generator (docs/SERVING.md).
//
// Replays the Table-1 stream matrix through one DecodeServer at a
// configurable session count and arrival pattern, optionally corrupting
// chosen sessions with the deterministic fault injector (src/inject), and
// emits a pmp2-bench-report/1 with aggregate and per-session p50/p95/p99
// queue-inclusive frame latency and pictures/sec, plus an "admission"
// object with the server's final admission state (capacity, admitted
// load, calibrated GOP count). This is the serve CI stage's
// harness: the process exits nonzero on any hang, admission
// anomaly, frame-pool leak, or — with --verify-isolation — any clean
// session whose checksum differs from a solo (single-session) run of the
// same stream, which is the byte-exactness half of session isolation.
//
//   pmp2_loadgen --sessions 8 --workers 4
//   pmp2_loadgen --sessions 12 --corrupt 2,5 --fault-seed 3
//                --verify-isolation --report-out serve.json
//
// Streams: every *.m2v under --streams when the directory has any;
// otherwise the 16 Table-1 specs are generated (and cached) via the bench
// stream cache. Session i replays stream i mod streams.
//
// Arrival patterns (--arrival): "burst" submits every session up front
// (peak concurrency = session count, the admission stress case);
// "staggered" spaces submissions --interval-ms apart (steady-state
// serving, exercises admit-from-wait-list as sessions finish).
//
// Violations (any => exit 1):
//   * a session hangs (watchdog fired) or the whole run exceeds its wall
//     budget;
//   * a clean session does not finish ok, or is rejected by admission;
//   * --verify-isolation: a clean session's checksum != its solo-run
//     checksum (a corrupt neighbor leaked into its output);
//   * a corrupt session fails without leaving error records;
//   * frame-pool leak: a session tears down with idle != misses.
//
// Exit codes: 0 clean, 1 violations, 2 operational failure (no streams).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "inject/fault.h"
#include "io/mapped_file.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "parallel/gop_decoder.h"
#include "serve/server.h"
#include "util/flags.h"
#include "util/timer.h"

using namespace pmp2;
namespace fs = std::filesystem;

namespace {

struct LoadStream {
  std::string name;
  io::MappedFile file;             // file-backed streams (mmap)
  std::vector<std::uint8_t> data;  // generated streams

  [[nodiscard]] std::span<const std::uint8_t> bytes() const {
    return file.size() > 0 ? file.bytes()
                           : std::span<const std::uint8_t>(data);
  }
};

std::vector<LoadStream> collect_streams(const Flags& flags) {
  std::vector<LoadStream> out;
  const std::string dir = flags.get_string("streams", "bench_streams");
  std::error_code ec;
  if (fs::is_directory(dir, ec)) {
    std::vector<fs::path> files;
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
      if (entry.is_regular_file() && entry.path().extension() == ".m2v") {
        files.push_back(entry.path());
      }
    }
    std::sort(files.begin(), files.end());
    for (const auto& path : files) {
      LoadStream s;
      s.name = path.filename().string();
      if (s.file.open(path.string()) && s.file.size() > 0) {
        out.push_back(std::move(s));
      }
    }
  }
  if (!out.empty()) return out;
  const auto pictures = static_cast<int>(flags.get_int("pictures", 0));
  for (auto spec : streamgen::table1_specs(0)) {
    spec.pictures =
        pictures > 0 ? pictures : bench::default_pictures(spec.width);
    if (spec.pictures < spec.gop_size) spec.pictures = spec.gop_size;
    LoadStream s;
    s.name = spec.name();
    s.data = bench::load_or_generate(spec);
    out.push_back(std::move(s));
  }
  return out;
}

/// Parses "1,4,7" into indices; silently drops malformed fields.
std::vector<int> parse_index_list(const std::string& text) {
  std::vector<int> out;
  std::stringstream ss(text);
  std::string field;
  while (std::getline(ss, field, ',')) {
    try {
      out.push_back(std::stoi(field));
    } catch (...) {
    }
  }
  return out;
}

/// One planned session of the replay.
struct SessionPlan {
  int index = 0;
  int stream = 0;            // index into the stream matrix
  bool corrupt = false;
  inject::FaultSpec fault;
  std::vector<std::uint8_t> corrupted;  // owns the faulted copy
  serve::SessionId id = -1;
  serve::SessionResult result;

  [[nodiscard]] std::span<const std::uint8_t> bytes(
      const std::vector<LoadStream>& streams) const {
    return corrupt ? std::span<const std::uint8_t>(corrupted)
                   : streams[static_cast<std::size_t>(stream)].bytes();
  }
};

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  bench::apply_kernels_flag(flags);
  const auto sessions = static_cast<int>(flags.get_int("sessions", 8));
  const auto workers = static_cast<int>(flags.get_int("workers", 4));
  const std::string arrival = flags.get_string("arrival", "burst");
  const auto interval_ms = flags.get_int("interval-ms", 20);
  const auto fault_seed =
      static_cast<std::uint64_t>(flags.get_int("fault-seed", 1));
  const bool verify_isolation = flags.get_bool("verify-isolation", false);
  const std::vector<int> corrupt = parse_index_list(
      flags.get_string("corrupt", ""));
  const std::int64_t watchdog_ns =
      flags.get_int("watchdog-ms", 10'000) * std::int64_t{1'000'000};
  const auto max_queued_gops =
      static_cast<std::size_t>(flags.get_int("max-queued-gops", 4));
  const double capacity = flags.get_double("capacity", 0.0);

  if (sessions <= 0 || workers <= 0) {
    std::fprintf(stderr, "pmp2_loadgen: bad --sessions/--workers\n");
    return 2;
  }
  if (arrival != "burst" && arrival != "staggered") {
    std::fprintf(stderr, "pmp2_loadgen: unknown --arrival %s\n",
                 arrival.c_str());
    return 2;
  }

  std::vector<LoadStream> streams = collect_streams(flags);
  if (streams.empty()) {
    std::fprintf(stderr, "pmp2_loadgen: no streams to replay\n");
    return 2;
  }

  // Plan the sessions: session i replays stream i mod streams, corrupted
  // when listed in --corrupt (deterministic fault per session index).
  std::vector<SessionPlan> plans(static_cast<std::size_t>(sessions));
  for (int i = 0; i < sessions; ++i) {
    SessionPlan& p = plans[static_cast<std::size_t>(i)];
    p.index = i;
    p.stream = i % static_cast<int>(streams.size());
    if (std::find(corrupt.begin(), corrupt.end(), i) != corrupt.end()) {
      p.corrupt = true;
      p.fault = inject::plan_fault(fault_seed,
                                   static_cast<std::uint64_t>(i));
      p.corrupted = inject::apply_fault(
          streams[static_cast<std::size_t>(p.stream)].bytes(), p.fault);
    }
  }

  // Solo baselines for --verify-isolation: the quarantine-on GOP decoder
  // is byte-identical to a server session by construction (both decode
  // every picture with decode_one_picture's steps along a picture chain),
  // so its checksum is the "this stream decoded alone" reference a clean
  // session must reproduce under load.
  std::map<int, std::uint64_t> solo_checksum;
  if (verify_isolation) {
    for (const auto& p : plans) {
      if (p.corrupt || solo_checksum.count(p.stream)) continue;
      parallel::GopDecoderConfig config;
      config.workers = workers;
      config.quarantine_gops = true;
      config.watchdog_ns = watchdog_ns;
      const auto solo = parallel::GopParallelDecoder(config).decode(
          streams[static_cast<std::size_t>(p.stream)].bytes());
      if (!solo.ok) {
        std::fprintf(stderr, "pmp2_loadgen: solo decode failed for %s\n",
                     streams[static_cast<std::size_t>(p.stream)]
                         .name.c_str());
        return 2;
      }
      solo_checksum[p.stream] = solo.checksum;
    }
  }

  serve::ServerConfig server_config;
  server_config.workers = workers;
  server_config.watchdog_ns = watchdog_ns;
  server_config.admission.capacity = capacity;
  // Over-capacity sessions wait rather than bounce: the replay measures
  // serving latency, not admission rejections.
  server_config.admission.max_queued = sessions;

  std::printf("pmp2_loadgen: %d sessions over %zu streams, %d workers, "
              "%s arrival%s\n",
              sessions, streams.size(), workers, arrival.c_str(),
              verify_isolation ? ", isolation verify" : "");

  WallTimer wall;
  serve::DecodeServer server(server_config);
  for (auto& p : plans) {
    if (arrival == "staggered" && p.index > 0 && interval_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
    serve::SessionConfig sc;
    sc.name = streams[static_cast<std::size_t>(p.stream)].name +
              (p.corrupt ? "+" + p.fault.name() : "");
    sc.max_queued_gops = max_queued_gops;
    p.id = server.submit(p.bytes(streams), std::move(sc));
  }
  for (auto& p : plans) p.result = server.wait(p.id);
  const double wall_s = wall.elapsed_s();
  const parallel::WorkerLoadSummary load = server.load_summary();
  const serve::AdmissionSnapshot admission = server.admission();

  // Violation checks.
  int violations = 0;
  auto violation = [&](const SessionPlan& p, const char* what) {
    std::fprintf(stderr, "VIOLATION %s: session=%d stream=%s%s state=%s\n",
                 what, p.index,
                 streams[static_cast<std::size_t>(p.stream)].name.c_str(),
                 p.corrupt ? ("+" + p.fault.name()).c_str() : "",
                 std::string(serve::session_state_name(p.result.state))
                     .c_str());
    ++violations;
  };
  obs::HistogramSnapshot aggregate_latency;
  std::int64_t pictures_total = 0;
  for (const auto& p : plans) {
    const serve::SessionResult& r = p.result;
    pictures_total += r.pictures_delivered;
    aggregate_latency.add(r.latency);
    if (r.hung) violation(p, "hang");
    if (r.state == serve::SessionState::kRejected) {
      violation(p, "rejected");
      continue;
    }
    if (!p.corrupt) {
      if (!r.ok) violation(p, "clean session failed");
      if (verify_isolation && r.ok &&
          r.checksum != solo_checksum[p.stream]) {
        violation(p, "isolation checksum");
      }
    } else if (!r.ok && !r.hung && r.errors.empty() && r.pictures > 0) {
      violation(p, "unexplained corrupt failure");
    }
    if (r.pool_idle != r.pool_misses) violation(p, "frame-pool leak");
  }

  // Per-session table + report.
  obs::RunReport report("pmp2_loadgen", "multi-stream serving replay");
  report.set_meta("sessions", sessions);
  report.set_meta("workers", workers);
  report.set_meta("arrival", arrival);
  report.set_meta("corrupt_sessions",
                  static_cast<std::int64_t>(corrupt.size()));
  report.set_meta("verify_isolation", verify_isolation);
  report.set_meta("violations", violations);
  report.set_meta("wall_s", wall_s);
  report.set_meta("pictures_per_second", wall_s > 0 ? pictures_total / wall_s : 0.0);
  report.set_meta("latency_p50_ms", aggregate_latency.percentile(0.50) / 1e6);
  report.set_meta("latency_p95_ms", aggregate_latency.percentile(0.95) / 1e6);
  report.set_meta("latency_p99_ms", aggregate_latency.percentile(0.99) / 1e6);
  report.set_meta("pool_utilization", load.utilization);
  bench::set_kernel_identity(report);
  report.add_object("admission")
      .set("capacity", admission.capacity)
      .set("calibrated_gops", admission.calibrated_gops)
      .set("admitted_load", admission.admitted_load)
      .set("running", admission.running)
      .set("queued", admission.queued);

  std::printf("\n%-40s %-9s %8s %8s %9s %9s %9s\n", "session", "state",
              "pics", "pics/s", "p50 ms", "p95 ms", "p99 ms");
  for (const auto& p : plans) {
    const serve::SessionResult& r = p.result;
    const std::string name =
        streams[static_cast<std::size_t>(p.stream)].name +
        (p.corrupt ? "+fault" : "");
    std::printf("%-40s %-9s %8d %8.1f %9.2f %9.2f %9.2f\n", name.c_str(),
                std::string(serve::session_state_name(r.state)).c_str(),
                r.pictures_delivered, r.pics_per_s(),
                r.latency.percentile(0.50) / 1e6,
                r.latency.percentile(0.95) / 1e6,
                r.latency.percentile(0.99) / 1e6);
    report.add_row()
        .set("session", static_cast<std::int64_t>(p.index))
        .set("stream", name)
        .set("state",
             std::string(serve::session_state_name(r.state)))
        .set("corrupt", p.corrupt)
        .set("ok", r.ok)
        .set("pictures", r.pictures_delivered)
        .set("pictures_per_second", r.pics_per_s())
        .set("wall_s", r.wall_s)
        .set("queued_s", r.queued_s)
        .set("latency_p50_ms", r.latency.percentile(0.50) / 1e6)
        .set("latency_p95_ms", r.latency.percentile(0.95) / 1e6)
        .set("latency_p99_ms", r.latency.percentile(0.99) / 1e6)
        .set("concealed_slices", r.concealed_slices)
        .set("quarantined_gops", r.quarantined_gops)
        .set("exploded_gops", r.exploded_gops)
        .set("gop_mode_gops", r.gop_mode_gops)
        .set("predicted_load", r.profile.predicted_load);
  }
  std::printf("\n%d sessions in %.2fs (%.1f pics/s aggregate), "
              "utilization %.2f, %d violations\n",
              sessions, wall_s,
              wall_s > 0 ? pictures_total / wall_s : 0.0,
              load.utilization, violations);
  std::printf("admission: capacity %.0f, %lld GOPs calibrated\n",
              admission.capacity,
              static_cast<long long>(admission.calibrated_gops));

  const int finish_rc = bench::finish(flags, report);
  if (finish_rc != 0) return finish_rc;
  return violations > 0 ? 1 : 0;
}
