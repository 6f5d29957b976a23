// pmp2_benchmark: one workload of the repository benchmark per process
// (README.md). run.py builds this binary and invokes it; it can also be run
// directly:
//
//   pmp2_benchmark --prepare=hd --streams=DIR
//   pmp2_benchmark --workload=hd_seek --seed=1 --seconds=15 --trace=0
//
// A workload run prints one "metric <name> <value> <unit>" line per metric
// and, as its last line, the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace=0) or the per-layer ones
// (--trace=1). It exits nonzero when any output differed from its oracle.
#include <sys/resource.h>

#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "drive.h"
#include "inputs.h"
#include "layers.h"
#include "mpeg2/kernels/kernels.h"
#include "util/flags.h"
#include "util/timer.h"

using namespace pmp2;
using namespace pmp2::benchmark;

namespace {

// Set-up is repeated and its median reported; short set-ups repeat more.
constexpr std::size_t kSetupReps = 3;
constexpr double kSetupSeconds = 2.0;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string number(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return {buf, r.ptr};
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

double ratio(double num, double den) { return den != 0 ? num / den : 0.0; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Throughput of `work` on kWorkers threads at once over one thread: how
/// far this host scales a compute-bound and a store-bound loop.
template <typename Work>
double thread_scaling(Work work) {
  const WallTimer one;
  work();
  const double t1 = one.elapsed_s();
  const WallTimer all;
  {
    std::vector<std::jthread> threads;
    for (int i = 0; i < kWorkers; ++i) threads.emplace_back(work);
  }
  return kWorkers * t1 / all.elapsed_s();
}

// Written by the scaling probes so the optimizer keeps their loops.
std::atomic<std::uint64_t> g_sink{0};

void print_host() {
  const double compute = thread_scaling([] {
    std::uint64_t x = 88172645463325252ULL;
    for (int i = 0; i < 50'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    g_sink.store(x, std::memory_order_relaxed);
  });
  const double store = thread_scaling([] {
    std::vector<char> buf(std::size_t{32} << 20);
    for (int pass = 0; pass < 16; ++pass) {
      std::memset(buf.data(), pass, buf.size());
      g_sink.store(static_cast<std::uint8_t>(buf[static_cast<std::size_t>(pass)]),
                   std::memory_order_relaxed);
    }
  });
  std::cout << "host nproc=" << std::thread::hardware_concurrency()
            << " kernels=" << mpeg2::kernels::active().name
            << " cpu_features=" << mpeg2::kernels::cpu_features()
            << " compute_scaling_4t=" << number(compute)
            << " store_scaling_4t=" << number(store) << "\n";
}

void add_e2e(std::vector<Metric>& m, const Phase& ph, double setup_s) {
  m.push_back({"setup_s", setup_s, "s"});
  m.push_back({"pics_per_s", ratio(static_cast<double>(ph.pictures), ph.wall_s),
               "pictures/s"});
  m.push_back({"cpu_ms_per_pic",
               ratio(ph.cpu_s * 1e3, static_cast<double>(ph.pictures)),
               "ms/picture"});
  // The mean, not the median: hd_single's time to first frame is bimodal
  // (README.md, "Known caveats"), so its median jumps between the modes
  // from run to run while the mean follows the share in each.
  m.push_back({"ttff_ms_mean", mean(ph.ttff_ms), "ms"});
  m.push_back({"ttff_ms_p90", percentile(ph.ttff_ms, 0.90), "ms"});
}

/// The per-layer metrics of a traced run. The layers' own results come
/// from `base`, the untraced half: the stage profiler inflates the thread
/// CPU the decoders report. `traced` is the traced half, `split` the
/// in-situ stage split at kWorkers and `split_cpu_s` the process CPU the
/// split covers.
void add_layers(std::vector<Metric>& m, const Plan& plan, const Phase& base,
                const Phase& traced, const LayerTimes& lt,
                const StageSplit& split, double split_cpu_s) {
  const Phase& p = base;
  const auto pics = static_cast<double>(std::max<std::int64_t>(p.pictures, 1));
  const auto sessions = static_cast<double>(std::max<std::int64_t>(p.attempted, 1));
  const auto gops = static_cast<double>(p.gop_mode_gops + p.exploded_gops);
  const double base_cpu_ms = ratio(base.cpu_s * 1e3, static_cast<double>(base.pictures));
  const double traced_cpu_ms =
      ratio(traced.cpu_s * 1e3, static_cast<double>(traced.pictures));
  using obs::prof::Stage;
  const auto share = [&](Stage s) { return split.share[static_cast<int>(s)]; };

  m.push_back({"scan.ns_per_byte", lt.scan_ns_per_byte, "ns/byte"});
  m.push_back({"scan.us_per_gop", lt.scan_us_per_gop, "us/gop"});
  m.push_back({"mpeg2.seq_ms_per_pic", lt.seq_ms_per_pic, "ms/picture"});
  m.push_back({"mpeg2.vlc_ms_per_pic", lt.vlc_ms_per_pic, "ms/picture"});
  m.push_back({"mpeg2.idct_ms_per_pic", lt.idct_ms_per_pic, "ms/picture"});
  m.push_back({"mpeg2.mc_ms_per_pic", lt.mc_ms_per_pic, "ms/picture"});
  m.push_back({"mpeg2.conceal_ms_per_pic", lt.conceal_ms_per_pic, "ms/picture"});
  m.push_back({"mpeg2.other_ms_per_pic", lt.other_ms_per_pic, "ms/picture"});
  m.push_back({"kernels.idct_ns_per_block", lt.idct_ns_per_block, "ns/block"});
  m.push_back({"kernels.blocks_per_pic", lt.blocks_per_pic, "blocks/picture"});

  m.push_back({"parallel.utilization", p.load.utilization, "ratio"});
  m.push_back({"parallel.sync_ratio", p.load.sync_ratio, "ratio"});
  m.push_back({"parallel.imbalance", p.load.imbalance, "ratio"});
  m.push_back({"parallel.pool_hit_ratio",
               ratio(static_cast<double>(p.pool_hits),
                     static_cast<double>(p.pool_hits + p.pool_misses)),
               "ratio"});
  m.push_back({"parallel.peak_frame_mb", p.peak_frame_mb, "MiB"});
  // The paper's Fig. 7 actual/ideal ratio: CPU per picture at kWorkers
  // over the sequential decoder's.
  m.push_back({"parallel.cpu_overhead", ratio(base_cpu_ms, lt.seq_ms_per_pic),
               "ratio"});
  m.push_back({"parallel.vlc_share", share(Stage::kVlc), "ratio"});
  m.push_back({"parallel.idct_share", share(Stage::kIdct), "ratio"});
  m.push_back({"parallel.mc_share", share(Stage::kMc), "ratio"});

  m.push_back({"sched.exploded_share",
               ratio(static_cast<double>(p.exploded_gops), gops), "ratio"});
  m.push_back({"sched.stolen_per_gop",
               ratio(static_cast<double>(p.stolen_tasks), gops), "tasks/gop"});
  m.push_back({"sched.served_ms_per_pic",
               static_cast<double>(p.served_ns) / 1e6 / pics, "ms/picture"});

  m.push_back({"serve.submit_us_p50", percentile(p.submit_us, 0.50), "us"});
  m.push_back({"serve.submit_us_p99", percentile(p.submit_us, 0.99), "us"});
  m.push_back({"serve.queued_share", plan.server ? p.queued / sessions : 0.0,
               "ratio"});
  m.push_back({"serve.admission_wait_ms_p50", percentile(p.wait_ms, 0.50), "ms"});
  m.push_back({"serve.admission_wait_ms_p90", percentile(p.wait_ms, 0.90), "ms"});
  m.push_back({"serve.first_frame_ms_p50", percentile(p.first_frame_ms, 0.50), "ms"});
  m.push_back({"serve.first_frame_ms_p90", percentile(p.first_frame_ms, 0.90), "ms"});
  m.push_back({"serve.run_ms_p50", percentile(p.run_ms, 0.50), "ms"});
  m.push_back({"serve.run_ms_p90", percentile(p.run_ms, 0.90), "ms"});
  m.push_back({"serve.frame_ms_p50", p.frame_latency.percentile(0.50) / 1e6, "ms"});
  m.push_back({"serve.frame_ms_p99", p.frame_latency.percentile(0.99) / 1e6, "ms"});
  m.push_back({"serve.load_model_ratio_p50", percentile(p.load_ratio, 0.50),
               "ratio"});

  m.push_back({"recover.recovered_share",
               ratio(p.recovered, p.faulted), "ratio"});
  m.push_back({"recover.concealed_slices_per_session",
               static_cast<double>(p.concealed_slices) / sessions, "1/session"});
  m.push_back({"recover.concealed_pictures_per_session",
               static_cast<double>(p.concealed_pictures) / sessions, "1/session"});
  m.push_back({"recover.quarantined_gops_per_session",
               static_cast<double>(p.quarantined_gops) / sessions, "1/session"});
  m.push_back({"recover.first_frame_ms_p50",
               percentile(p.faulted_ttff_ms, 0.50), "ms"});

  m.push_back({"loadgen.lag_ms_p99", percentile(p.lag_ms, 0.99), "ms"});
  m.push_back({"loadgen.lag_ms_max", percentile(p.lag_ms, 1.0), "ms"});
  m.push_back({"loadgen.poll_gap_us_p99", percentile(p.poll_gap_us, 0.99), "us"});
  m.push_back({"loadgen.late_frame_ratio",
               ratio(static_cast<double>(p.late_frames),
                     static_cast<double>(p.due_frames)),
               "ratio"});
  m.push_back({"loadgen.ttff_residual_gaps_max",
               percentile(p.residual_gaps, 1.0), "ratio"});
  m.push_back({"obs.traced_overhead",
               ratio(traced_cpu_ms, base_cpu_ms) - (base_cpu_ms > 0 ? 1.0 : 0.0),
               "ratio"});
  m.push_back({"obs.stage_cpu_coverage", ratio(split.cpu_s, split_cpu_s),
               "ratio"});
}

/// Failures a phase's counters prove beyond per-session checks.
bool phase_ok(const Plan& plan, const Phase& ph) {
  bool ok = ph.attempted > 0 && ph.failed == 0;
  for (const auto& f : ph.failures) std::cerr << "FAILED " << f << "\n";
  if (plan.workload == "vod_faulted" &&
      (ph.faulted == 0 || ph.recovered != ph.faulted)) {
    std::cerr << "FAILED recovery ran in " << ph.recovered << " of "
              << ph.faulted << " faulted sessions\n";
    ok = false;
  }
  return ok;
}

int run(const Flags& flags) {
  const std::string workload = flags.get_string("workload", "");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const double seconds = flags.get_double("seconds", 15.0);
  const bool trace = flags.get_int("trace", 0) != 0;
  const std::string streams = flags.get_string("streams", ".bench_build/streams");
  if (workload.empty() || seconds <= 0) {
    std::cerr << "usage: pmp2_benchmark --workload=hd_single|hd_seek|"
                 "live_segments|vod_faulted [--seed=N] [--seconds=S] "
                 "[--trace=0|1] [--streams=DIR]\n";
    return 2;
  }
  std::cout << "workload=" << workload << " seed=" << seed
            << " seconds=" << seconds << " trace=" << trace << "\n";

  Plan plan;
  std::string error;
  if (!make_plan(workload, seed, seconds, streams, plan, error)) {
    std::cerr << "pmp2_benchmark: " << error << "\n";
    return 2;
  }

  // Set-up: construct the system under test and warm it on every distinct
  // input, at least kSetupReps times and for kSetupSeconds; the last rig
  // is the one measured.
  std::unique_ptr<Rig> rig;
  std::vector<double> setups;
  bool ok = true;
  const WallTimer setup_total;
  while (setups.size() < kSetupReps || setup_total.elapsed_s() < kSetupSeconds) {
    rig.reset();
    const WallTimer t;
    rig = std::make_unique<Rig>(plan);
    if (!rig->warm_up(error)) {
      std::cerr << "FAILED warm-up " << error << "\n";
      ok = false;
    }
    setups.push_back(t.elapsed_s());
  }

  std::vector<Metric> metrics;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  if (!trace) {
    const Phase ph = rig->run(seconds, 0.0, nullptr);
    ok = phase_ok(plan, ph) && ok;
    attempted = ph.attempted;
    failed = ph.failed;
    add_e2e(metrics, ph, median(setups));
  } else {
    // The untraced first half gives the layers' own results and the
    // baseline for the tracing overhead; the traced second half profiles
    // the AdaptiveDecoder's stages in situ.
    const Phase base = rig->run(seconds / 2, 0.0, nullptr);
    const auto prof = make_profiler(kWorkers + 1);
    const Phase traced =
        rig->run(seconds / 2, seconds / 2, plan.server ? nullptr : prof.get());
    ok = phase_ok(plan, base) && phase_ok(plan, traced) && ok;
    attempted = base.attempted + traced.attempted;
    failed = base.failed + traced.failed;
    const double rss_mb = peak_rss_mb();
    rig.reset();
    const LayerTimes layers = replay_layers(plan);
    StageSplit split;
    double split_cpu_s = traced.cpu_s;
    if (plan.server) {
      split = replay_in_situ(plan, split_cpu_s);
    } else {
      split = stage_split(*prof);
    }
    add_layers(metrics, plan, base, traced, layers, split, split_cpu_s);
    metrics.push_back({"obs.peak_rss_mb", rss_mb, "MiB"});
  }
  // Last, so its buffers and threads stay out of the measurement and of
  // the peak RSS read above.
  print_host();

  std::string body;
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      std::cerr << "FAILED metric " << m.name << " is not finite\n";
      ok = false;
    }
    const std::string v = number(std::isfinite(m.value) ? m.value : 0.0);
    std::cout << "metric " << m.name << " " << v << " " << m.unit << "\n";
    body += (body.empty() ? "\"" : ", \"") + m.name + "\": {\"value\": " + v +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  std::cout << "{\"correct\": " << (ok ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {" << body << "}}" << std::endl;
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  if (flags.has("prepare")) {
    std::string error;
    if (!prepare_stream(flags.get_string("prepare", ""),
                        flags.get_string("streams", ".bench_build/streams"),
                        error)) {
      std::cerr << "pmp2_benchmark: " << error << "\n";
      return 2;
    }
    return 0;
  }
  return run(flags);
}
