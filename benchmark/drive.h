// The measured phase: one load-generator thread drives the system under
// test (an AdaptiveDecoder or a DecodeServer) with a plan's requests,
// checks every output against its oracle, and records what a client sees.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "inputs.h"
#include "obs/metrics.h"
#include "parallel/stats.h"

namespace pmp2::obs::prof {
class StageProfiler;
}

namespace pmp2::serve {
class DecodeServer;
}

namespace pmp2::benchmark {

inline constexpr int kWorkers = 4;

/// Raw observations of one measured phase. Per-session vectors hold one
/// value per session (server) or decode (AdaptiveDecoder).
struct Phase {
  double wall_s = 0.0;         // first due time -> last completion
  double cpu_s = 0.0;          // process user+sys CPU over the phase
  std::int64_t pictures = 0;   // pictures displayed
  std::int64_t attempted = 0;  // sessions submitted / decodes started
  std::int64_t failed = 0;
  std::vector<std::string> failures;  // the first few, for the log

  std::vector<double> ttff_ms;         // due -> first frame displayed
  std::vector<double> lag_ms;          // due -> submit
  std::vector<double> submit_us;       // DecodeServer::submit() call
  std::vector<double> wait_ms;         // admission wait (queued_s)
  std::vector<double> first_frame_ms;  // admission -> first frame, server clock
  std::vector<double> run_ms;          // SessionResult::wall_s
  std::vector<double> load_ratio;      // predicted / measured worker share
  std::vector<double> residual_gaps;   // |ttff - lag - wait - first_frame| / poll gap
  std::vector<double> faulted_ttff_ms;
  std::vector<double> poll_gap_us;
  obs::HistogramSnapshot frame_latency;  // merged SessionResult::latency (ns)

  std::int64_t due_frames = 0;   // open loop: frames owed
  std::int64_t late_frames = 0;  // displayed after their deadline, or never
  int queued = 0;                // sessions the admission controller queued
  int faulted = 0;
  int recovered = 0;             // faulted, correct, and concealment ran
  std::int64_t concealed_slices = 0;
  std::int64_t concealed_pictures = 0;
  std::int64_t quarantined_gops = 0;
  std::int64_t gop_mode_gops = 0;
  std::int64_t exploded_gops = 0;
  std::int64_t stolen_tasks = 0;
  std::int64_t served_ns = 0;  // worker CPU charged to the decodes
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  double peak_frame_mb = 0.0;  // largest per-session frame pool
  parallel::WorkerLoadSummary load;
};

/// The system under test, set up for one plan.
class Rig {
 public:
  explicit Rig(const Plan& plan);
  ~Rig();
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  /// Decodes every distinct input once through the measured path. False
  /// (with the reason) when an output differs from its oracle.
  bool warm_up(std::string& error);

  /// Runs the plan for `seconds`. Open-loop arrivals come from the window
  /// [offset_s, offset_s + seconds) of the schedule. `prof`, when set, is
  /// attached to the AdaptiveDecoder runs (it needs kWorkers + 1 slots).
  Phase run(double seconds, double offset_s,
            obs::prof::StageProfiler* prof);

 private:
  Phase run_adaptive(double seconds, obs::prof::StageProfiler* prof);
  Phase run_server(double seconds, double offset_s);

  const Plan& plan_;
  std::unique_ptr<serve::DecodeServer> server_;
  std::size_t next_request_ = 0;
};

/// Linear-interpolated percentile (q in [0, 1]) of `v`; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> v, double q);

/// Process user+sys CPU seconds so far.
[[nodiscard]] double process_cpu_s();

}  // namespace pmp2::benchmark
