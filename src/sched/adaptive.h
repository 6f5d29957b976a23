// Adaptive-granularity scheduling policy and its virtual-time simulator.
//
// The paper fixes parallel granularity per experiment: GOP tasks for
// throughput (Fig. 5), slice tasks for latency (Fig. 11). The adaptive
// policy chooses per GOP at dispatch time — run the GOP whole when the
// pipeline is deep (plenty of ready GOPs to keep every worker busy), or
// explode it into slice tasks when the queue is shallow or the GOP is
// predicted to be a straggler, so all workers cooperate on the frames that
// gate display. simulate_adaptive sweeps this policy space in virtual time
// (deterministic, any worker count) before the real decoder commits to it;
// the frame-latency objective (SimResult::frame_latency_ns) provides the
// second Pareto axis next to makespan.
//
// Work stealing: each worker owns a deque of GOP tasks (owner = gop index
// mod workers, preserving the GOP decoder's round-robin affinity); an idle
// worker first backfills slice tasks of any exploded GOP, then pops its own
// deque, then steals a whole GOP from the next worker in steal_order().
// Stolen-task counts per worker answer "where did stolen work land".
#pragma once

#include <vector>

#include "sched/sim.h"

namespace pmp2::sched {

/// Victim order for worker `self` of `workers`: self+1, self+2, ... wrapped,
/// excluding self. Deterministic and purely index-based so steal decisions
/// are reproducible and unit-testable. Header-only (like CostEwma and
/// should_explode below) so the real decoder in src/parallel can share the
/// exact policy arithmetic without a link dependency on pmp2_sched.
[[nodiscard]] inline std::vector<int> steal_order(int self, int workers) {
  std::vector<int> out;
  if (workers <= 1) return out;
  out.reserve(static_cast<std::size_t>(workers - 1));
  for (int i = 1; i < workers; ++i) {
    out.push_back((self + i) % workers);
  }
  return out;
}

/// Dispatch policy knobs for the hybrid decoder and its simulator.
struct AdaptivePolicy {
  /// Explode a GOP when fewer than this many GOP tasks are queued across
  /// all deques (the pipeline is shallow, so latency wins over locality).
  /// 0 = use the worker count, the natural "can everyone stay busy" depth.
  int depth_threshold = 0;

  /// Explode a GOP whose predicted cost exceeds this multiple of the
  /// average completed-GOP cost (a straggler that would gate the display
  /// tail if run whole). The predictor is an online EWMA of ns per coded
  /// byte times the GOP's bytes — the runtime analogue of the calibrated
  /// units x ns_per_unit cost model.
  double cost_factor = 2.0;

  [[nodiscard]] int effective_depth(int workers) const {
    return depth_threshold > 0 ? depth_threshold : workers;
  }
};

/// Online cost predictor: EWMA of observed ns per coded byte. Starts
/// unknown (predict() returns -1 until the first observation), which the
/// policy treats as "explode" — the latency-safe default before any
/// calibration exists. Pure arithmetic, shared verbatim by the simulator
/// and the real decoder so the sweeps predict the shipped behavior.
class CostEwma {
 public:
  explicit CostEwma(double alpha = 0.3) : alpha_(alpha) {}

  void observe(std::int64_t cost_ns, std::uint64_t bytes) {
    if (bytes == 0 || cost_ns <= 0) return;
    const double r = static_cast<double>(cost_ns) / static_cast<double>(bytes);
    ns_per_byte_ = ns_per_byte_ < 0 ? r
                                    : (1.0 - alpha_) * ns_per_byte_ +
                                          alpha_ * r;
    total_ns_ += cost_ns;
    ++observations_;
  }

  /// Predicted cost of a task of `bytes` coded bytes; -1 while uncalibrated.
  [[nodiscard]] std::int64_t predict(std::uint64_t bytes) const {
    if (ns_per_byte_ < 0) return -1;
    return static_cast<std::int64_t>(ns_per_byte_ *
                                     static_cast<double>(bytes));
  }

  /// Mean observed task cost; -1 while uncalibrated.
  [[nodiscard]] std::int64_t average_ns() const {
    return observations_ > 0 ? total_ns_ / observations_ : -1;
  }

  [[nodiscard]] int observations() const { return observations_; }

 private:
  double alpha_;
  double ns_per_byte_ = -1.0;
  std::int64_t total_ns_ = 0;
  int observations_ = 0;
};

/// The dispatch decision, factored out of both the simulator and the real
/// decoder: explode iff the ready queue is shallow, the GOP is a predicted
/// straggler, or no calibration exists yet.
[[nodiscard]] inline bool should_explode(const AdaptivePolicy& policy,
                                         int workers, int queued_gops,
                                         const CostEwma& ewma,
                                         std::uint64_t gop_bytes) {
  if (queued_gops < policy.effective_depth(workers)) return true;
  const std::int64_t predicted = ewma.predict(gop_bytes);
  const std::int64_t avg = ewma.average_ns();
  if (predicted < 0 || avg < 0) return true;  // uncalibrated: latency-safe
  return static_cast<double>(predicted) >
         policy.cost_factor * static_cast<double>(avg);
}

/// Simulates the adaptive hybrid decoder: GOP tasks arrive from the scan
/// into per-worker deques; each pop dispatches whole or exploded per
/// `policy`; idle workers backfill exploded slices and steal queued GOPs.
/// Fills SimResult's adaptive accounting (gop_mode_gops, exploded_gops,
/// stolen_tasks) and the frame-latency objective.
[[nodiscard]] SimResult simulate_adaptive(const StreamProfile& profile,
                                          const SimConfig& config,
                                          const AdaptivePolicy& policy);

}  // namespace pmp2::sched
