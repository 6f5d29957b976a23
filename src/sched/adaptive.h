// Dispatch granularity and the adaptive policy, shared by the engine and
// the simulator.
//
// The paper fixes parallel granularity per experiment: GOP tasks for
// throughput (Fig. 5), slice tasks for latency (Fig. 11). The adaptive
// policy chooses per GOP at dispatch time — run the GOP whole when the
// pipeline is deep (plenty of ready GOPs to keep every worker busy), or
// explode it into finer tasks when the queue is shallow or the GOP is
// predicted to be a straggler, so all workers cooperate on the frames that
// gate display.
//
// The real engine (the DecodeServer claim loop in src/serve/server.cpp,
// which the GOP, adaptive and slice decoders run as one-session façades)
// keeps one FIFO of scanned GOPs per session and decides with CostEwma and
// should_explode() below; sched::simulate (sim.h) models the same FIFO in
// virtual time. Header-only, so the engine in src/serve shares it without
// a link dependency on pmp2_sched.
#pragma once

#include <cstdint>

namespace pmp2::sched {

/// What a GOP popped from the queue becomes. kWholeGop never explodes (the
/// paper's §5.1 GOP decoder); kAdaptive asks should_explode, and an
/// exploded GOP becomes a picture chain of its own, one task per picture;
/// kSlice opens every scanned GOP's pictures in decode order along one
/// session-wide chain and decodes each as macroblock-row tasks (the
/// paper's §5.2 slice decoder). sched::simulate models both kinds of
/// chain the same way.
enum class Granularity : std::uint8_t { kAdaptive, kWholeGop, kSlice };

/// Dispatch policy knobs for the adaptive granularity.
struct AdaptivePolicy {
  /// Explode a GOP when fewer than this many GOP tasks are queued (the
  /// pipeline is shallow, so latency wins over locality). 0 = use the
  /// worker count, the natural "can everyone stay busy" depth.
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

/// The dispatch decision, shared by the simulator and the real decoder:
/// explode iff the ready queue is shallow, the GOP is a predicted
/// straggler, or no calibration exists yet. Callers count the GOP being
/// decided in `queued_gops`.
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

}  // namespace pmp2::sched
