// Dispatch granularity and the cost predictor, shared by the engine and
// the simulator.
//
// The paper fixes parallel granularity per experiment: GOP tasks for
// throughput (Fig. 5), slice tasks for latency (Fig. 11). The adaptive
// granularity needs no forecast to choose between them: every GOP is
// popped whole, and its remaining pictures are split into macroblock-row
// tasks only when a worker is idle — at pop time, or at any later picture
// boundary of the whole-GOP task (lazy splitting). A deep pipeline keeps
// every worker busy, so GOPs run whole; a shallow one, and the tail of
// every stream, leaves workers idle, so all of them cooperate on the
// picture that gates display. In a multi-session server a running session that holds no
// worker waits too, and a split hands it the next free one.
//
// The real engine (the DecodeServer claim loop in src/serve/server.cpp,
// which the GOP, adaptive and slice decoders run as one-session façades)
// keeps one FIFO of scanned GOPs per session and counts who waits;
// sched::simulate (sim.h) models the same FIFO and rule in virtual time
// for one stream, whose only waiters are idle workers.
// Header-only, so the engine in src/serve shares it without a link
// dependency on pmp2_sched.
#pragma once

#include <cstdint>

namespace pmp2::sched {

/// What a GOP popped from the queue becomes. kWholeGop never splits (the
/// paper's §5.1 GOP decoder); kAdaptive runs it whole until a worker is
/// idle, and a split GOP's remaining pictures become a picture chain of
/// its own; kSlice opens every scanned GOP's pictures in decode order
/// along one session-wide chain (the paper's §5.2 slice decoder). Every
/// chained picture decodes as macroblock-row tasks (one task for MPEG-1,
/// whose slices may span rows).
enum class Granularity : std::uint8_t { kAdaptive, kWholeGop, kSlice };

/// Online cost predictor: EWMA of observed ns per coded byte. Starts
/// unknown (predict() returns -1 until the first observation). The engine
/// debits a claim's predicted cost to its session's fairness ledger at
/// claim time.
class CostEwma {
 public:
  explicit CostEwma(double alpha = 0.3) : alpha_(alpha) {}

  void observe(std::int64_t cost_ns, std::uint64_t bytes) {
    if (bytes == 0 || cost_ns <= 0) return;
    const double r = static_cast<double>(cost_ns) / static_cast<double>(bytes);
    ns_per_byte_ = ns_per_byte_ < 0 ? r
                                    : (1.0 - alpha_) * ns_per_byte_ +
                                          alpha_ * r;
  }

  /// Predicted cost of a task of `bytes` coded bytes; -1 while uncalibrated.
  [[nodiscard]] std::int64_t predict(std::uint64_t bytes) const {
    if (ns_per_byte_ < 0) return -1;
    return static_cast<std::int64_t>(ns_per_byte_ *
                                     static_cast<double>(bytes));
  }

 private:
  double alpha_;
  double ns_per_byte_ = -1.0;
};

}  // namespace pmp2::sched
