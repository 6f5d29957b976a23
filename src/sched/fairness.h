// Cross-session fair scheduling policy for the multi-stream DecodeServer
// (src/serve, docs/SERVING.md).
//
// The server multiplexes N decode sessions over one shared worker pool.
// When a worker frees up, *which session's* work it claims decides whether
// a heavy 704x480 session can starve a 176x120 one. The policy here is
// weighted min-service ("start-time fair queueing" without the virtual
// clock): every session accumulates the CPU time the pool has spent on it,
// and a free worker always serves the runnable session with the least
// normalized service (served_ns / weight). Over any interval in which a
// set of sessions stays runnable, their service converges to the ratio of
// their weights — the max-min fairness property the simulate_fair_service
// harness (and tests/serve_test.cpp) validates in virtual time before the
// real server relies on it.
//
// Header-only pure arithmetic, like sched::CostEwma: the real server
// and the validation sim share this exact code, so the sim's fairness
// bounds are statements about the shipped scheduler.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace pmp2::sched {

/// One session as the fairness policy sees it.
struct FairShare {
  double weight = 1.0;              // relative share (admission may scale it)
  std::int64_t served_ns = 0;       // pool CPU time spent on this session
  bool runnable = false;            // has claimable work right now
};

/// Normalized service: the quantity the policy equalizes. A non-positive
/// weight is clamped to a minimal share so a misconfigured session starves
/// rather than divides by zero.
[[nodiscard]] inline double normalized_service(const FairShare& s) {
  const double w = s.weight > 0 ? s.weight : 1e-9;
  return static_cast<double>(s.served_ns) / w;
}

/// Virtual start for a session arriving while others already run (the
/// start-time half of start-time fair queueing): the arrival's served_ns
/// ledger is seeded to `weight` times the minimum normalized service over
/// the currently running sessions, so it competes from "now" rather than
/// from zero history. Without this, a session arriving into a long-lived
/// server holds the minimum normalized service until its lifetime total
/// catches up with neighbors that have run for minutes — every free
/// worker serves the newcomer and the veterans starve. Returns 0 when
/// nothing runs (an empty server has no "now" to catch up to).
[[nodiscard]] inline std::int64_t virtual_start(
    double weight, std::span<const FairShare> running) {
  bool any = false;
  double min_norm = 0.0;
  for (const FairShare& s : running) {
    const double n = normalized_service(s);
    if (!any || n < min_norm) {
      min_norm = n;
      any = true;
    }
  }
  if (!any || min_norm <= 0.0) return 0;
  const double w = weight > 0 ? weight : 1e-9;
  return static_cast<std::int64_t>(min_norm * w);
}

/// Index of the runnable session with the least normalized service; ties
/// break toward the lowest index (deterministic). -1 when nothing is
/// runnable.
[[nodiscard]] inline int pick_session(std::span<const FairShare> sessions) {
  int best = -1;
  double best_service = 0.0;
  for (int i = 0; i < static_cast<int>(sessions.size()); ++i) {
    const FairShare& s = sessions[static_cast<std::size_t>(i)];
    if (!s.runnable) continue;
    const double service = normalized_service(s);
    if (best < 0 || service < best_service) {
      best = i;
      best_service = service;
    }
  }
  return best;
}

/// Virtual-time validation harness for pick_session (no threads, no
/// clock): `workers` identical workers repeatedly claim fixed-cost tasks
/// from always-runnable sessions until `total_tasks` tasks ran. Returns
/// per-session served_ns. With every session runnable throughout, the
/// result must match the weight ratios to within one task's cost — the
/// bound tests/serve_test.cpp asserts.
struct FairSimResult {
  std::vector<std::int64_t> served_ns;
  std::vector<std::int64_t> tasks;
};

[[nodiscard]] FairSimResult simulate_fair_service(
    std::span<const double> weights, std::span<const std::int64_t> task_cost_ns,
    int workers, int total_tasks);

}  // namespace pmp2::sched
