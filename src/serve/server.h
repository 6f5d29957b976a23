// DecodeServer: N concurrent MPEG-2 decode sessions multiplexed over one
// shared worker pool (ROADMAP item 1, docs/SERVING.md).
//
// Every decoder before this PR was one-shot: threads, buffers and lifetime
// all owned by a single decode() call. The server inverts that — one
// long-lived parallel::WorkerPool serves many sessions, each of which
// keeps the isolation-relevant state private:
//
//   * its own StructureScanner/StreamDemux producer thread (scan overlap
//     per session, bounded GOP queue with backpressure),
//   * its own FramePool and DisplaySink (frames and reordering never cross
//     sessions),
//   * its own quarantine/concealment state and ErrorLog (a corrupt
//     session's recovery is invisible to its neighbors — the isolation
//     guarantee the serve CI stage proves by checksum),
//   * its own obs::live::SessionSurface (per-session telemetry cells and
//     the queue-inclusive frame-latency histogram).
//
// Shared across sessions: the worker pool, the admission controller
// (bitrate/VBV predicted-load bookkeeping, serve/admission.h), the
// sched::pick_session fairness policy (weighted min-service), and the
// PR 9 adaptive dispatcher — should_explode() sees the queue depth summed
// over *all* sessions and one cross-session CostEwma, so a shallow global
// pipeline explodes GOPs for latency exactly as the single-stream
// adaptive decoder does.
//
// Teardown is graceful in both directions: wait() drains a session to its
// natural end; cancel() stops scheduling new work mid-GOP, lets in-flight
// tasks finish, and releases every pooled frame (SessionResult's pool
// counters let tests assert idle == misses — nothing leaked). A watchdog
// epoch spanning all sessions converts a wedged pipeline into per-session
// hung failures instead of a stuck server (watchdog_wedged below defines
// "wedged" — a long in-flight decode that keeps landing pictures is
// progress, not a wedge). Terminal sessions are retained until forget()
// releases them, so a long-lived server can bound its memory to the
// live set.
//
// The server's claim loop is the only GOP dispatch engine: the
// single-stream GopParallelDecoder and AdaptiveDecoder are one-session
// façades over it (serve/engine.h, serve/facades.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "obs/live/session_set.h"
#include "obs/metrics.h"
#include "parallel/stats.h"
#include "serve/admission.h"

namespace pmp2::serve {

using SessionId = int;

enum class SessionState : std::uint8_t {
  kQueued,     // admitted to the wait list, not yet running
  kRunning,    // producer scanning / workers decoding
  kFinished,   // completed (possibly degraded); result valid
  kCancelled,  // cancel() before completion; result valid
  kFailed,     // decode/scan failure with recovery off, or hung
  kRejected,   // admission refused (invalid stream or over capacity)
};

[[nodiscard]] std::string_view session_state_name(SessionState s);

/// Pure watchdog verdict for one session, evaluated only after a full
/// period in which the cross-session scheduling epoch never moved while
/// work was pending. With the epoch static, a session whose remaining
/// work is claimable (or blocked on dependencies) with no claims
/// outstanding is wedged: an idle worker sat through the whole period
/// without claiming it. A session with in-flight claims is judged by its
/// telemetry instead — one legitimately long whole-GOP decode keeps
/// landing pictures (last_progress_ns advances) even though the epoch
/// does not, and must not be failed. `now_ns` and `last_progress_ns` are
/// on the session surface's telemetry epoch; a session that never
/// progressed (-1) is measured from that epoch's origin.
[[nodiscard]] constexpr bool watchdog_wedged(bool pending_work,
                                             int in_flight,
                                             std::int64_t now_ns,
                                             std::int64_t last_progress_ns,
                                             std::int64_t watchdog_ns) {
  if (!pending_work) return false;
  if (in_flight == 0) return true;
  const std::int64_t last = last_progress_ns < 0 ? 0 : last_progress_ns;
  return now_ns - last >= watchdog_ns;
}

struct SessionConfig {
  std::string name;          // report/telemetry label ("" = "session-<id>")
  double weight = 1.0;       // fair-share weight (sched::FairShare)
  /// GOP tasks queued unstarted before the session's producer blocks
  /// (per-session backpressure; 0 = unbounded).
  std::size_t max_queued_gops = 4;
  /// Bounded recovery exactly as the single-stream decoders define it
  /// (docs/ROBUSTNESS.md): conceal + quarantine, blast radius one GOP.
  bool quarantine_gops = true;
};

/// Terminal snapshot of one session. Valid once the session reached a
/// terminal state (wait() returns it).
struct SessionResult {
  SessionState state = SessionState::kQueued;
  bool ok = false;         // kFinished and the stream decoded
  bool hung = false;       // watchdog/display deadline fired
  std::uint64_t checksum = 0;  // display-order digest (== solo-run value)
  int pictures = 0;            // pictures indexed by the scan
  int pictures_delivered = 0;  // emitted in display order
  double wall_s = 0.0;         // running time (admission to terminal)
  double queued_s = 0.0;       // time spent waiting for admission
  int concealed_slices = 0;
  int concealed_pictures = 0;
  int quarantined_gops = 0;
  int gop_mode_gops = 0;   // adaptive dispatch split for this session
  int exploded_gops = 0;
  std::int64_t served_ns = 0;  // pool CPU time charged (fairness ledger)
  // Frame-pool accounting at teardown: idle == misses proves every frame
  // the session ever allocated was returned before the pool died.
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  std::uint64_t pool_idle = 0;
  StreamLoadProfile profile;   // what admission predicted
  obs::HistogramSnapshot latency;  // queue-inclusive frame latency (ns)
  std::vector<parallel::ErrorRecord> errors;
  int errors_dropped = 0;

  [[nodiscard]] double pics_per_s() const {
    return wall_s > 0 ? pictures_delivered / wall_s : 0.0;
  }
};

struct ServerConfig {
  int workers = 4;
  AdmissionController::Config admission;  // capacity/max_sessions/max_queued
  /// Watchdog over the cross-session scheduling epoch and each session's
  /// display: a full period with pending work and no progress fails the
  /// affected sessions (never the server). 0 = off.
  std::int64_t watchdog_ns = 0;
  /// Adaptive dispatch knobs (sched::AdaptivePolicy); queue depth is
  /// summed across sessions.
  int depth_threshold = 0;
  double cost_factor = 2.0;
};

class DecodeServer {
 public:
  explicit DecodeServer(const ServerConfig& config);
  ~DecodeServer();  // cancels whatever still runs, then stops the pool

  DecodeServer(const DecodeServer&) = delete;
  DecodeServer& operator=(const DecodeServer&) = delete;

  /// Admission + session creation. `stream` must stay valid until the
  /// session reaches a terminal state (the server never copies it).
  /// Rejected submissions still return an id whose result says why.
  SessionId submit(std::span<const std::uint8_t> stream,
                   SessionConfig config);

  [[nodiscard]] SessionState state(SessionId id) const;

  /// Admission decision recorded at submit() time.
  [[nodiscard]] AdmissionDecision decision(SessionId id) const;

  /// Requests cancellation: queued sessions leave the wait list, running
  /// sessions stop scheduling new GOPs (in-flight tasks finish). False if
  /// the session was already terminal. wait() still returns the result.
  bool cancel(SessionId id);

  /// Blocks until the session is terminal; returns its result.
  SessionResult wait(SessionId id);

  /// Releases everything the server retains for a terminal session —
  /// the Session object (result, error log, latency bookkeeping) and its
  /// telemetry surface — so a long-lived server's memory tracks the live
  /// set instead of every session ever submitted. Returns false if the
  /// session is unknown, not yet terminal, or already forgotten. After
  /// forget(), state() and decision() still answer from a tombstone, but
  /// wait() returns only a stub carrying the terminal state, and any
  /// SessionSurface pointer obtained from surfaces() for this id is
  /// invalid. Sessions that are never forgotten are retained for the
  /// server's lifetime.
  bool forget(SessionId id);

  /// Blocks until every submitted session is terminal.
  void drain();

  /// Per-session telemetry surfaces (live cells + latency histograms).
  [[nodiscard]] obs::live::SessionSurfaces& surfaces();

  /// Pool-wide load summary over the shared workers (busy/sync/idle).
  [[nodiscard]] parallel::WorkerLoadSummary load_summary() const;

  [[nodiscard]] const AdmissionController& admission() const;
  [[nodiscard]] int workers() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace pmp2::serve
