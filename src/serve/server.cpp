#include "serve/server.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>

#include "mpeg2/structure_scan.h"
#include "obs/live/telemetry.h"
#include "obs/metrics.h"
#include "obs/prof/stage_prof.h"
#include "obs/tracer.h"
#include "parallel/display.h"
#include "parallel/gop_work.h"
#include "parallel/worker_pool.h"
#include "sched/adaptive.h"
#include "sched/fairness.h"
#include "serve/engine.h"
#include "util/timer.h"

namespace pmp2::serve {

namespace {

/// Sync waits shorter than this are not worth a trace span; they still
/// count toward sync_ns.
constexpr std::int64_t kMinWaitSpanNs = 1'000;

/// One GOP as a session's scheduler tracks it. Scan-time fields are
/// immutable after push; the exploded block is built under the server
/// mutex when the dispatch decision explodes the GOP. `enqueue_ns` is what
/// the queue-inclusive latency histogram is measured from.
struct GopEntry {
  mpeg2::GopInfo info;
  int index = 0;
  int display_base = 0;
  std::uint64_t bytes = 0;
  std::int64_t enqueue_ns = 0;

  // --- Exploded state (latency mode) ---
  bool exploded = false;
  std::vector<int> ranks;   // display_ranks (quarantine only)
  std::vector<int> newest;  // per picture: newest non-B before it (-1 none)
  std::vector<int> older;   // per picture: the non-B before that (-1 none)
  std::vector<std::uint8_t> state;  // 0 unclaimed, 1 running, 2 complete
  std::vector<mpeg2::FramePtr> frames;  // completed pictures (ref retention)
  int completed = 0;
  bool damaged = false;
  std::int64_t cost_ns = 0;  // accumulated task CPU time (EWMA feedback)
};

/// Binds a stage-profiler slot to the calling thread for its lifetime.
class ProfBinding {
 public:
  ProfBinding(obs::prof::StageProfiler* prof, int slot)
      : prof_(prof ? prof->bind(slot) : nullptr) {}
  ~ProfBinding() {
    if (prof_) obs::prof::StageProfiler::unbind();
  }
  ProfBinding(const ProfBinding&) = delete;
  ProfBinding& operator=(const ProfBinding&) = delete;

  [[nodiscard]] obs::prof::WorkerProf* get() const { return prof_; }

 private:
  obs::prof::WorkerProf* prof_;
};

struct Session;

/// What one cross-session claim hands a worker. `gop` is resolved while
/// the server mutex is held: entries live in a std::deque whose *element*
/// addresses are stable, but re-indexing the deque unlocked would race
/// the producer's concurrent push_back on the deque's internal block map
/// — workers must go through this pointer, never s.entries[entry].
struct Claim {
  enum class Kind { kWholeGop, kPicture } kind = Kind::kWholeGop;
  Session* session = nullptr;
  GopEntry* gop = nullptr;
  int entry = -1;
  int pic = -1;
  int ranked_display = -1;
  std::int64_t charged_ns = 0;  // predicted cost debited at claim time
  mpeg2::FramePtr fwd, bwd;
};

struct Session {
  SessionId id = 0;
  SessionConfig cfg;
  StreamLoadProfile profile;
  std::span<const std::uint8_t> stream;
  AdmissionDecision decision = AdmissionDecision::kReject;
  SessionState state = SessionState::kQueued;

  // Decode context (created by the producer at start).
  mpeg2::StreamStructure structure;
  std::optional<mpeg2::FramePool> pool;
  std::optional<parallel::DisplaySink> display;
  std::atomic<int> concealed{0};
  std::atomic<int> concealed_pics{0};
  std::atomic<int> quarantined{0};
  parallel::ErrorLog errors;
  parallel::GopObs gobs;
  obs::live::SessionSurface* surface = nullptr;
  /// The session's telemetry: the surface's cells, or the façade's own.
  obs::live::LiveTelemetry* live = nullptr;
  std::int64_t scan_ns = 0;  // producer-only until finalize

  // Scheduler state, guarded by the server mutex.
  std::deque<GopEntry> entries;  // stable addresses
  std::deque<int> queue;         // queued whole-GOP entry ids
  std::vector<int> active;       // exploded, incomplete entry ids (sorted)
  int pushed = 0;
  int completed_gops = 0;
  int queued_gops = 0;  // entries sitting in `queue`
  int in_flight = 0;    // claims handed out, not yet finished
  int gop_mode_gops = 0;
  int exploded_gops = 0;
  bool scan_done = false;
  bool scan_ok = true;
  bool cancel_requested = false;
  bool aborted = false;  // unrecoverable decode/scan failure
  bool hung = false;
  int total_pictures = 0;
  std::int64_t served_ns = 0;
  /// Fairness ledger seed at admission (sched::virtual_start): subtracted
  /// back out when reporting, so SessionResult::served_ns stays pure pool
  /// CPU time.
  std::int64_t virtual_start_ns = 0;

  std::int64_t submit_ns = 0;
  std::int64_t start_ns = -1;
  std::int64_t finish_ns = -1;

  // Display-order enqueue timestamps feeding the latency histogram; the
  // producer appends under latency_mutex, the display emitter reads.
  std::mutex latency_mutex;
  std::vector<std::int64_t> enqueue_by_display;

  SessionResult result;
  bool result_ready = false;

  std::jthread producer;  // joined when the Session is destroyed

  [[nodiscard]] bool terminal() const {
    return state == SessionState::kFinished ||
           state == SessionState::kCancelled ||
           state == SessionState::kFailed ||
           state == SessionState::kRejected;
  }
  /// Work the pool could still be handed (or is holding) for this session.
  [[nodiscard]] bool pending_work() const {
    return state == SessionState::kRunning &&
           (!queue.empty() || !active.empty() || in_flight > 0);
  }
  [[nodiscard]] bool runnable() const {
    if (state != SessionState::kRunning || cancel_requested || aborted ||
        hung) {
      return false;
    }
    if (!queue.empty()) return true;
    return !active.empty();  // refined by has_ready_picture at claim time
  }
};

}  // namespace

std::string_view session_state_name(SessionState s) {
  switch (s) {
    case SessionState::kQueued:
      return "queued";
    case SessionState::kRunning:
      return "running";
    case SessionState::kFinished:
      return "finished";
    case SessionState::kCancelled:
      return "cancelled";
    case SessionState::kFailed:
      return "failed";
    case SessionState::kRejected:
      return "rejected";
  }
  return "?";
}

namespace {

/// The one GOP dispatch engine: the public DecodeServer runs it with no
/// hooks; the single-stream decoder façades run one hooked session on a
/// private instance (detail::run_one_session).
struct Engine {
  explicit Engine(const ServerConfig& config,
                  detail::EngineHooks hooks = {})
      : config_(config),
        hooks_(std::move(hooks)),
        admission_(config.admission, config.workers),
        surfaces_(config.workers) {
    policy_.depth_threshold = config.depth_threshold;
    policy_.cost_factor = config.cost_factor;
    worker_stats_.resize(static_cast<std::size_t>(config.workers));
    pool_.start(config.workers, [this](int w) { worker_main(w); });
  }

  ~Engine() { shutdown(); }

  /// Cancels whatever is not terminal, drains, and joins the pool.
  /// Idempotent; sessions themselves die with the engine (their producers
  /// join in ~Session).
  void shutdown() {
    {
      const std::scoped_lock lock(mutex_);
      for (auto& s : sessions_) {
        if (s && !s->terminal()) request_cancel_locked(*s);
      }
    }
    drain();
    {
      const std::scoped_lock lock(mutex_);
      stop_ = true;
      ++epoch_;
      cv_.notify_all();
    }
    pool_.join();
  }

  // ----- Submission / lifecycle ------------------------------------------

  SessionId submit(std::span<const std::uint8_t> stream,
                   SessionConfig cfg) {
    StreamLoadProfile profile = characterize_stream(stream);
    std::unique_lock lock(mutex_);
    const SessionId id = static_cast<SessionId>(sessions_.size());
    auto owned = std::make_unique<Session>();
    Session& s = *owned;
    s.id = id;
    if (cfg.name.empty()) cfg.name = "session-" + std::to_string(id);
    s.cfg = std::move(cfg);
    s.profile = profile;
    s.stream = stream;
    s.submit_ns = timer_.elapsed_ns();
    s.decision = stop_ ? AdmissionDecision::kReject
                       : admission_.decide(profile);
    sessions_.push_back(std::move(owned));
    switch (s.decision) {
      case AdmissionDecision::kAdmit:
        admission_.admit(s.profile);
        start_session_locked(s);
        break;
      case AdmissionDecision::kQueue:
        admission_.enqueue();
        wait_list_.push_back(id);
        break;
      case AdmissionDecision::kReject:
        s.state = SessionState::kRejected;
        s.finish_ns = timer_.elapsed_ns();
        s.result.state = s.state;
        s.result.profile = s.profile;
        s.result_ready = true;
        break;
    }
    ++epoch_;
    cv_.notify_all();
    return id;
  }

  bool cancel(SessionId id) {
    const std::scoped_lock lock(mutex_);
    Session* s = find_locked(id);
    if (!s || s->terminal()) return false;
    request_cancel_locked(*s);
    ++epoch_;
    cv_.notify_all();
    return true;
  }

  SessionResult wait(SessionId id) {
    std::unique_lock lock(mutex_);
    // Re-resolve inside the predicate: a concurrent forget() may free the
    // Session between a notify and this thread reacquiring the lock.
    Session* s = nullptr;
    cv_.wait(lock, [&] {
      s = find_locked(id);
      return !s || s->result_ready;
    });
    if (s) return s->result;
    SessionResult stub;
    const auto it = forgotten_.find(id);
    if (it != forgotten_.end()) stub.state = it->second.state;
    return stub;
  }

  bool forget(SessionId id) {
    std::unique_ptr<Session> victim;
    {
      const std::scoped_lock lock(mutex_);
      Session* s = find_locked(id);
      if (!s || !s->result_ready) return false;
      forgotten_.emplace(id, Tombstone{s->state, s->decision});
      victim = std::move(sessions_[static_cast<std::size_t>(id)]);
    }
    // The producer is already past finalize (result_ready), so destroying
    // the Session outside the lock joins an exiting thread. The surface
    // goes last: nothing references it once the Session is gone.
    victim.reset();
    surfaces_.close(id);
    return true;
  }

  void drain() {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [&] {
      for (const auto& s : sessions_) {
        if (s && !s->result_ready) return false;  // forgotten => was ready
      }
      return true;
    });
  }

  SessionState state(SessionId id) const {
    const std::scoped_lock lock(mutex_);
    if (const Session* s = find_locked(id)) return s->state;
    const auto it = forgotten_.find(id);
    return it != forgotten_.end() ? it->second.state
                                  : SessionState::kRejected;
  }

  AdmissionDecision decision(SessionId id) const {
    const std::scoped_lock lock(mutex_);
    if (const Session* s = find_locked(id)) return s->decision;
    const auto it = forgotten_.find(id);
    return it != forgotten_.end() ? it->second.decision
                                  : AdmissionDecision::kReject;
  }

  parallel::WorkerLoadSummary load_summary() const {
    std::vector<std::int64_t> busy, sync;
    {
      const std::scoped_lock lock(mutex_);
      for (const auto& ws : worker_stats_) {
        busy.push_back(ws.compute_ns);
        sync.push_back(ws.sync_ns);
      }
    }
    return parallel::summarize_load(busy, sync);
  }

  // ----- Internals -------------------------------------------------------

  Session* find_locked(SessionId id) {
    if (id < 0 || id >= static_cast<SessionId>(sessions_.size())) {
      return nullptr;
    }
    return sessions_[static_cast<std::size_t>(id)].get();
  }
  const Session* find_locked(SessionId id) const {
    return const_cast<Engine*>(this)->find_locked(id);
  }

  void start_session_locked(Session& s) {
    // Start-time fair queueing: seed the arrival's service ledger at the
    // running sessions' minimum, so it competes from "now" instead of
    // monopolizing the pool until its lifetime total catches up.
    shares_.clear();
    for (const auto& other : sessions_) {
      if (!other || other.get() == &s) continue;
      if (other->state != SessionState::kRunning) continue;
      sched::FairShare share;
      share.weight = other->cfg.weight;
      share.served_ns = other->served_ns;
      shares_.push_back(share);
    }
    s.virtual_start_ns = sched::virtual_start(s.cfg.weight, shares_);
    s.served_ns = s.virtual_start_ns;
    s.state = SessionState::kRunning;
    s.start_ns = timer_.elapsed_ns();
    s.surface = &surfaces_.open(s.id, s.cfg.name);
    s.live = hooks_.live ? hooks_.live : &s.surface->live;
    s.producer = std::jthread([this, &s] { producer_main(s); });
  }

  void request_cancel_locked(Session& s) {
    if (s.state == SessionState::kQueued) {
      // Still in the admission wait list: remove and finish immediately.
      wait_list_.erase(std::find(wait_list_.begin(), wait_list_.end(), s.id));
      admission_.dequeue();
      s.cancel_requested = true;
      s.state = SessionState::kCancelled;
      s.finish_ns = timer_.elapsed_ns();
      s.result.state = s.state;
      s.result.profile = s.profile;
      s.result.queued_s =
          static_cast<double>(s.finish_ns - s.submit_ns) / 1e9;
      s.result_ready = true;
      return;
    }
    if (s.state != SessionState::kRunning) return;
    s.cancel_requested = true;
    purge_session_queue_locked(s);
  }

  /// Drops every unstarted task of `s` so the pool stops serving it:
  /// queued whole GOPs leave the queue, unclaimed pictures of exploded
  /// GOPs are marked complete without a frame. In-flight tasks finish on
  /// their own; their frames are released at entry completion as usual.
  void purge_session_queue_locked(Session& s) {
    queued_total_ -= static_cast<int>(s.queue.size());
    if (s.live) {
      s.live->add_queue_depth(-static_cast<std::int64_t>(s.queue.size()));
    }
    s.queue.clear();
    s.queued_gops = 0;
    for (auto it = s.active.begin(); it != s.active.end();) {
      GopEntry& e = s.entries[static_cast<std::size_t>(*it)];
      for (std::size_t i = 0; i < e.state.size(); ++i) {
        if (e.state[i] == 0) {
          e.state[i] = 2;
          ++e.completed;
        }
      }
      if (e.completed == static_cast<int>(e.info.pictures.size())) {
        e.frames.clear();
        ++s.completed_gops;
        it = s.active.erase(it);
      } else {
        ++it;  // in-flight pictures remain; finish_picture completes it
      }
    }
    ++epoch_;
    cv_.notify_all();
  }

  // --- Producer: one per running session (scan + lifecycle). -------------

  void producer_main(Session& s) {
    obs::Tracer* const tracer = hooks_.tracer;
    const int scan_track = config_.workers;
    const ProfBinding prof(hooks_.prof, scan_track);
    WallTimer preamble_timer;
    std::int64_t span_begin = tracer ? tracer->now_ns() : 0;
    mpeg2::StructureScanner scanner(s.stream);
    const bool preamble_ok = scanner.scan_preamble();
    s.scan_ns = preamble_timer.elapsed_ns();
    if (tracer) {
      tracer->emit(scan_track, obs::SpanKind::kScan, span_begin,
                   tracer->now_ns());
    }
    if (!preamble_ok) {
      // Admission validated the preamble, so this is defensive only.
      const std::scoped_lock lock(mutex_);
      s.aborted = true;
      finalize_locked(s);
      return;
    }
    s.structure.seq = scanner.seq();
    s.structure.ext = scanner.ext();
    s.structure.mpeg1 = scanner.mpeg1();
    s.structure.valid = true;
    // No reserve() warm-up: the teardown leak proof is the exact invariant
    // idle == misses (every frame ever allocated is back in the free
    // list), and reserve's uncounted allocations would blur it.
    s.pool.emplace(s.structure.seq.horizontal_size,
                   s.structure.seq.vertical_size, hooks_.tracker);
    s.display.emplace([this, &s](mpeg2::FramePtr frame) {
      record_latency(s, *frame);
      if (hooks_.on_frame) hooks_.on_frame(std::move(frame));
    });
    s.display->set_live(s.live);
    s.gobs.tracer = tracer;
    s.gobs.conceal_errors = s.cfg.quarantine_gops || hooks_.conceal_errors;
    s.gobs.quarantine = s.cfg.quarantine_gops;
    s.gobs.concealed = &s.concealed;
    s.gobs.concealed_pics = &s.concealed_pics;
    s.gobs.quarantined = &s.quarantined;
    s.gobs.errors = s.cfg.quarantine_gops ? &s.errors : nullptr;
    s.gobs.h_resync = hooks_.h_resync;
    s.gobs.live = s.live;

    // Scan loop: stream GOPs into the session queue with backpressure.
    int index = 0;
    for (;;) {
      WallTimer gop_timer;
      span_begin = tracer ? tracer->now_ns() : 0;
      mpeg2::GopInfo gop;
      bool have;
      {
        const obs::prof::StageScope scan_stage(obs::prof::Stage::kScan);
        have = scanner.next_gop(gop);
      }
      s.scan_ns += gop_timer.elapsed_ns();
      if (tracer) {
        tracer->emit(scan_track, obs::SpanKind::kScan, span_begin,
                     tracer->now_ns(), -1, -1, index);
      }
      {
        obs::live::TelemetryCell::Write lw(s.live->scan());
        lw.set_bytes(static_cast<std::int64_t>(scanner.position()));
      }
      std::unique_lock lock(mutex_);
      if (s.cancel_requested || s.aborted || s.hung) break;
      if (!have) {
        s.scan_ok = !scanner.failed() && index > 0;
        if (scanner.failed() && s.cfg.quarantine_gops) {
          s.errors.add({parallel::RecoveryCause::kScanTruncated, index, -1,
                        scanner.position()});
          if (scanner.failed_in_gop() && !gop.pictures.empty()) {
            push_gop_locked(s, std::move(gop), index, lock);
            ++index;
          }
          s.scan_ok = s.total_pictures > 0;
        }
        break;
      }
      if (!gop.closed) {
        if (!s.cfg.quarantine_gops) {
          s.scan_ok = false;
          break;
        }
        s.errors.add(
            {parallel::RecoveryCause::kOpenGop, index, -1, gop.offset});
      }
      push_gop_locked(s, std::move(gop), index, lock);
      ++index;
    }
    if (prof.get()) {
      obs::live::TelemetryCell::Write lw(s.live->scan());
      lw.add_counters(prof.get()->take_task_delta());
    }

    // Lifecycle tail: publish the total, wait for the pool to finish the
    // session's work, then drain the display and finalize.
    bool wait_display = false;
    {
      std::unique_lock lock(mutex_);
      s.scan_done = true;
      ++epoch_;
      cv_.notify_all();
      cv_.wait(lock, [&] {
        if (s.aborted || s.hung) return s.in_flight == 0;
        if (s.cancel_requested) return s.in_flight == 0;
        return s.completed_gops == s.pushed && s.in_flight == 0;
      });
      wait_display = !s.cancel_requested && !s.aborted && !s.hung &&
                     s.scan_ok;
      if (wait_display) s.display->set_total(s.total_pictures);
    }
    if (wait_display &&
        !s.display->wait_done_for(config_.watchdog_ns)) {
      const std::scoped_lock lock(mutex_);
      s.hung = true;
      s.errors.add({parallel::RecoveryCause::kDisplayTimeout, -1, -1, 0});
    }
    const std::scoped_lock lock(mutex_);
    finalize_locked(s);
  }

  /// Appends one scanned GOP, blocking while the session's bounded queue
  /// is full (per-session backpressure; the pool keeps serving everyone
  /// else meanwhile).
  void push_gop_locked(Session& s, mpeg2::GopInfo&& gop, int index,
                       std::unique_lock<std::mutex>& lock) {
    if (s.cfg.max_queued_gops > 0) {
      obs::Tracer* const tracer = hooks_.tracer;
      const std::int64_t span_begin = tracer ? tracer->now_ns() : 0;
      WallTimer blocked;
      cv_.wait(lock, [&] {
        return s.queued_gops < static_cast<int>(s.cfg.max_queued_gops) ||
               s.cancel_requested || s.aborted || s.hung || stop_;
      });
      const std::int64_t blocked_ns = blocked.elapsed_ns();
      if (blocked_ns > 0) {
        obs::live::TelemetryCell::Write lw(s.live->scan());
        lw.add_backpressure_ns(blocked_ns);
      }
      if (tracer && blocked_ns >= kMinWaitSpanNs) {
        tracer->emit(config_.workers, obs::SpanKind::kBackpressure,
                     span_begin, span_begin + blocked_ns);
      }
    }
    if (s.cancel_requested || s.aborted || s.hung || stop_) return;
    const int id = static_cast<int>(s.entries.size());
    s.entries.emplace_back();
    GopEntry& e = s.entries.back();
    e.info = std::move(gop);
    e.index = index;
    e.display_base = s.total_pictures;
    e.bytes = e.info.end_offset - e.info.offset;
    e.enqueue_ns = timer_.elapsed_ns();
    const int pics = static_cast<int>(e.info.pictures.size());
    {
      const std::scoped_lock latency_lock(s.latency_mutex);
      s.enqueue_by_display.resize(
          static_cast<std::size_t>(s.total_pictures + pics), e.enqueue_ns);
    }
    s.total_pictures += pics;
    s.queue.push_back(id);
    ++s.queued_gops;
    ++s.pushed;
    ++queued_total_;
    s.live->add_queue_depth(1);
    {
      obs::live::TelemetryCell::Write lw(s.live->scan());
      lw.add_tasks().set_last_progress_ns(s.live->now_ns());
    }
    ++epoch_;
    cv_.notify_all();
  }

  void record_latency(Session& s, const mpeg2::Frame& frame) {
    std::int64_t enqueue = -1;
    {
      const std::scoped_lock lock(s.latency_mutex);
      if (frame.display_index >= 0 &&
          frame.display_index <
              static_cast<int>(s.enqueue_by_display.size())) {
        enqueue = s.enqueue_by_display[
            static_cast<std::size_t>(frame.display_index)];
      }
    }
    if (enqueue < 0) return;
    s.surface->queue_latency.record(timer_.elapsed_ns() - enqueue);
  }

  // --- Cross-session scheduling (the worker side). ------------------------

  bool claim(Claim& out, int worker) {
    parallel::WorkerStats& stats =
        worker_stats_[static_cast<std::size_t>(worker)];
    WallTimer waited;
    std::unique_lock lock(mutex_);
    for (;;) {
      if (stop_) break;
      if (try_claim_locked(out)) {
        stats.sync_ns += waited.elapsed_ns();
        return true;
      }
      if (config_.watchdog_ns > 0 && pending_work_locked()) {
        const std::uint64_t before = epoch_;
        const auto status = cv_.wait_for(
            lock, std::chrono::nanoseconds(config_.watchdog_ns));
        if (status == std::cv_status::timeout && epoch_ == before &&
            !stop_ && pending_work_locked()) {
          // No *scheduling* progress for a full period with work pending.
          // That alone is not a wedge: one legitimately long in-flight
          // decode with every other worker idle has exactly this
          // signature while still landing pictures. Fail only the
          // sessions watchdog_wedged condemns — claimable-but-unclaimed
          // work, or in-flight claims whose telemetry went silent for a
          // full period — never the server.
          for (auto& s : sessions_) {
            if (!s || !session_wedged_locked(*s)) continue;
            s->hung = true;
            s->errors.add(
                {parallel::RecoveryCause::kWatchdog, -1, -1, 0});
            purge_session_queue_locked(*s);  // bumps epoch_, notifies
          }
        }
      } else {
        cv_.wait(lock);
      }
    }
    stats.sync_ns += waited.elapsed_ns();
    return false;
  }

  [[nodiscard]] bool pending_work_locked() const {
    for (const auto& s : sessions_) {
      if (s && s->pending_work()) return true;
    }
    return false;
  }

  /// The session-level half of the watchdog: feeds watchdog_wedged the
  /// newest last_progress_ns across the session's telemetry cells (the
  /// workers land one per picture even inside a whole-GOP decode, the
  /// display one per emission).
  [[nodiscard]] bool session_wedged_locked(const Session& s) const {
    if (!s.pending_work()) return false;
    if (s.in_flight == 0 || !s.live) {
      return watchdog_wedged(true, s.in_flight, 0, 0, config_.watchdog_ns);
    }
    const auto& live = *s.live;
    std::int64_t last = live.scan().sample().last_progress_ns;
    for (int w = 0; w < live.workers(); ++w) {
      last = std::max(last, live.worker(w).sample().last_progress_ns);
    }
    last = std::max(last, live.display().sample().last_progress_ns);
    return watchdog_wedged(true, s.in_flight, live.now_ns(), last,
                           config_.watchdog_ns);
  }

  /// Fair pick, then intra-session dispatch: ready exploded pictures
  /// before queued whole GOPs (frames closest to display first), and the
  /// whole-vs-exploded decision at pop time from the *global* queue depth
  /// plus the shared cross-session CostEwma — the PR 9 dispatcher with
  /// its signal widened to the whole server.
  bool try_claim_locked(Claim& out) {
    shares_.clear();
    for (const auto& s : sessions_) {
      sched::FairShare share;  // forgotten slots stay non-runnable so the
      if (s) {                 // picked index still maps into sessions_
        share.weight = s->cfg.weight;
        share.served_ns = s->served_ns;
        share.runnable = s->runnable() && has_claimable_locked(*s);
      }
      shares_.push_back(share);
    }
    const int idx = sched::pick_session(shares_);
    if (idx < 0) return false;
    Session& s = *sessions_[static_cast<std::size_t>(idx)];
    // Ready exploded picture first, lowest entry id (closest to display).
    for (const int g : s.active) {
      GopEntry& e = s.entries[static_cast<std::size_t>(g)];
      for (int i = 0; i < static_cast<int>(e.info.pictures.size()); ++i) {
        if (pic_ready(e, i)) {
          fill_picture_claim(s, e, g, i, out);
          charge_claim_locked(s, out, e.bytes /
                                          e.info.pictures.size());
          return true;
        }
      }
    }
    const int g = s.queue.front();
    s.queue.pop_front();
    --s.queued_gops;
    --queued_total_;
    s.live->add_queue_depth(-1);
    dispatch_locked(s, g, out);
    return true;
  }

  [[nodiscard]] bool has_claimable_locked(const Session& s) const {
    if (!s.queue.empty()) return true;
    for (const int g : s.active) {
      const GopEntry& e = s.entries[static_cast<std::size_t>(g)];
      for (int i = 0; i < static_cast<int>(e.info.pictures.size()); ++i) {
        if (pic_ready(e, i)) return true;
      }
    }
    return false;
  }

  /// A picture is claimable once its GOP-private references are complete:
  /// every picture waits for the newest non-B before it (prediction source
  /// for P, future reference for B, concealment source under quarantine);
  /// B pictures additionally wait for the older one.
  static bool pic_ready(const GopEntry& e, int i) {
    if (e.state[static_cast<std::size_t>(i)] != 0) return false;
    const int nw = e.newest[static_cast<std::size_t>(i)];
    if (nw >= 0 && e.state[static_cast<std::size_t>(nw)] != 2) return false;
    if (e.info.pictures[static_cast<std::size_t>(i)].type ==
        mpeg2::PictureType::kB) {
      const int ol = e.older[static_cast<std::size_t>(i)];
      if (ol >= 0 && e.state[static_cast<std::size_t>(ol)] != 2) {
        return false;
      }
    }
    return true;
  }

  void fill_picture_claim(Session& s, GopEntry& e, int g, int i,
                          Claim& out) {
    e.state[static_cast<std::size_t>(i)] = 1;
    out.kind = Claim::Kind::kPicture;
    out.session = &s;
    out.gop = &e;
    out.entry = g;
    out.pic = i;
    const int nw = e.newest[static_cast<std::size_t>(i)];
    const int ol = e.older[static_cast<std::size_t>(i)];
    out.bwd = nw >= 0 ? e.frames[static_cast<std::size_t>(nw)] : nullptr;
    out.fwd = ol >= 0 ? e.frames[static_cast<std::size_t>(ol)] : nullptr;
    out.ranked_display =
        s.cfg.quarantine_gops
            ? e.display_base + e.ranks[static_cast<std::size_t>(i)]
            : -1;
  }

  /// The dispatch decision, at pop time, with the popped GOP still counted
  /// in the queue depth (matching simulate_adaptive). The whole-GOP
  /// granularity never explodes.
  void dispatch_locked(Session& s, int g, Claim& out) {
    GopEntry& e = s.entries[static_cast<std::size_t>(g)];
    const bool explode =
        hooks_.granularity == detail::Granularity::kAdaptive &&
        !e.info.pictures.empty() &&
        sched::should_explode(policy_, config_.workers, queued_total_ + 1,
                              ewma_, e.bytes);
    ++epoch_;
    if (explode) {
      ++s.exploded_gops;
      explode_entry(s, e);
      s.active.insert(
          std::lower_bound(s.active.begin(), s.active.end(), g), g);
      // The dispatching worker claims the GOP's first ready picture itself
      // (picture 0 has no intra-GOP references, so one is always ready).
      for (int i = 0; i < static_cast<int>(e.info.pictures.size()); ++i) {
        if (pic_ready(e, i)) {
          fill_picture_claim(s, e, g, i, out);
          break;
        }
      }
      charge_claim_locked(s, out,
                          e.bytes / std::max<std::size_t>(
                                        e.info.pictures.size(), 1));
    } else {
      ++s.gop_mode_gops;
      out.kind = Claim::Kind::kWholeGop;
      out.session = &s;
      out.gop = &e;
      out.entry = g;
      out.pic = -1;
      charge_claim_locked(s, out, e.bytes);
    }
    cv_.notify_all();  // a backpressured producer may resume
  }

  /// Debits the predicted cost at claim time so two claims between
  /// completions still spread fairly; finish_* settles the difference
  /// against the measured cost.
  void charge_claim_locked(Session& s, Claim& out, std::uint64_t bytes) {
    const std::int64_t predicted = ewma_.predict(bytes);
    out.charged_ns = predicted > 0 ? predicted : 0;
    s.served_ns += out.charged_ns;
    ++s.in_flight;
  }

  /// Builds the exploded block: the static non-B reference chain (scan
  /// picture types) mirrors decode_gop's rolling fwd/bwd state machine, so
  /// resolved references match the sequential path picture for picture —
  /// including quarantined reference pictures, whose synthesized frames
  /// feed later predictions exactly as in the whole-GOP task.
  void explode_entry(Session& s, GopEntry& e) {
    const std::size_t n = e.info.pictures.size();
    e.exploded = true;
    e.newest.assign(n, -1);
    e.older.assign(n, -1);
    e.state.assign(n, 0);
    e.frames.assign(n, nullptr);
    if (s.cfg.quarantine_gops) e.ranks = mpeg2::display_ranks(e.info);
    int older = -1, newest = -1;
    for (std::size_t i = 0; i < n; ++i) {
      e.newest[i] = newest;
      e.older[i] = older;
      if (e.info.pictures[i].type != mpeg2::PictureType::kB) {
        older = newest;
        newest = static_cast<int>(i);
      }
    }
  }

  void settle_claim_locked(Session& s, const Claim& claim,
                           std::int64_t task_ns) {
    s.served_ns += task_ns - claim.charged_ns;
    --s.in_flight;
  }

  void finish_whole(const Claim& claim, std::int64_t task_ns, bool ok) {
    const std::scoped_lock lock(mutex_);
    Session& s = *claim.session;
    ++epoch_;
    settle_claim_locked(s, claim, task_ns);
    if (!ok) {
      abort_session_locked(s);
    } else {
      ewma_.observe(task_ns, claim.gop->bytes);
      ++s.completed_gops;
    }
    cv_.notify_all();
  }

  void finish_picture(const Claim& claim, mpeg2::FramePtr frame,
                      std::int64_t task_ns, bool damaged, bool ok) {
    const std::scoped_lock lock(mutex_);
    Session& s = *claim.session;
    ++epoch_;
    settle_claim_locked(s, claim, task_ns);
    if (!ok) {
      abort_session_locked(s);
      cv_.notify_all();
      return;
    }
    GopEntry& e = *claim.gop;
    e.frames[static_cast<std::size_t>(claim.pic)] = std::move(frame);
    e.state[static_cast<std::size_t>(claim.pic)] = 2;
    e.cost_ns += task_ns;
    if (damaged) e.damaged = true;
    if (++e.completed == static_cast<int>(e.info.pictures.size())) {
      if (e.damaged) s.quarantined.fetch_add(1, std::memory_order_relaxed);
      ewma_.observe(e.cost_ns, e.bytes);
      const auto it = std::find(s.active.begin(), s.active.end(),
                                claim.entry);
      if (it != s.active.end()) s.active.erase(it);
      e.frames.clear();  // return reference frames to the session pool
      ++s.completed_gops;
    }
    cv_.notify_all();
  }

  void abort_session_locked(Session& s) {
    s.aborted = true;
    purge_session_queue_locked(s);
  }

  /// Terminal-state bookkeeping. The heavyweight teardown (display,
  /// entries, pool) happens here too: by the time finalize runs, the
  /// session has no in-flight work, so no worker touches its state.
  void finalize_locked(Session& s) {
    s.finish_ns = timer_.elapsed_ns();
    SessionResult& r = s.result;
    r.profile = s.profile;
    r.pictures = s.total_pictures;
    r.pictures_delivered = s.display ? s.display->emitted() : 0;
    r.hung = s.hung;
    r.served_ns = s.served_ns - s.virtual_start_ns;
    r.gop_mode_gops = s.gop_mode_gops;
    r.exploded_gops = s.exploded_gops;
    r.concealed_slices = s.concealed.load(std::memory_order_relaxed);
    r.concealed_pictures = s.concealed_pics.load(std::memory_order_relaxed);
    r.quarantined_gops = s.quarantined.load(std::memory_order_relaxed);
    s.errors.drain(r.errors, r.errors_dropped);
    if (s.start_ns >= 0) {
      r.wall_s = static_cast<double>(s.finish_ns - s.start_ns) / 1e9;
      r.queued_s = static_cast<double>(s.start_ns - s.submit_ns) / 1e9;
    }
    if (s.surface) r.latency = s.surface->queue_latency.snapshot();
    if (s.hung || s.aborted || (!s.scan_ok && !s.cancel_requested)) {
      s.state = SessionState::kFailed;
    } else if (s.cancel_requested) {
      s.state = SessionState::kCancelled;
    } else {
      s.state = SessionState::kFinished;
      r.ok = true;
      r.checksum = s.display->checksum();
    }
    r.state = s.state;
    // Teardown order matters for the leak proof: the display's reorder
    // buffer and the entries' reference frames go back to the pool first,
    // then the pool's counters are read.
    s.entries.clear();
    s.display.reset();
    if (s.pool) {
      r.pool_hits = s.pool->hits();
      r.pool_misses = s.pool->misses();
      r.pool_idle = s.pool->idle_count();
      s.pool.reset();
    }
    s.result_ready = true;
    // This session's load is free; maybe the wait list fits now.
    if (s.decision == AdmissionDecision::kAdmit ||
        s.decision == AdmissionDecision::kQueue) {
      admission_.release(s.profile);
    }
    admit_from_wait_list_locked();
    ++epoch_;
    cv_.notify_all();
  }

  void admit_from_wait_list_locked() {
    while (!wait_list_.empty()) {
      Session* next = find_locked(wait_list_.front());
      if (!next) break;
      // Same work-conserving rule as decide(): an idle server admits the
      // head of the queue even when its load alone exceeds capacity.
      if (!admission_.fits(next->profile) && admission_.running() > 0) {
        break;
      }
      wait_list_.pop_front();
      admission_.dequeue();
      admission_.admit(next->profile);
      start_session_locked(*next);
    }
  }

  // --- Worker main loop ---------------------------------------------------

  void worker_main(int w) {
    parallel::WorkerStats& stats =
        worker_stats_[static_cast<std::size_t>(w)];
    obs::Tracer* const tracer = hooks_.tracer;
    const ProfBinding prof(hooks_.prof, w);
    for (;;) {
      const std::int64_t wait_begin = tracer ? tracer->now_ns() : 0;
      const std::int64_t sync_before = stats.sync_ns;  // this thread's
      Claim claim;
      const bool have = this->claim(claim, w);
      if (tracer) {
        const std::int64_t wait_end = tracer->now_ns();
        if (wait_end - wait_begin >= kMinWaitSpanNs) {
          tracer->emit(w, obs::SpanKind::kQueueWait, wait_begin, wait_end);
        }
      }
      if (!have) break;
      if (hooks_.h_wait) hooks_.h_wait->record(stats.sync_ns - sync_before);
      Session& s = *claim.session;
      const std::int64_t task_begin = tracer ? tracer->now_ns() : 0;
      ThreadCpuTimer cpu;
      // claim.gop was resolved under mutex_; never re-index s.entries
      // here — the producer may be push_back-ing the deque concurrently.
      // finish_* must stay the worker's LAST touch of the session: once
      // in_flight drops, the producer can finalize and a client's
      // forget() can free the Session and its surface.
      if (claim.kind == Claim::Kind::kWholeGop) {
        const GopEntry& e = *claim.gop;
        const parallel::GopTask task{&e.info, e.index, e.display_base,
                                     e.display_base};
        const bool ok = parallel::decode_gop(s.stream, s.structure, task,
                                             *s.pool, *s.display, stats,
                                             s.gobs, w);
        const std::int64_t task_ns = cpu.elapsed_ns();
        if (tracer) {
          tracer->emit(w, obs::SpanKind::kGopTask, task_begin,
                       tracer->now_ns(), -1, -1, e.index);
        }
        note_task(stats, s, w, task_ns, prof.get());
        finish_whole(claim, task_ns, ok);
      } else {
        const GopEntry& e = *claim.gop;
        const auto& info =
            e.info.pictures[static_cast<std::size_t>(claim.pic)];
        parallel::PictureOutcome out = parallel::decode_one_picture(
            s.stream, s.structure, info, e.index,
            e.display_base + claim.pic, e.display_base,
            claim.ranked_display, claim.fwd, claim.bwd, *s.pool,
            *s.display, stats, s.gobs, w);
        const std::int64_t task_ns = cpu.elapsed_ns();
        const bool ok = out.frame != nullptr;
        const bool damaged =
            out.quarantined ||
            (out.concealed_slices > 0 && s.cfg.quarantine_gops);
        // Drop the reference handles BEFORE finish_picture decrements
        // in_flight: the producer reads the pool's leak counters the
        // moment in_flight hits zero, and these two FramePtrs must be
        // back in the free list by then.
        claim.fwd.reset();
        claim.bwd.reset();
        note_task(stats, s, w, task_ns, prof.get());
        finish_picture(claim, std::move(out.frame), task_ns, damaged, ok);
      }
    }
  }

  void note_task(parallel::WorkerStats& stats, Session& s, int w,
                 std::int64_t task_ns, obs::prof::WorkerProf* prof) {
    {
      // load_summary() reads these under mutex_ from other threads.
      // note_task runs BEFORE finish_* settles the claim, so by the time
      // wait() can return, this accounting (and the surface write below)
      // has already landed — which is also what makes forget() safe.
      const std::scoped_lock lock(mutex_);
      stats.compute_ns += task_ns;
      ++stats.tasks;
    }
    if (hooks_.h_task) hooks_.h_task->record(task_ns);
    if (hooks_.m_tasks) hooks_.m_tasks->add();
    obs::live::TelemetryCell::Write lw(s.live->worker(w));
    lw.add_tasks().add_busy_ns(task_ns).set_sync_ns(stats.sync_ns);
    if (prof) lw.add_counters(prof->take_task_delta());
  }

  const ServerConfig config_;
  const detail::EngineHooks hooks_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  WallTimer timer_;  // server epoch for every timestamp
  AdmissionController admission_;
  obs::live::SessionSurfaces surfaces_;
  sched::AdaptivePolicy policy_;
  sched::CostEwma ewma_;  // cross-session cost signal
  /// Indexed by SessionId; forget() nulls a slot (ids are never reused)
  /// and leaves a tombstone so state()/decision() keep answering.
  struct Tombstone {
    SessionState state;
    AdmissionDecision decision;
  };
  std::deque<std::unique_ptr<Session>> sessions_;
  std::unordered_map<SessionId, Tombstone> forgotten_;
  std::deque<SessionId> wait_list_;
  std::vector<sched::FairShare> shares_;  // scratch for try_claim
  std::vector<parallel::WorkerStats> worker_stats_;
  int queued_total_ = 0;  // GOP tasks queued across all sessions
  std::uint64_t epoch_ = 0;
  bool stop_ = false;
  parallel::WorkerPool pool_;  // last member: joins before the rest dies
};

}  // namespace

struct DecodeServer::Impl : Engine {
  using Engine::Engine;
};

namespace detail {

OneSessionRun run_one_session(std::span<const std::uint8_t> stream,
                              const ServerConfig& config,
                              SessionConfig session, EngineHooks hooks) {
  Engine engine(config, std::move(hooks));
  const SessionId id = engine.submit(stream, std::move(session));
  OneSessionRun run;
  run.session = engine.wait(id);
  engine.shutdown();  // joins the pool: every worker's stats are final
  run.workers = engine.worker_stats_;
  run.epoch = static_cast<std::int64_t>(engine.epoch_);
  run.scan_s = static_cast<double>(engine.sessions_.front()->scan_ns) / 1e9;
  return run;
}

}  // namespace detail

DecodeServer::DecodeServer(const ServerConfig& config)
    : impl_(std::make_unique<Impl>(config)) {}

DecodeServer::~DecodeServer() = default;

SessionId DecodeServer::submit(std::span<const std::uint8_t> stream,
                               SessionConfig config) {
  return impl_->submit(stream, std::move(config));
}

SessionState DecodeServer::state(SessionId id) const {
  return impl_->state(id);
}

AdmissionDecision DecodeServer::decision(SessionId id) const {
  return impl_->decision(id);
}

bool DecodeServer::cancel(SessionId id) { return impl_->cancel(id); }

SessionResult DecodeServer::wait(SessionId id) { return impl_->wait(id); }

bool DecodeServer::forget(SessionId id) { return impl_->forget(id); }

void DecodeServer::drain() { impl_->drain(); }

obs::live::SessionSurfaces& DecodeServer::surfaces() {
  return impl_->surfaces_;
}

parallel::WorkerLoadSummary DecodeServer::load_summary() const {
  return impl_->load_summary();
}

const AdmissionController& DecodeServer::admission() const {
  return impl_->admission_;
}

int DecodeServer::workers() const { return impl_->config_.workers; }

}  // namespace pmp2::serve
