#include "serve/server.h"

#include <algorithm>
#include <atomic>
#include <climits>
#include <condition_variable>
#include <deque>
#include <list>
#include <mutex>
#include <optional>
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
/// immutable after push; the rest is guarded by the server mutex.
/// `enqueue_ns` is what the queue-inclusive latency histogram is measured
/// from.
struct GopEntry {
  mpeg2::GopInfo info;
  int index = 0;
  int display_base = 0;
  std::uint64_t bytes = 0;
  std::int64_t enqueue_ns = 0;
  std::vector<int> ranks;  // display_ranks (quarantine only)

  int completed = 0;  // pictures complete (chained GOPs)
  bool damaged = false;
  std::int64_t cost_ns = 0;  // accumulated task CPU time (EWMA feedback)
};

/// One picture on a chain. Scheduling fields are guarded by the server
/// mutex. `work` is written by the opening worker before the picture's
/// rows become claimable, then by row tasks on disjoint rows, then by the
/// worker that closes it.
struct ChainPic {
  enum class State : std::uint8_t { kWaiting, kOpening, kOpen, kComplete };
  GopEntry* gop = nullptr;
  int pic = 0;      // index within the GOP
  int index = 0;    // index within the chain
  int newest = -1;  // its references, as chain indices (-1 none): the
  int older = -1;   // newest non-B before it and the non-B before that
  State state = State::kWaiting;
  int next_row = 0;
  int rows_done = 0;
  int concealed = 0;
  parallel::OpenPicture work;
  mpeg2::FramePtr fwd, bwd;  // pinned while open (work.ctx points at them)
  mpeg2::FramePtr frame;     // a completed reference picture, until retired
};

/// Pictures opened in decode order, each once its references are
/// complete: the slice granularity's session-wide chain, one GOP the
/// adaptive dispatcher exploded, or a whole-GOP task's private one. Each
/// shared chain's picture is `rows` tasks, one per macroblock row (one for
/// MPEG-1); the opener runs the first. A whole-GOP task decodes its
/// private chain's pictures whole and ignores `rows` until it hands the
/// chain over. A B frame is never retained, and a reference frame only
/// while a picture still to open may use it.
struct Chain {
  int rows = 1;            // tasks per picture
  int max_open = INT_MAX;  // pictures opening or open at once
  std::deque<ChainPic> pics;  // retired from the front (stable addresses)
  int base = 0;       // chain index of pics.front()
  int next_open = 0;  // chain index of the next picture to open
  int open = 0;       // pictures opening or open
  int newest = -1;    // the references the next appended picture takes
  int older = -1;

  [[nodiscard]] int end() const {
    return base + static_cast<int>(pics.size());
  }
  [[nodiscard]] ChainPic& at(int index) {
    return pics[static_cast<std::size_t>(index - base)];
  }
  [[nodiscard]] bool pending() const { return next_open < end() || open > 0; }
  [[nodiscard]] bool complete(int index) const {
    return index < base || pics[static_cast<std::size_t>(index - base)]
                                   .state == ChainPic::State::kComplete;
  }
  [[nodiscard]] mpeg2::FramePtr frame(int index) const {
    return index < base ? nullptr
                        : pics[static_cast<std::size_t>(index - base)].frame;
  }

  /// Takes the next picture in decode order for opening.
  ChainPic& open_next() {
    ChainPic& p = at(next_open++);
    p.state = ChainPic::State::kOpening;
    ++open;
    return p;
  }

  /// Marks `p` complete. `frame` is its delivered frame (null when nothing
  /// was delivered), kept while later pictures may reference it.
  void complete(ChainPic& p, mpeg2::FramePtr frame) {
    p.state = ChainPic::State::kComplete;
    --open;
    p.fwd.reset();
    p.bwd.reset();
    p.work = {};
    if (p.gop->info.pictures[static_cast<std::size_t>(p.pic)].type !=
        mpeg2::PictureType::kB) {
      p.frame = std::move(frame);
    }
  }

  /// Drops completed pictures from the front that no picture still to open
  /// references, and returns whether the chain is empty: it then carries
  /// no reference into a later GOP. The chain only moves forward, so the
  /// next picture to open (or, past the appended ones, the chain's
  /// references) holds the oldest reference any later picture can take.
  bool retire() {
    int keep = next_open;
    const ChainPic* next = keep < end() ? &at(keep) : nullptr;
    for (const int ref : {next ? next->newest : newest,
                          next ? next->older : older}) {
      if (ref >= 0) keep = std::min(keep, ref);
    }
    while (!pics.empty() &&
           pics.front().state == ChainPic::State::kComplete &&
           pics.front().index < keep) {
      pics.pop_front();
      ++base;
    }
    return pics.empty();
  }
};

struct Session;

/// What one cross-session claim hands a worker: decode a whole GOP (along
/// a chain of the task's own), scan the session's next GOP, open a chain's
/// picture and decode its first row, or decode one more row of an open
/// picture. `gop`, `chain` and `pic` are resolved while the server mutex
/// is held: entries and pictures live in std::deques whose *element*
/// addresses are stable, but re-indexing a deque unlocked would race a
/// scan task's concurrent push_back on its internal block map — workers
/// must go through these pointers, never s.entries[...] or a chain's
/// pics[...].
struct Claim {
  enum class Kind { kWholeGop, kScan, kOpen, kRow } kind = Kind::kWholeGop;
  Session* session = nullptr;
  GopEntry* gop = nullptr;
  Chain* chain = nullptr;
  ChainPic* pic = nullptr;
  int row = -1;
  std::int64_t charged_ns = 0;  // predicted cost debited at claim time
  mpeg2::FramePtr fwd, bwd;
};

struct Session {
  SessionId id = 0;
  SessionConfig cfg;
  StreamLoadProfile profile;
  AdmissionCharge charge;  // what the session holds against capacity
  std::span<const std::uint8_t> stream;
  AdmissionDecision decision = AdmissionDecision::kReject;
  SessionState state = SessionState::kQueued;

  // Scan and decode context, built by the session's first scan task.
  // One scan claim is out at a time, so the scanner has one user at a
  // time; decode workers read the rest only after a GOP is queued.
  std::optional<mpeg2::StructureScanner> scanner;
  mpeg2::StreamStructure structure;
  std::optional<mpeg2::FramePool> pool;
  std::optional<parallel::DisplaySink> display;
  std::atomic<int> concealed{0};
  std::atomic<int> concealed_pics{0};
  parallel::ErrorLog errors;
  parallel::GopObs gobs;
  obs::live::SessionSurface* surface = nullptr;
  /// The session's telemetry: the surface's cells, or the façade's own.
  obs::live::LiveTelemetry* live = nullptr;
  std::int64_t scan_ns = 0;  // written by the scan-claim holder

  // Scheduler state, guarded by the server mutex.
  std::deque<GopEntry> entries;  // stable addresses
  std::deque<int> queue;         // queued whole-GOP entry ids
  // Picture chains, oldest first, dropped once empty (stable addresses):
  // the slice granularity's one, or one per exploded GOP.
  std::list<Chain> chains;
  int pushed = 0;
  int completed_gops = 0;
  int quarantined = 0;  // GOPs completed damaged
  int queued_gops = 0;  // entries sitting in `queue`
  int in_flight = 0;    // claims handed out (scan included), not finished
  int gop_mode_gops = 0;
  int exploded_gops = 0;
  bool scan_claimed = false;  // a worker holds the session's scan claim
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
  // scan task appends under latency_mutex, the display emitter reads.
  std::mutex latency_mutex;
  std::vector<std::int64_t> enqueue_by_display;

  SessionResult result;
  bool result_ready = false;

  [[nodiscard]] bool terminal() const {
    return state == SessionState::kFinished ||
           state == SessionState::kCancelled ||
           state == SessionState::kFailed ||
           state == SessionState::kRejected;
  }
  [[nodiscard]] bool stopped() const {
    return cancel_requested || aborted || hung;
  }
  /// Chained pictures not yet complete.
  [[nodiscard]] bool pics_pending() const {
    return std::any_of(chains.begin(), chains.end(),
                       [](const Chain& c) { return c.pending(); });
  }
  /// The scan's backpressure is its claimability: one scan claim at a
  /// time, and only while the queue of unstarted GOPs is below its bound.
  [[nodiscard]] bool scan_claimable() const {
    return !scan_done && !scan_claimed && !stopped() &&
           (cfg.max_queued_gops == 0 ||
            static_cast<std::size_t>(queued_gops) < cfg.max_queued_gops);
  }
  /// Work the pool could still be handed (or is holding) for this session.
  [[nodiscard]] bool pending_work() const {
    return state == SessionState::kRunning &&
           (!queue.empty() || in_flight > 0 || pics_pending() ||
            scan_claimable());
  }
  [[nodiscard]] bool runnable() const {
    if (state != SessionState::kRunning || stopped()) return false;
    // Chained pictures are refined by has_claimable_locked.
    return scan_claimable() || !queue.empty() || pics_pending();
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
        surfaces_(config.workers),
        waiting_(config.workers) {
    worker_stats_.resize(static_cast<std::size_t>(config.workers));
    pool_.start(config.workers, [this](int w) { worker_main(w); });
  }

  ~Engine() { shutdown(); }

  /// Cancels whatever is not terminal, drains, and joins the pool.
  /// Idempotent; sessions themselves die with the engine.
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
        s.charge = admission_.admit(s.profile);
        start_session_locked(s);
        break;
      case AdmissionDecision::kQueue:
        admission_.enqueue();
        wait_list_.push_back(id);
        break;
      case AdmissionDecision::kReject:
        s.state = SessionState::kRejected;
        s.finish_ns = timer_.elapsed_ns();
        s.result.finish_ns = s.finish_ns;
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
    // result_ready means the session finalized with no claim out, so no
    // worker touches it again. The surface goes last: nothing references
    // it once the Session is gone.
    victim.reset();
    surfaces_.close(id);
    return true;
  }

  void drain() {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [&] { return running_.empty() && wait_list_.empty(); });
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
    for (const Session* other : running_) {
      sched::FairShare share;
      share.weight = other->cfg.weight;
      share.served_ns = other->served_ns;
      shares_.push_back(share);
    }
    s.virtual_start_ns = sched::virtual_start(s.cfg.weight, shares_);
    s.served_ns = s.virtual_start_ns;
    s.state = SessionState::kRunning;
    running_.push_back(&s);
    waiting_.fetch_add(1, std::memory_order_relaxed);  // holds no claim
    s.start_ns = timer_.elapsed_ns();
    s.surface = &surfaces_.open(s.id, s.cfg.name);
    s.live = hooks_.live ? hooks_.live : &s.surface->live;
  }

  void request_cancel_locked(Session& s) {
    if (s.state == SessionState::kQueued) {
      // Still in the admission wait list: remove and finish immediately.
      wait_list_.erase(std::find(wait_list_.begin(), wait_list_.end(), s.id));
      admission_.dequeue();
      s.cancel_requested = true;
      s.state = SessionState::kCancelled;
      s.finish_ns = timer_.elapsed_ns();
      s.result.finish_ns = s.finish_ns;
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
    maybe_finalize_locked(s);
  }

  /// Drops every unstarted task of `s` so the pool stops serving it:
  /// queued whole GOPs leave the queue, unopened pictures are never opened
  /// and unclaimed rows never claimed. In-flight tasks finish on their own;
  /// the chains' reference frames go back to the pool at finalize.
  void purge_session_queue_locked(Session& s) {
    if (s.live) s.live->add_queue_depth(-s.queued_gops);
    s.queue.clear();
    s.queued_gops = 0;
    for (Chain& c : s.chains) {
      c.next_open = c.end();
      for (ChainPic& p : c.pics) {
        // A picture whose claimed rows all finished has nobody left to
        // complete it; one with rows in flight (or closing) completes on
        // the last.
        const int unclaimed = c.rows - p.next_row;
        if (p.state != ChainPic::State::kOpen || unclaimed == 0) continue;
        p.next_row = c.rows;
        p.rows_done += unclaimed;
        if (p.rows_done == c.rows) complete_pic_locked(s, c, p, nullptr);
      }
    }
    ++epoch_;
    cv_.notify_all();
  }

  // --- Scan: one claim at a time per session, run by a worker. -----------

  /// Scans the session's next GOP and queues it. The first scan task also
  /// parses the preamble and builds the decode context. Charged 0 at claim
  /// time, settled to its thread CPU; not counted as a decode task.
  void scan_task(const Claim& claim, int w, parallel::WorkerStats& stats,
                 obs::prof::WorkerProf* prof) {
    Session& s = *claim.session;
    obs::Tracer* const tracer = hooks_.tracer;
    const std::int64_t span_begin = tracer ? tracer->now_ns() : 0;
    const ThreadCpuTimer cpu;
    const WallTimer wall;
    const bool ready = s.scanner || open_scan(s);
    mpeg2::GopInfo gop;
    bool have = false;
    if (ready) {
      const obs::prof::StageScope scan_stage(obs::prof::Stage::kScan);
      if (s.cfg.quarantine_gops && s.scanner->failed()) s.scanner->resync();
      have = s.scanner->next_gop(gop);
    }
    s.scan_ns += wall.elapsed_ns();
    if (tracer) {
      tracer->emit(w, obs::SpanKind::kScan, span_begin, tracer->now_ns(), -1,
                   -1, s.pushed);
    }
    {
      obs::live::TelemetryCell::Write lw(s.live->scan());
      lw.set_bytes(static_cast<std::int64_t>(s.scanner->position()));
      if (prof) lw.add_counters(prof->take_task_delta());
    }
    const std::int64_t task_ns = cpu.elapsed_ns();
    const std::scoped_lock lock(mutex_);
    settle_claim_locked(s, claim, stats, task_ns);
    s.scan_claimed = false;
    if (!ready) {
      // Admission validated the preamble, so this is defensive only.
      s.aborted = true;
    } else if (!s.stopped()) {
      queue_scanned_locked(s, have, std::move(gop));
    }
    ++epoch_;
    maybe_finalize_locked(s);
    cv_.notify_all();
  }

  /// The first scan task's setup. Nothing else reads the context it
  /// builds before a GOP is queued under mutex_.
  bool open_scan(Session& s) {
    mpeg2::StructureScanner& scanner = s.scanner.emplace(s.stream);
    if (!scanner.scan_preamble()) return false;
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
    s.gobs.tracer = hooks_.tracer;
    s.gobs.conceal_errors = s.cfg.quarantine_gops || hooks_.conceal_errors;
    s.gobs.quarantine = s.cfg.quarantine_gops;
    s.gobs.concealed = &s.concealed;
    s.gobs.concealed_pics = &s.concealed_pics;
    s.gobs.errors = s.cfg.quarantine_gops ? &s.errors : nullptr;
    s.gobs.h_resync = hooks_.h_resync;
    s.gobs.live = s.live;
    return true;
  }

  /// Queues the GOP one scan task found, or ends the scan at end of
  /// stream, at damage without recovery, or at an open GOP without
  /// recovery. Under quarantine, damage costs only the GOP it hit: it is
  /// logged, the part indexed before it is queued, and the next scan task
  /// resyncs at the following GOP.
  void queue_scanned_locked(Session& s, bool have, mpeg2::GopInfo&& gop) {
    const mpeg2::StructureScanner& scanner = *s.scanner;
    if (scanner.failed() && s.cfg.quarantine_gops) {
      // With `have`, the damage is past the end of the GOP scanned.
      s.errors.add({parallel::RecoveryCause::kScanTruncated,
                    s.pushed + (have ? 1 : 0), -1, scanner.position()});
      if (!have) {
        if (scanner.failed_in_gop() && !gop.pictures.empty()) {
          push_gop_locked(s, std::move(gop));
        }
        return;
      }
    } else if (!have) {
      s.scan_done = true;
      s.scan_ok = !scanner.failed() && s.pushed > 0;
      return;
    }
    if (!gop.closed) {
      // Whole-GOP and exploded dispatch need GOP-private references; the
      // slice granularity carries the chain into an open GOP instead.
      if (s.cfg.quarantine_gops) {
        s.errors.add(
            {parallel::RecoveryCause::kOpenGop, s.pushed, -1, gop.offset});
      } else if (hooks_.granularity != sched::Granularity::kSlice) {
        s.scan_done = true;
        s.scan_ok = false;
        return;
      }
    }
    push_gop_locked(s, std::move(gop));
  }

  void push_gop_locked(Session& s, mpeg2::GopInfo&& gop) {
    const int id = static_cast<int>(s.entries.size());
    s.entries.emplace_back();
    GopEntry& e = s.entries.back();
    e.info = std::move(gop);
    e.index = s.pushed;
    e.display_base = s.total_pictures;
    e.bytes = e.info.end_offset - e.info.offset;
    e.enqueue_ns = timer_.elapsed_ns();
    const int pics = static_cast<int>(e.info.pictures.size());
    {
      const std::scoped_lock latency_lock(s.latency_mutex);
      s.enqueue_by_display.resize(
          static_cast<std::size_t>(s.total_pictures + pics), e.enqueue_ns);
    }
    if (s.cfg.quarantine_gops) e.ranks = mpeg2::display_ranks(e.info);
    s.total_pictures += pics;
    ++s.pushed;
    if (hooks_.granularity != sched::Granularity::kSlice) {
      s.queue.push_back(id);
      ++s.queued_gops;
      s.live->add_queue_depth(1);
    } else if (e.info.pictures.empty()) {
      ++s.completed_gops;  // nothing to open
    } else {
      // The GOP counts as queued (scan backpressure) until its first
      // picture opens. Its pictures join the session's one chain.
      ++s.queued_gops;
      s.live->add_queue_depth(1);
      if (s.chains.empty()) {
        Chain& c = s.chains.emplace_back();
        c.rows = picture_rows(s);
        c.max_open = hooks_.max_open_pictures;
      }
      append_gop(s, s.chains.back(), e);
    }
    obs::live::TelemetryCell::Write lw(s.live->scan());
    lw.add_tasks().set_last_progress_ns(s.live->now_ns());
  }

  /// Appends the GOP's pictures to `c` in decode order with their
  /// references: the engine's one reference rule, for every granularity.
  /// A picture's references are the newest non-B picture before it and
  /// the non-B before that (scan picture types): P predicts from the
  /// newest, B from both, and quarantine conceals from the newest. A
  /// quarantined reference picture's synthesized frame feeds later
  /// predictions. A closed GOP starts fresh references; so does every GOP
  /// under quarantine, whose blast radius is one GOP on every path.
  /// Without quarantine an open GOP's leading pictures take the previous
  /// GOP's references (slice granularity only).
  static void append_gop(const Session& s, Chain& c, GopEntry& e) {
    if (e.info.closed || s.cfg.quarantine_gops) c.newest = c.older = -1;
    for (std::size_t i = 0; i < e.info.pictures.size(); ++i) {
      ChainPic& p = c.pics.emplace_back();
      p.gop = &e;
      p.pic = static_cast<int>(i);
      p.index = c.end() - 1;
      p.newest = c.newest;
      p.older = c.older;
      if (e.info.pictures[i].type != mpeg2::PictureType::kB) {
        c.older = c.newest;
        c.newest = p.index;
      }
    }
  }

  /// Tasks per chained picture: one per macroblock row, or one for
  /// MPEG-1, whose slices may span rows.
  static int picture_rows(const Session& s) {
    return s.structure.mpeg1 ? 1 : s.structure.mb_height();
  }

  /// A chain of GOP `e` alone: fresh references, macroblock-row tasks, no
  /// cap on open pictures. Nothing is ever appended to it, so it keeps no
  /// reference past its last picture.
  static Chain gop_chain(const Session& s, GopEntry& e) {
    Chain c;
    c.rows = picture_rows(s);
    append_gop(s, c, e);
    c.newest = c.older = -1;
    return c;
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
      waiting_.fetch_sub(1, std::memory_order_relaxed);  // claiming
      if (try_claim_locked(out)) {
        stats.sync_ns += waited.elapsed_ns();
        return true;
      }
      waiting_.fetch_add(1, std::memory_order_relaxed);
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
          // A copy: finalizing leaves running_, and admits from the
          // wait list join it.
          const std::vector<Session*> running = running_;
          for (Session* s : running) {
            if (!session_wedged_locked(*s)) continue;
            s->hung = true;
            s->errors.add(
                {parallel::RecoveryCause::kWatchdog, -1, -1, 0});
            purge_session_queue_locked(*s);  // bumps epoch_, notifies
            maybe_finalize_locked(*s);
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
    return std::any_of(running_.begin(), running_.end(),
                       [](const Session* s) { return s->pending_work(); });
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

  /// Fair pick, then intra-session dispatch: the session's scan first
  /// (keeping its queue as deep as its bound), then its chains' picture
  /// tasks before queued whole GOPs (frames closest to display first),
  /// then the queue's head GOP, split at pop time when a worker or another
  /// session waits anywhere in the server. Only running sessions are
  /// walked, in start order, so ties go to the earliest-started one.
  bool try_claim_locked(Claim& out) {
    shares_.clear();
    for (Session* s : running_) {
      sched::FairShare share;
      share.weight = s->cfg.weight;
      share.served_ns = s->served_ns;
      share.runnable = s->runnable() && has_claimable_locked(*s);
      shares_.push_back(share);
    }
    const int idx = sched::pick_session(shares_);
    if (idx < 0) return false;
    Session& s = *running_[static_cast<std::size_t>(idx)];
    if (s.scan_claimable()) {
      s.scan_claimed = true;
      add_claims_locked(s, 1);
      out.kind = Claim::Kind::kScan;
      out.session = &s;
      return true;
    }
    if (find_pic_task(s, out)) {
      claim_pic_locked(s, out);
      return true;
    }
    const int g = s.queue.front();
    s.queue.pop_front();
    --s.queued_gops;
    s.live->add_queue_depth(-1);
    dispatch_locked(s, g, out);
    return true;
  }

  [[nodiscard]] static bool has_claimable_locked(Session& s) {
    Claim probe;
    return s.scan_claimable() || !s.queue.empty() || find_pic_task(s, probe);
  }

  /// Picture i's display slot under quarantine (display_ranks), else -1.
  static int ranked_display(const Session& s, const GopEntry& e, int i) {
    return s.cfg.quarantine_gops
               ? e.display_base + e.ranks[static_cast<std::size_t>(i)]
               : -1;
  }

  // --- Chains: picture opens and macroblock-row tasks. --------------------

  /// The session's next picture task, lowest chain first (frames closest
  /// to display first): a row of the chain's lowest open picture with one
  /// unclaimed, else the chain's openable picture.
  static bool find_pic_task(Session& s, Claim& out) {
    for (Chain& c : s.chains) {
      ChainPic* p = row_source(c);
      const Claim::Kind kind = p ? Claim::Kind::kRow : Claim::Kind::kOpen;
      if (!p) p = openable(c);
      if (p) {
        out.kind = kind;
        out.chain = &c;
        out.pic = p;
        return true;
      }
    }
    return false;
  }

  /// The lowest open picture with an unclaimed row.
  static ChainPic* row_source(Chain& c) {
    for (ChainPic& p : c.pics) {
      if (p.index >= c.next_open) break;
      if (p.state == ChainPic::State::kOpen && p.next_row < c.rows) return &p;
    }
    return nullptr;
  }

  /// The next picture in decode order, once it may open: fewer than
  /// max_open are open and its references are complete (the newest non-B
  /// before it always, as prediction source or concealment source; for a
  /// B picture the older one too). Opening in order loses nothing: a later
  /// picture's references are complete only once every earlier one could
  /// open. SlicePolicy::kSimple is max_open == 1.
  static ChainPic* openable(Chain& c) {
    if (c.next_open >= c.end() || c.open >= c.max_open) return nullptr;
    ChainPic& p = c.at(c.next_open);
    if (!c.complete(p.newest)) return nullptr;
    if (p.gop->info.pictures[static_cast<std::size_t>(p.pic)].type ==
            mpeg2::PictureType::kB &&
        !c.complete(p.older)) {
      return nullptr;
    }
    return &p;
  }

  /// Hands out the task find_pic_task found. An open takes the picture's
  /// references into the claim; the opener decodes row 0 itself.
  void claim_pic_locked(Session& s, Claim& out) {
    Chain& c = *out.chain;
    ChainPic& p = *out.pic;
    GopEntry& e = *p.gop;
    if (out.kind == Claim::Kind::kOpen) {
      c.open_next();
      if (p.pic == 0 && hooks_.granularity == sched::Granularity::kSlice) {
        // The GOP leaves the scan's backpressure window.
        --s.queued_gops;
        s.live->add_queue_depth(-1);
        ++epoch_;
        cv_.notify_all();  // the session's scan may be claimable again
      }
      out.bwd = c.frame(p.newest);
      out.fwd = c.frame(p.older);
    }
    out.session = &s;
    out.gop = &e;
    out.row = p.next_row++;
    charge_claim_locked(
        s, out, e.bytes / (e.info.pictures.size() *
                           static_cast<std::size_t>(c.rows)));
  }

  /// The opener's picture is open: pins its references and makes its
  /// other rows claimable; the opener decodes row 0 itself. Returns false
  /// when the session stopped meanwhile: the picture gets no rows, and the
  /// opener completes it undecoded.
  bool publish_open(Claim& claim) {
    const std::scoped_lock lock(mutex_);
    ChainPic& p = *claim.pic;
    const int rows = claim.chain->rows;
    p.state = ChainPic::State::kOpen;
    p.fwd = std::move(claim.fwd);
    p.bwd = std::move(claim.bwd);
    ++epoch_;
    if (claim.session->stopped()) {
      p.next_row = rows;
      p.rows_done = rows - 1;
      return false;
    }
    cv_.notify_all();
    return true;
  }

  /// A row is decoded: adds its concealed slices (-1: a slice failed with
  /// concealment off, which aborts the session). Returns true when this
  /// was the picture's last row; `deliver` then says whether the caller
  /// closes it, or completes it undelivered (a stopped session).
  bool finish_row(const Claim& claim, int concealed, bool& deliver) {
    const std::scoped_lock lock(mutex_);
    Session& s = *claim.session;
    ChainPic& p = *claim.pic;
    p.concealed += std::max(concealed, 0);
    const bool last = ++p.rows_done == claim.chain->rows;
    if (concealed < 0 && !s.stopped()) abort_session_locked(s);
    deliver = last && !s.stopped();
    return last;
  }

  /// Settles a decode task under the one lock it takes after its claim:
  /// the worker's stats, the GOP's cost and the session's claim. A whole
  /// GOP completes unless it `failed` or was `split`: a split GOP's chain
  /// joins the session's chains in GOP order, its completed pictures and
  /// their reference frames with it (a stopped session never claims it,
  /// and its frames go back at finalize, as every chain's do). A picture
  /// task that was its picture's `last` completes the picture with
  /// `frame`, its delivered frame (null when none was). `failed` (a
  /// picture that could not decode, recovery off) aborts the session.
  void settle_task(const Claim& claim, parallel::WorkerStats& stats,
                   std::int64_t task_ns, bool last, mpeg2::FramePtr frame,
                   bool damaged, bool failed, Chain* split = nullptr) {
    const std::scoped_lock lock(mutex_);
    Session& s = *claim.session;
    GopEntry& e = *claim.gop;
    ++epoch_;
    e.cost_ns += task_ns;
    if (claim.kind == Claim::Kind::kWholeGop) {
      e.damaged = damaged;
      if (split) {
        --s.gop_mode_gops;
        ++s.exploded_gops;
        e.completed = split->next_open;
        s.chains.insert(std::find_if(s.chains.begin(), s.chains.end(),
                                     [&e](const Chain& c) {
                                       return c.pics.front().gop->index >
                                              e.index;
                                     }),
                        std::move(*split));
      } else if (!failed) {
        complete_entry_locked(s, e);
      }
    } else if (last) {
      Chain& c = *claim.chain;
      complete_pic_locked(s, c, *claim.pic, std::move(frame), damaged);
      if (c.retire()) {
        s.chains.remove_if([&c](const Chain& x) { return &x == &c; });
      }
    }
    if (failed && !s.stopped()) abort_session_locked(s);
    settle_claim_locked(s, claim, stats, task_ns);
    maybe_finalize_locked(s);
    cv_.notify_all();
  }

  /// Marks a shared chain's picture complete (Chain::complete) and counts
  /// it toward its GOP. The caller retires pictures (Chain::retire) once
  /// it is done iterating the chain.
  void complete_pic_locked(Session& s, Chain& c, ChainPic& p,
                           mpeg2::FramePtr frame, bool damaged = false) {
    GopEntry& e = *p.gop;
    c.complete(p, std::move(frame));
    if (damaged) e.damaged = true;
    if (++e.completed == static_cast<int>(e.info.pictures.size())) {
      complete_entry_locked(s, e);
    }
  }

  /// The dispatch decision at pop time: under kAdaptive, a GOP popped
  /// while someone else waits (a worker, or another session) is split at
  /// once; otherwise it is a whole-GOP claim, which gop_task may still
  /// split. kWholeGop never splits.
  void dispatch_locked(Session& s, int g, Claim& out) {
    GopEntry& e = s.entries[static_cast<std::size_t>(g)];
    const int self = s.in_flight > 0 ? 0 : 1;  // `s` waits while it has none
    const bool explode =
        hooks_.granularity == sched::Granularity::kAdaptive &&
        !e.info.pictures.empty() &&
        waiting_.load(std::memory_order_relaxed) > self;
    ++epoch_;
    if (explode) {
      ++s.exploded_gops;
      Chain& c = s.chains.emplace_back(gop_chain(s, e));
      // The dispatching worker opens the GOP's first picture itself (it
      // has no references).
      out.kind = Claim::Kind::kOpen;
      out.chain = &c;
      out.pic = &c.pics.front();
      claim_pic_locked(s, out);
    } else {
      // Debited as one picture, since it splits as soon as someone waits
      // (kWholeGop runs only as the GOP decoder's one session): a GOP's
      // debit, refunded at the split, seeded newcomers' virtual starts
      // so high that they waited behind it.
      ++s.gop_mode_gops;
      out.kind = Claim::Kind::kWholeGop;
      out.session = &s;
      out.gop = &e;
      charge_claim_locked(
          s, out, e.bytes / std::max<std::size_t>(1, e.info.pictures.size()));
    }
    cv_.notify_all();  // the session's scan may be claimable again
  }

  /// Debits the predicted cost at claim time so two claims between
  /// completions still spread fairly; the settle charges the difference
  /// against the measured cost.
  void charge_claim_locked(Session& s, Claim& out, std::uint64_t bytes) {
    const std::int64_t predicted = ewma_.predict(bytes);
    out.charged_ns = predicted > 0 ? predicted : 0;
    s.served_ns += out.charged_ns;
    add_claims_locked(s, 1);
  }

  /// Moves the session's claim count, and its place among the waiters
  /// while it holds none.
  void add_claims_locked(Session& s, int delta) {
    if (s.in_flight == 0) waiting_.fetch_sub(1, std::memory_order_relaxed);
    s.in_flight += delta;
    if (s.in_flight == 0) waiting_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Ends a claim: charges the worker's thread CPU (load_summary() reads
  /// it under mutex_; a scan is not a decode task) and the session's
  /// fairness ledger, and releases the claim.
  void settle_claim_locked(Session& s, const Claim& claim,
                           parallel::WorkerStats& stats,
                           std::int64_t task_ns) {
    stats.compute_ns += task_ns;
    if (claim.kind != Claim::Kind::kScan) ++stats.tasks;
    s.served_ns += task_ns - claim.charged_ns;
    add_claims_locked(s, -1);
  }

  /// A GOP is decoded: the one place where any granularity finishes one.
  /// A damaged GOP counts as quarantined and does not calibrate.
  void complete_entry_locked(Session& s, GopEntry& e) {
    if (e.damaged) ++s.quarantined;
    ewma_.observe(e.cost_ns, e.bytes);
    if (!e.damaged) calibrate_locked(s, e, e.cost_ns);
    ++s.completed_gops;
  }

  /// Feeds one cleanly decoded GOP's measured worker share (decode CPU
  /// time over the GOP's display time) into its session's admission
  /// charge and stream class, then re-checks the wait list: the session's
  /// charge may have shrunk, and so may a queued newcomer's of its class.
  /// Callers skip concealed GOPs: concealment is cheaper than decoding and
  /// would bias the charge toward over-admission. GOPs of a cancelled,
  /// aborted or hung session are skipped here, since their purged pictures
  /// never decoded.
  void calibrate_locked(Session& s, const GopEntry& e,
                        std::int64_t cost_ns) {
    if (s.stopped()) return;
    const double display_s =
        static_cast<double>(e.info.pictures.size()) / s.profile.frame_rate;
    admission_.observe(s.charge, s.profile,
                       static_cast<double>(cost_ns) / 1e9 / display_s);
    admit_from_wait_list_locked();
  }

  void abort_session_locked(Session& s) {
    s.aborted = true;
    purge_session_queue_locked(s);
  }

  /// The one finalize path, called wherever a session may have become
  /// quiescent: no claim out, and either stopped or every scanned GOP
  /// decoded. Terminal-state bookkeeping and the heavyweight teardown
  /// (display, entries, pool) run here, on whichever thread got there.
  void maybe_finalize_locked(Session& s) {
    if (s.state != SessionState::kRunning || s.in_flight > 0) return;
    if (!s.stopped() && !(s.scan_done && s.completed_gops == s.pushed)) {
      return;
    }
    waiting_.fetch_sub(1, std::memory_order_relaxed);  // no longer running
    running_.erase(std::find(running_.begin(), running_.end(), &s));
    // The display emits on the pushing worker inside its task, so at
    // quiescence every push has emitted: a picture still owed never comes.
    if (!s.stopped() && s.scan_ok &&
        s.display->emitted() < s.total_pictures) {
      s.hung = true;
      s.errors.add({parallel::RecoveryCause::kDisplayTimeout, -1, -1, 0});
    }
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
    r.quarantined_gops = s.quarantined;
    s.errors.drain(r.errors, r.errors_dropped);
    r.start_ns = s.start_ns;
    r.finish_ns = s.finish_ns;
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
    // Teardown order matters for the leak proof: the chains' reference
    // frames and the display's reorder buffer go back to the pool first,
    // then the pool's counters are read.
    s.chains.clear();
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
      admission_.release(s.charge);
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
      next->charge = admission_.admit(next->profile);
      start_session_locked(*next);
    }
  }

  // --- Worker main loop ---------------------------------------------------

  void worker_main(int w) {
    parallel::WorkerStats& stats =
        worker_stats_[static_cast<std::size_t>(w)];
    obs::Tracer* const tracer = hooks_.tracer;
    obs::prof::WorkerProf* const prof =
        hooks_.prof ? hooks_.prof->bind(w) : nullptr;
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
      // Each task's settle must stay the worker's LAST touch of the
      // session: the thread that drops in_flight to zero finalizes, and a
      // client's forget() can then free the Session and its surface.
      if (claim.kind == Claim::Kind::kScan) {
        scan_task(claim, w, stats, prof);
        waiting_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (hooks_.h_wait) hooks_.h_wait->record(stats.sync_ns - sync_before);
      if (claim.kind == Claim::Kind::kWholeGop) {
        gop_task(claim, w, stats, prof);
      } else {
        picture_task(claim, w, stats, prof);
      }
      waiting_.fetch_add(1, std::memory_order_relaxed);
    }
    if (prof) obs::prof::StageProfiler::unbind();
  }

  /// A whole-GOP claim: the paper's GOP task. The worker decodes the GOP's
  /// pictures in decode order along a chain of the task's own, which no
  /// other worker can see, so it takes no lock between pictures:
  /// references come from the chain, and frames retire by its rule. Under
  /// kAdaptive it reads the waiter count after each picture, and when a
  /// worker or another session waits and pictures remain it stops: the
  /// settle hands the chain over as the split GOP's shared one, and the
  /// worker goes back to the fair pick. Otherwise the chain's frames are
  /// back in the pool before the settle.
  void gop_task(const Claim& claim, int w, parallel::WorkerStats& stats,
                obs::prof::WorkerProf* prof) {
    Session& s = *claim.session;
    // claim.gop was resolved under mutex_; never re-index s.entries
    // here — a scan task may be push_back-ing the deque concurrently.
    GopEntry& e = *claim.gop;
    obs::Tracer* const tracer = hooks_.tracer;
    const std::int64_t task_begin = tracer ? tracer->now_ns() : 0;
    const ThreadCpuTimer cpu;
    const bool splits = hooks_.granularity == sched::Granularity::kAdaptive;
    bool damaged = false;
    bool failed = false;
    bool split = false;
    Chain c = gop_chain(s, e);
    while (c.next_open < c.end()) {
      ChainPic& p = c.open_next();
      parallel::PictureOutcome out =
          decode_picture(s, p, c.frame(p.older), c.frame(p.newest), stats, w);
      if (!out.frame) {
        failed = true;
        break;
      }
      damaged = damaged || out.damaged;
      c.complete(p, std::move(out.frame));
      c.retire();
      if (splits && c.next_open < c.end() &&
          waiting_.load(std::memory_order_relaxed) > 0) {
        split = true;
        break;
      }
    }
    if (!split) c.pics.clear();
    const std::int64_t task_ns = cpu.elapsed_ns();
    if (tracer) {
      tracer->emit(w, obs::SpanKind::kGopTask, task_begin, tracer->now_ns(),
                   -1, -1, e.index);
    }
    note_task(stats, s, w, task_ns, prof);
    settle_task(claim, stats, task_ns, true, nullptr, damaged, failed,
                split ? &c : nullptr);
  }

  /// decode_one_picture on chained picture `p`.
  static parallel::PictureOutcome decode_picture(
      Session& s, const ChainPic& p, const mpeg2::FramePtr& fwd,
      const mpeg2::FramePtr& bwd, parallel::WorkerStats& stats, int w) {
    const GopEntry& e = *p.gop;
    return parallel::decode_one_picture(
        s.stream, s.structure, e.info.pictures[static_cast<std::size_t>(p.pic)],
        e.index, e.display_base + p.pic, e.display_base,
        ranked_display(s, e, p.pic), fwd, bwd, *s.pool, *s.display, stats,
        s.gobs, w);
  }

  /// A chained picture's task. A one-task picture (MPEG-1) is
  /// decode_one_picture in one claim. Otherwise kOpen opens the picture
  /// and decodes its first row, kRow one more row, and whoever finishes
  /// the last row closes it. open_picture, decode_open_rows and
  /// close_picture are decode_one_picture's own three steps, so a picture
  /// decodes to the same bytes on every path.
  void picture_task(Claim& claim, int w, parallel::WorkerStats& stats,
                    obs::prof::WorkerProf* prof) {
    Session& s = *claim.session;
    ChainPic& p = *claim.pic;
    const GopEntry& e = *claim.gop;
    const auto& info = e.info.pictures[static_cast<std::size_t>(p.pic)];
    const int index = e.display_base + p.pic;  // session decode order
    const ThreadCpuTimer cpu;
    parallel::PictureOutcome out;
    bool last = true;
    bool failed = false;
    if (claim.chain->rows == 1) {
      out = decode_picture(s, p, claim.fwd, claim.bwd, stats, w);
      failed = !out.frame;
    } else if (claim.kind == Claim::Kind::kOpen &&
               !parallel::open_picture(s.stream, s.structure, info, e.index,
                                       index, e.display_base,
                                       ranked_display(s, e, p.pic), claim.fwd,
                                       claim.bwd, *s.pool, *s.display,
                                       s.gobs, w, p.work, out)) {
      // Quarantined (and delivered) or, with recovery off, failed.
      failed = !out.frame;
    } else {
      const bool decode =
          claim.kind == Claim::Kind::kRow || publish_open(claim);
      const int concealed =
          decode ? parallel::decode_open_rows(s.stream, info, index,
                                              claim.row, p.work, stats,
                                              s.gobs, w)
                 : 0;
      bool deliver = false;
      last = finish_row(claim, concealed, deliver);
      if (deliver) {
        out = parallel::close_picture(p.work, p.concealed, info, e.index,
                                      index, *s.display, s.gobs, w);
      }
    }
    // Drop the reference handles BEFORE settle_task decrements in_flight:
    // finalize reads the pool's leak counters the moment in_flight hits
    // zero, and these FramePtrs must be back in the free list by then.
    claim.fwd.reset();
    claim.bwd.reset();
    const std::int64_t task_ns = cpu.elapsed_ns();
    note_task(stats, s, w, task_ns, prof);
    settle_task(claim, stats, task_ns, last, std::move(out.frame),
                out.damaged, failed);
  }

  /// A decode task's unlocked telemetry: the façade's instruments, the
  /// worker's live cell and its profiler delta. It runs BEFORE the settle
  /// drops in_flight, so by the time wait() can return these writes have
  /// landed, which is also what makes forget() safe.
  void note_task(const parallel::WorkerStats& stats, Session& s, int w,
                 std::int64_t task_ns, obs::prof::WorkerProf* prof) {
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
  /// The kRunning sessions, in start order: all the claim path walks.
  std::vector<Session*> running_;
  std::vector<sched::FairShare> shares_;  // scratch for try_claim
  std::vector<parallel::WorkerStats> worker_stats_;
  /// Who would take up a split: workers holding no claim and not claiming
  /// one (not started, between tasks, or with nothing to claim), plus
  /// running sessions holding no claim (each has claimable work, or it
  /// would have finalized). Read without mutex_ between a whole-GOP
  /// task's pictures.
  std::atomic<int> waiting_;
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

AdmissionSnapshot DecodeServer::admission() const {
  const std::scoped_lock lock(impl_->mutex_);
  return impl_->admission_.snapshot();
}

int DecodeServer::workers() const { return impl_->config_.workers; }

}  // namespace pmp2::serve
