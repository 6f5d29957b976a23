#include "sched/sim.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include "obs/tracer.h"

namespace pmp2::sched {

namespace {

constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max() / 4;

using Events = std::vector<std::pair<std::int64_t, std::int64_t>>;

/// Deterministic corrupt-slice selection for the concealment cost model:
/// SplitMix64 finalizer over (fault_seed, gop, picture, slice), mapped to
/// [0, 1) and compared against fault_slice_rate. Identical for every
/// granularity and across runs.
bool slice_faulted(const SimConfig& config, int gop, int pic, int slice) {
  if (config.fault_slice_rate <= 0.0) return false;
  std::uint64_t x = config.fault_seed ^
                    (static_cast<std::uint64_t>(gop) << 40) ^
                    (static_cast<std::uint64_t>(pic) << 20) ^
                    static_cast<std::uint64_t>(slice);
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<double>(x >> 11) * 0x1.0p-53 < config.fault_slice_rate;
}

/// Turns (time, delta) events into a sampled timeline plus peak.
void build_timeline(Events events, SimResult& result) {
  std::sort(events.begin(), events.end());
  std::int64_t bytes = 0;
  result.memory_timeline.clear();
  for (std::size_t i = 0; i < events.size(); ++i) {
    bytes += events[i].second;
    // Collapse simultaneous events into one sample.
    if (i + 1 < events.size() && events[i + 1].first == events[i].first) {
      continue;
    }
    result.memory_timeline.push_back({events[i].first, bytes});
    result.peak_memory = std::max(result.peak_memory, bytes);
  }
}

/// The model. Every GOP is admitted to the queue at its scan end; an idle
/// worker claims, in order: a slice task of an open picture on some chain
/// (frames closest to display first), else the queue's head GOP, run
/// whole. Under kAdaptive a GOP's remaining pictures are split onto a
/// chain of their own when another worker is idle at its pop or after any
/// picture of its whole claim. Under kSlice the scan appends each admitted
/// GOP to one session-wide chain instead. Every chained picture is one
/// task per slice, as the engine runs it one task per macroblock row.
class Model {
 public:
  Model(const StreamProfile& profile, const SimConfig& config)
      : profile_(profile),
        config_(config),
        clusters_(config.cluster_size > 0
                      ? (config.workers + config.cluster_size - 1) /
                            config.cluster_size
                      : 1),
        fb_(profile.frame_bytes()) {
    result_.workers.resize(static_cast<std::size_t>(config.workers));
    if (config.scan_bytes_per_ns > 0) {
      rate_ = config.scan_bytes_per_ns;
    } else if (profile.scan_ns > 0) {
      // The scan processor slows down with the workers (cost_scale).
      rate_ = static_cast<double>(profile.stream_bytes) /
              (static_cast<double>(profile.scan_ns) * config.cost_scale);
    }
    build();
  }

  SimResult run();

 private:
  /// Decode-order pictures opened in order, at most max_open at once, each
  /// one task per slice: the rest of a GOP kAdaptive split (no cap), or
  /// kSlice's session-wide chain (SimConfig::max_open_pictures).
  struct Chain {
    int begin = 0;         // first picture
    int end = 0;           // one past the last admitted picture
    int next = 0;          // next picture to open
    int first_active = 0;  // lowest picture that may still have work
    int open = 0;
    int max_open = std::numeric_limits<int>::max();
  };
  struct Gop {
    const GopCost* cost = nullptr;
    int first_pic = 0;  // global decode-order index of its first picture
    int display_base = 0;
    int home = 0;  // NUMA cluster holding its data
    std::int64_t scanned = 0;  // scan end: the earliest admission
    std::int64_t admitted = 0;
    std::int64_t left_queue = kInf;  // claimed, or first picture opened
    double penalty = 1.0;            // NUMA cost factor of its whole claim
    int pictures_left = 0;
    bool exploded = false;  // split (kAdaptive) or chained (kSlice)
    Chain chain;            // kAdaptive, once split
  };
  struct Pic {
    const PictureCost* cost = nullptr;
    int gop = 0;
    int pic_in_gop = 0;
    int display_index = 0;
    int refs[2] = {-1, -1};  // reference pictures it waits for, if any
    bool complete = false;
    int next_slice = 0;
    int remaining = 0;
    std::int64_t alloc = 0;  // frame buffer taken
    std::int64_t completion = 0;
    std::int64_t last_ref_use = 0;
  };
  struct Idle {
    std::int64_t since;
    int id;
    /// Found nothing to claim: what the engine counts as an idle worker.
    bool asleep = false;
  };
  struct Event {
    std::int64_t finish;
    int worker;
    int gop;
    int pic;  // a whole claim's picture unless its GOP is split or chained
              // (-1: an empty GOP's whole claim)
    // Simultaneous completions pop in heap order: deterministic, and the
    // order the pinned results (AdaptiveSim.PinnedGopAndSliceResults) hold.
    bool operator>(const Event& o) const { return finish > o.finish; }
  };

  void build();
  [[nodiscard]] std::int64_t scan_ready(std::uint64_t scanned) const;
  [[nodiscard]] std::int64_t slice_cost(const Pic& pic, int s);
  [[nodiscard]] int cluster_of(int w) const {
    return config_.cluster_size > 0 ? w / config_.cluster_size : 0;
  }
  [[nodiscard]] std::int64_t next_admission() const;
  void admit(std::int64_t now);
  void leave_queue(int g, std::int64_t t) { gops_[g].left_queue = t; }
  void open_eligible(Chain& chain, std::int64_t now);
  [[nodiscard]] int find_slice();
  [[nodiscard]] int pop_gop(int w);
  [[nodiscard]] bool other_idle(int w) const;
  bool try_assign(const Idle& w, std::int64_t now);
  void split(int g, int from, std::int64_t now);
  void run_whole(const Idle& w, std::int64_t now, int g);
  std::int64_t run_whole_pic(int w, int p, std::int64_t t);
  void end_whole(int w, int g, std::int64_t begin, std::int64_t end);
  void run_slice(const Idle& w, std::int64_t now, int p);
  int complete(const Event& e);
  [[nodiscard]] obs::SpanKind stall_kind() const;
  void wait_span(const Idle& w, std::int64_t now, std::int64_t start,
                 obs::SpanKind kind) const {
    if (config_.tracer && start > w.since) {
      config_.tracer->emit(w.id, now > w.since ? kind
                                               : obs::SpanKind::kQueueWait,
                           w.since, start);
    }
  }

  const StreamProfile& profile_;
  const SimConfig& config_;
  const int clusters_;
  const std::int64_t fb_;
  double rate_ = 1e9;  // scan bytes/ns; effectively instant by default
  SimResult result_;

  std::vector<Gop> gops_;
  std::vector<Pic> pics_;
  std::size_t next_admit_ = 0;
  std::vector<std::deque<int>> queues_;  // one, or one per cluster
  std::vector<int> unclaimed_;           // per cluster, admitted or not
  Chain session_;                        // kSlice's chain
  std::vector<Chain*> chains_;  // chains with work, by first picture
  std::vector<Idle> idle_;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events_;
  obs::SpanKind stall_ = obs::SpanKind::kQueueWait;
  Events mem_, stream_;
};

std::int64_t Model::scan_ready(std::uint64_t scanned) const {
  if (!config_.model_scan) return 0;
  const std::uint64_t bytes =
      config_.upfront_scan ? profile_.stream_bytes : scanned;
  return static_cast<std::int64_t>(static_cast<double>(bytes) / rate_);
}

/// Lays out GOPs and pictures in decode order. A picture waits for the
/// newest reference picture before it (a B picture for the older one
/// too); the reference chain restarts at every GOP, except under kSlice
/// at an open GOP, whose leading pictures reference the previous GOP.
void Model::build() {
  const bool per_gop_chain = config_.granularity != Granularity::kSlice;
  // The scan track: when the tracer has a track beyond the workers, it
  // records the scan process as per-GOP kScan spans, named "scan" so the
  // analyzer classifies it as a process track.
  obs::Tracer* const tracer = config_.tracer;
  int scan_track = -1;
  if (tracer && config_.model_scan && tracer->tracks() > config_.workers) {
    scan_track = config_.workers;
    if (tracer->track(scan_track).name().empty()) {
      tracer->track(scan_track).set_name("scan");
    }
  }
  std::int64_t scan_prev = 0;
  std::uint64_t scanned = 0;
  int display_base = 0;
  int older = -1, newest = -1;
  unclaimed_.assign(static_cast<std::size_t>(clusters_), 0);
  for (std::size_t g = 0; g < profile_.gops.size(); ++g) {
    const GopCost& gc = profile_.gops[g];
    scanned += gc.stream_bytes;
    const auto scan_end = static_cast<std::int64_t>(
        static_cast<double>(scanned) / rate_);
    if (scan_track >= 0 && scan_end > scan_prev) {
      tracer->emit(scan_track, obs::SpanKind::kScan, scan_prev, scan_end, -1,
                   -1, static_cast<int>(g));
      scan_prev = scan_end;
    }
    Gop gop;
    gop.cost = &gc;
    gop.first_pic = static_cast<int>(pics_.size());
    gop.display_base = display_base;
    gop.home = static_cast<int>(g) % clusters_;
    gop.scanned = scan_ready(scanned);
    gop.pictures_left = static_cast<int>(gc.pictures.size());
    gops_.push_back(gop);
    ++unclaimed_[static_cast<std::size_t>(gop.home)];
    if (per_gop_chain || gc.closed) older = newest = -1;
    for (std::size_t p = 0; p < gc.pictures.size(); ++p) {
      const PictureCost& pc = gc.pictures[p];
      Pic pic;
      pic.cost = &pc;
      pic.gop = static_cast<int>(g);
      pic.pic_in_gop = static_cast<int>(p);
      pic.display_index = display_base + pc.temporal_reference;
      if (pc.type == mpeg2::PictureType::kP) {
        pic.refs[0] = newest;
      } else if (pc.type == mpeg2::PictureType::kB) {
        pic.refs[0] = older;
        pic.refs[1] = newest;
      }
      if (pc.type != mpeg2::PictureType::kB) {
        older = newest;
        newest = static_cast<int>(pics_.size());
      }
      pics_.push_back(pic);
    }
    display_base += static_cast<int>(gc.pictures.size());
  }
  result_.pictures = display_base;
  queues_.resize(config_.numa_local_queues
                     ? static_cast<std::size_t>(clusters_)
                     : 1);
  if (config_.granularity == Granularity::kSlice) {
    session_.max_open = std::max(1, config_.max_open_pictures);
    chains_.push_back(&session_);
  }
  for (int w = 0; w < config_.workers; ++w) idle_.push_back({0, w});
}

/// One slice's cost: its decode, or the concealment copy when the fault
/// model marks it corrupt.
std::int64_t Model::slice_cost(const Pic& pic, int s) {
  std::int64_t ns = config_.conceal_cost_ns;
  if (slice_faulted(config_, pic.gop, pic.pic_in_gop, s)) {
    ++result_.concealed_slices;
  } else {
    ns = profile_.slice_cost_ns(pic.cost->slices[static_cast<std::size_t>(s)],
                                config_.measured_costs);
  }
  return static_cast<std::int64_t>(static_cast<double>(ns) *
                                   config_.cost_scale);
}

/// When the next GOP enters the queue: at its scan end, and under
/// max_queued_gops not before GOP g - bound left it (kInf until it has).
std::int64_t Model::next_admission() const {
  if (next_admit_ >= gops_.size()) return kInf;
  const Gop& gop = gops_[next_admit_];
  const int bound = config_.max_queued_gops;
  if (bound > 0 && next_admit_ >= static_cast<std::size_t>(bound)) {
    return std::max(gop.scanned, gops_[next_admit_ - bound].left_queue);
  }
  return gop.scanned;
}

void Model::admit(std::int64_t now) {
  for (std::int64_t t = next_admission(); t <= now; t = next_admission()) {
    const int g = static_cast<int>(next_admit_++);
    Gop& gop = gops_[static_cast<std::size_t>(g)];
    gop.admitted = t;
    if (config_.granularity != Granularity::kSlice) {
      queues_[config_.numa_local_queues ? static_cast<std::size_t>(gop.home)
                                        : 0]
          .push_back(g);
      continue;
    }
    ++result_.exploded_gops;
    gop.exploded = true;
    session_.end += static_cast<int>(gop.cost->pictures.size());
    if (gop.cost->pictures.empty()) leave_queue(g, t);
  }
}

/// Opens the chain's pictures that may open at `now`: in decode order,
/// references complete, fewer than max_open open. A picture is one task
/// per slice.
void Model::open_eligible(Chain& chain, std::int64_t now) {
  while (chain.next < chain.end && chain.open < chain.max_open) {
    Pic& pic = pics_[static_cast<std::size_t>(chain.next)];
    for (const int r : pic.refs) {
      if (r >= 0 && !pics_[static_cast<std::size_t>(r)].complete) return;
    }
    pic.alloc = now;
    pic.remaining = static_cast<int>(pic.cost->slices.size());
    mem_.emplace_back(now, fb_);
    if (pic.pic_in_gop == 0 && config_.granularity == Granularity::kSlice) {
      leave_queue(pic.gop, now);
    }
    ++chain.open;
    ++chain.next;
  }
}

/// The lowest open picture with an unclaimed task, or -1.
int Model::find_slice() {
  for (Chain* chain : chains_) {
    for (int i = chain->first_active; i < chain->next; ++i) {
      const Pic& pic = pics_[static_cast<std::size_t>(i)];
      if (pic.complete && i == chain->first_active) {
        ++chain->first_active;
        continue;
      }
      if (!pic.complete &&
          pic.next_slice < static_cast<int>(pic.cost->slices.size())) {
        return i;
      }
    }
  }
  return -1;
}

/// Worker `w`'s next GOP from the queue, or -1. With per-cluster queues a
/// worker waits for its own cluster's GOPs while any remain unclaimed,
/// then takes the head scanned first.
int Model::pop_gop(int w) {
  std::size_t q = 0;
  if (config_.numa_local_queues) {
    const auto own = static_cast<std::size_t>(cluster_of(w));
    if (unclaimed_[own] > 0) {
      q = own;
    } else {
      std::int64_t best = kInf;
      for (std::size_t i = 0; i < queues_.size(); ++i) {
        if (queues_[i].empty()) continue;
        const std::int64_t t =
            gops_[static_cast<std::size_t>(queues_[i].front())].admitted;
        if (t < best) {
          best = t;
          q = i;
        }
      }
    }
  }
  if (queues_[q].empty()) return -1;
  const int g = queues_[q].front();
  queues_[q].pop_front();
  --unclaimed_[static_cast<std::size_t>(
      gops_[static_cast<std::size_t>(g)].home)];
  return g;
}

/// Whether a worker other than `w` found nothing to claim.
bool Model::other_idle(int w) const {
  return std::any_of(idle_.begin(), idle_.end(), [w](const Idle& i) {
    return i.asleep && i.id != w;
  });
}

/// Hands worker `w` one claim at `now`, if it can take one.
bool Model::try_assign(const Idle& w, std::int64_t now) {
  int p = find_slice();
  if (p < 0) {
    const int g = pop_gop(w.id);
    if (g < 0) return false;
    Gop& gop = gops_[static_cast<std::size_t>(g)];
    if (config_.granularity != Granularity::kAdaptive ||
        gop.cost->pictures.empty() || !other_idle(w.id)) {
      ++result_.gop_mode_gops;
      run_whole(w, now, g);
      return true;
    }
    ++result_.exploded_gops;
    leave_queue(g, now + config_.queue_overhead_ns);
    split(g, gop.first_pic, now);
    p = find_slice();
    assert(p >= 0);
  }
  run_slice(w, now, p);
  return true;
}

/// Puts GOP `g`'s pictures from `from` on a chain of its own.
void Model::split(int g, int from, std::int64_t now) {
  Gop& gop = gops_[static_cast<std::size_t>(g)];
  gop.exploded = true;
  gop.chain.begin = gop.chain.next = gop.chain.first_active = from;
  gop.chain.end =
      gop.first_pic + static_cast<int>(gop.cost->pictures.size());
  chains_.insert(std::lower_bound(chains_.begin(), chains_.end(), from,
                                  [](const Chain* c, int first) {
                                    return c->begin < first;
                                  }),
                 &gop.chain);
  open_eligible(gop.chain, now);
}

/// A whole-GOP claim: its pictures in decode order on worker `w`, one
/// event per picture, so under kAdaptive the claim can split at any
/// picture boundary (complete()).
void Model::run_whole(const Idle& w, std::int64_t now, int g) {
  Gop& gop = gops_[static_cast<std::size_t>(g)];
  const std::int64_t start = now + config_.queue_overhead_ns;
  leave_queue(g, start);
  auto& stats = result_.workers[static_cast<std::size_t>(w.id)];
  stats.sync_ns += start - w.since;
  wait_span(w, now, start, obs::SpanKind::kQueueWait);
  const bool remote =
      config_.cluster_size > 0 && cluster_of(w.id) != gop.home;
  if (remote) ++stats.remote_tasks;
  gop.penalty = remote ? config_.remote_penalty : 1.0;
  if (gop.cost->pictures.empty()) {
    end_whole(w.id, g, start, start);
    events_.push({start, w.id, g, -1});
  } else {
    events_.push({run_whole_pic(w.id, gop.first_pic, start), w.id, g,
                  gop.first_pic});
  }
}

/// Picture `p` of a whole claim on worker `w` from `t`; returns its end.
std::int64_t Model::run_whole_pic(int w, int p, std::int64_t t) {
  Pic& pic = pics_[static_cast<std::size_t>(p)];
  std::int64_t cost = 0;
  for (int s = 0; s < static_cast<int>(pic.cost->slices.size()); ++s) {
    cost += slice_cost(pic, s);
  }
  cost = static_cast<std::int64_t>(
      static_cast<double>(cost) *
      gops_[static_cast<std::size_t>(pic.gop)].penalty);
  pic.alloc = t;
  mem_.emplace_back(t, fb_);
  result_.workers[static_cast<std::size_t>(w)].busy_ns += cost;
  pic.completion = t + cost;
  if (config_.tracer) {
    config_.tracer->emit(w, obs::SpanKind::kPicture, t, pic.completion,
                         pic.display_index, -1, pic.gop);
  }
  return pic.completion;
}

/// Ends worker `w`'s whole claim of GOP `g`, run from `begin` to `end`:
/// its last picture, or where it split.
void Model::end_whole(int w, int g, std::int64_t begin, std::int64_t end) {
  const Gop& gop = gops_[static_cast<std::size_t>(g)];
  ++result_.workers[static_cast<std::size_t>(w)].tasks;
  if (config_.tracer) {
    config_.tracer->emit(w, obs::SpanKind::kGopTask, begin, end, -1, -1, g);
  }
  // The GOP's bytes sit in the stream buffer from admission to claim end.
  const auto bytes = static_cast<std::int64_t>(gop.cost->stream_bytes);
  stream_.emplace_back(gop.admitted, bytes);
  stream_.emplace_back(end, -bytes);
}

/// The next slice task of open picture `p` on worker `w`.
void Model::run_slice(const Idle& w, std::int64_t now, int p) {
  Pic& pic = pics_[static_cast<std::size_t>(p)];
  const int s = pic.next_slice++;
  std::int64_t cost = slice_cost(pic, s);
  if (s == 0) cost += config_.picture_overhead_ns;
  const bool remote =
      config_.cluster_size > 0 && cluster_of(w.id) != p % clusters_;
  if (remote) {
    cost = static_cast<std::int64_t>(static_cast<double>(cost) *
                                     config_.remote_penalty);
  }
  const std::int64_t start = now + config_.queue_overhead_ns;
  auto& stats = result_.workers[static_cast<std::size_t>(w.id)];
  stats.sync_ns += start - w.since;
  stats.busy_ns += cost;
  ++stats.tasks;
  if (remote) ++stats.remote_tasks;
  wait_span(w, now, start, stall_);
  if (config_.tracer) {
    config_.tracer->emit(w.id, obs::SpanKind::kSliceTask, start, start + cost,
                         p, s);
  }
  events_.push({start + cost, w.id, pic.gop, p});
}

/// Settles a finished task and frees its worker, unless a whole claim
/// goes on with its next picture; returns the pictures it completed. Under
/// kAdaptive a whole claim splits after a picture when another worker is
/// idle and pictures remain.
int Model::complete(const Event& e) {
  Gop& gop = gops_[static_cast<std::size_t>(e.gop)];
  Pic* pic = e.pic >= 0 ? &pics_[static_cast<std::size_t>(e.pic)] : nullptr;
  if (!pic || (gop.exploded && --pic->remaining > 0)) {
    idle_.push_back({e.finish, e.worker});
    return 0;
  }
  pic->complete = true;
  pic->completion = e.finish;
  for (const int r : pic->refs) {
    if (r >= 0) {
      auto& ref = pics_[static_cast<std::size_t>(r)];
      ref.last_ref_use = std::max(ref.last_ref_use, e.finish);
    }
  }
  if (!gop.exploded) {
    if (--gop.pictures_left > 0 &&
        (config_.granularity != Granularity::kAdaptive ||
         !other_idle(e.worker))) {
      events_.push({run_whole_pic(e.worker, e.pic + 1, e.finish), e.worker,
                    e.gop, e.pic + 1});
      return 1;
    }
    end_whole(e.worker, e.gop,
              pics_[static_cast<std::size_t>(gop.first_pic)].alloc, e.finish);
    if (gop.pictures_left > 0) {
      --result_.gop_mode_gops;
      ++result_.exploded_gops;
      split(e.gop, e.pic + 1, e.finish);
    }
  } else {
    Chain& chain =
        config_.granularity == Granularity::kSlice ? session_ : gop.chain;
    --chain.open;
    if (--gop.pictures_left == 0 && &chain != &session_) {
      chains_.erase(std::find(chains_.begin(), chains_.end(), &chain));
    }
  }
  idle_.push_back({e.finish, e.worker});
  return 1;
}

/// Why idle workers are stalling right now, mirroring the engine: a chain
/// at its open bound -> backpressure; a picture waiting on references ->
/// barrier; otherwise the queue is empty (the scan is behind).
obs::SpanKind Model::stall_kind() const {
  obs::SpanKind kind = obs::SpanKind::kQueueWait;
  for (const Chain* chain : chains_) {
    if (chain->next >= chain->end) continue;
    if (chain->open >= chain->max_open) return obs::SpanKind::kBackpressure;
    kind = obs::SpanKind::kBarrierWait;
  }
  return kind;
}

SimResult Model::run() {
  int remaining = result_.pictures;
  std::int64_t now = 0;
  while (remaining > 0) {
    admit(now);
    for (Chain* chain : chains_) open_eligible(*chain, now);
    // Hand out work earliest-idle first until no idle worker can progress.
    bool assigned = true;
    while (assigned && !idle_.empty()) {
      assigned = false;
      std::stable_sort(idle_.begin(), idle_.end(),
                       [](const Idle& a, const Idle& b) {
                         return a.since < b.since;
                       });
      for (std::size_t i = 0; i < idle_.size(); ++i) {
        if (try_assign(idle_[i], now)) {
          idle_.erase(idle_.begin() + static_cast<std::ptrdiff_t>(i));
          assigned = true;
          break;
        }
      }
    }
    if (!idle_.empty()) stall_ = stall_kind();
    for (Idle& i : idle_) i.asleep = true;

    // Advance virtual time to the next completion or admission.
    const std::int64_t arrival = next_admission();
    if (!events_.empty() && events_.top().finish <= arrival) {
      const Event e = events_.top();
      events_.pop();
      now = std::max(now, e.finish);
      remaining -= complete(e);
    } else if (arrival != kInf) {
      now = std::max(now, arrival);
    } else {
      // No events, no admissions, yet pictures remain: the profile is
      // malformed (should be unreachable).
      assert(events_.empty());
      break;
    }
  }

  std::vector<std::int64_t> completion(
      static_cast<std::size_t>(result_.pictures), 0);
  for (const Pic& pic : pics_) {
    completion[static_cast<std::size_t>(pic.display_index)] = pic.completion;
  }
  // Display order: picture i displays when complete and all earlier
  // pictures have displayed (optionally paced at the frame rate).
  std::vector<std::int64_t> display(completion.size());
  const auto period = static_cast<std::int64_t>(1e9 / profile_.frame_rate);
  std::int64_t prev = -period;
  for (std::size_t i = 0; i < display.size(); ++i) {
    std::int64_t t = std::max(completion[i], prev);
    if (config_.paced_display) t = std::max(t, prev + period);
    display[i] = t;
    prev = t;
  }
  result_.makespan_ns = display.empty() ? 0 : display.back();

  // Frame latency: display minus the time the picture's bytes passed the
  // scan head. Pictures within a GOP arrive in equal shares of its bytes —
  // deliberately finer than the per-GOP admission, so latencies include
  // the GOP-boundary admission delay. Clamped at zero: an instant decode
  // can display a frame at its arrival instant.
  result_.frame_latency_ns.resize(display.size());
  std::uint64_t scanned = 0;
  for (const Gop& gop : gops_) {
    const auto& pictures = gop.cost->pictures;
    const std::uint64_t per_pic =
        pictures.empty() ? 0 : gop.cost->stream_bytes / pictures.size();
    for (const PictureCost& pc : pictures) {
      scanned += per_pic;
      const auto i =
          static_cast<std::size_t>(gop.display_base + pc.temporal_reference);
      result_.frame_latency_ns[i] =
          std::max<std::int64_t>(0, display[i] - scan_ready(scanned));
    }
  }

  for (const Pic& pic : pics_) {
    const Gop& gop = gops_[static_cast<std::size_t>(pic.gop)];
    std::int64_t freed =
        display[static_cast<std::size_t>(pic.display_index)];
    if (gop.exploded) {
      freed = std::max(freed, pic.last_ref_use);
    } else {
      // A whole claim holds every frame of its GOP until the GOP ends.
      const int last = gop.first_pic +
                       static_cast<int>(gop.cost->pictures.size()) - 1;
      freed =
          std::max(freed, pics_[static_cast<std::size_t>(last)].completion);
    }
    mem_.emplace_back(freed, -fb_);
  }
  std::sort(stream_.begin(), stream_.end());
  mem_.insert(mem_.end(), stream_.begin(), stream_.end());
  build_timeline(std::move(mem_), result_);
  std::int64_t bytes = 0;
  for (const auto& [t, delta] : stream_) {
    bytes += delta;
    result_.peak_stream_bytes = std::max(result_.peak_stream_bytes, bytes);
  }
  return std::move(result_);
}

}  // namespace

std::int64_t SimResult::min_busy_ns() const {
  std::int64_t v = kInf;
  for (const auto& w : workers) v = std::min(v, w.busy_ns);
  return workers.empty() ? 0 : v;
}

std::int64_t SimResult::max_busy_ns() const {
  std::int64_t v = 0;
  for (const auto& w : workers) v = std::max(v, w.busy_ns);
  return v;
}

double SimResult::avg_busy_ns() const {
  if (workers.empty()) return 0.0;
  double sum = 0;
  for (const auto& w : workers) sum += static_cast<double>(w.busy_ns);
  return sum / static_cast<double>(workers.size());
}

double SimResult::sync_ratio() const {
  if (workers.empty()) return 0.0;
  double sum = 0;
  int counted = 0;
  for (const auto& w : workers) {
    const double total = static_cast<double>(w.sync_ns + w.busy_ns);
    if (total > 0) {
      sum += static_cast<double>(w.sync_ns) / total;
      ++counted;
    }
  }
  return counted > 0 ? sum / counted : 0.0;
}

std::int64_t SimResult::latency_percentile(double q) const {
  if (frame_latency_ns.empty()) return 0;
  std::vector<std::int64_t> sorted = frame_latency_ns;
  std::sort(sorted.begin(), sorted.end());
  const double clamped = std::clamp(q, 0.0, 100.0);
  // Linear interpolation between order statistics (the "linear" definition
  // used by numpy.percentile): rank in [0, n-1].
  const double rank =
      clamped / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return static_cast<std::int64_t>(
      static_cast<double>(sorted[lo]) +
      frac * static_cast<double>(sorted[hi] - sorted[lo]));
}

parallel::WorkerLoadSummary SimResult::load_summary() const {
  std::vector<std::int64_t> busy, sync, idle;
  std::vector<std::uint64_t> tasks;
  busy.reserve(workers.size());
  sync.reserve(workers.size());
  idle.reserve(workers.size());
  tasks.reserve(workers.size());
  for (const auto& w : workers) {
    busy.push_back(w.busy_ns);
    sync.push_back(w.sync_ns);
    idle.push_back(
        std::max<std::int64_t>(0, makespan_ns - w.busy_ns - w.sync_ns));
    tasks.push_back(static_cast<std::uint64_t>(w.tasks));
  }
  return parallel::summarize_load(busy, sync, idle, tasks);
}

SimResult simulate(const StreamProfile& profile, const SimConfig& config) {
  return Model(profile, config).run();
}

}  // namespace pmp2::sched
