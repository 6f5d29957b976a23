#include "sched/adaptive.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <queue>
#include <vector>

#include "obs/tracer.h"
#include "sched/sim_internal.h"

namespace pmp2::sched {

using detail::display_times;
using detail::faulted_task_cost;
using detail::fill_latencies;
using detail::kInf;
using detail::picture_arrivals;
using detail::scan_rate;
using detail::scan_ready_ns;
using detail::ScanTrack;

namespace {

/// One GOP task as the adaptive scheduler sees it.
struct AGop {
  const GopCost* cost = nullptr;
  int index = 0;
  int owner = 0;         // deque this GOP arrives on (index % workers)
  int display_base = 0;  // display index of its first picture
  std::int64_t ready = 0;
  std::uint64_t bytes = 0;
};

/// Per-picture state of an exploded GOP (decode order, GOP-local deps).
struct APic {
  const PictureCost* cost = nullptr;
  int gop = 0;
  int pic_in_gop = 0;
  int display_index = 0;
  int deps[2] = {-1, -1};  // improved-policy deps, indices into the same GOP
  bool open = false;
  bool complete = false;
  int next_slice = 0;
  int remaining = 0;
};

/// Runtime of one exploded GOP: strict decode-order opening bounded by
/// max_open_pictures, mirroring the improved slice coordinator but scoped
/// to the GOP (closed GOPs have GOP-private references).
struct Exploded {
  int first_pic = 0;  // global index of the GOP's first picture
  int count = 0;
  int next_to_open = 0;  // relative to first_pic
  int open_count = 0;
  int completed = 0;
  std::int64_t cost_ns = 0;  // accumulated slice cost (EWMA feedback)
};

}  // namespace

SimResult simulate_adaptive(const StreamProfile& profile,
                            const SimConfig& config,
                            const AdaptivePolicy& policy) {
  SimResult result;
  result.workers.resize(static_cast<std::size_t>(config.workers));
  const double rate = scan_rate(profile, config);
  const int max_open = std::max(1, config.max_open_pictures);

  // Build the GOP task list and the (lazily used) per-picture DAG.
  std::vector<AGop> gops;
  std::vector<APic> pics;
  std::vector<int> first_pic_of_gop;
  {
    ScanTrack scan_track(config);
    std::uint64_t scanned = 0;
    int display_base = 0;
    for (std::size_t g = 0; g < profile.gops.size(); ++g) {
      const GopCost& gc = profile.gops[g];
      scanned += gc.stream_bytes;
      scan_track.gop_scanned(static_cast<int>(g),
                             static_cast<std::int64_t>(
                                 static_cast<double>(scanned) / rate));
      AGop t;
      t.cost = &gc;
      t.index = static_cast<int>(g);
      t.owner = static_cast<int>(g) % config.workers;
      t.display_base = display_base;
      t.ready = scan_ready_ns(profile, config, rate, scanned);
      t.bytes = gc.stream_bytes;
      gops.push_back(t);

      first_pic_of_gop.push_back(static_cast<int>(pics.size()));
      int older = -1, newest = -1;  // GOP-local decode-order indices
      for (std::size_t p = 0; p < gc.pictures.size(); ++p) {
        const PictureCost& pc = gc.pictures[p];
        APic pic;
        pic.cost = &pc;
        pic.gop = static_cast<int>(g);
        pic.pic_in_gop = static_cast<int>(p);
        pic.display_index = display_base + pc.temporal_reference;
        switch (pc.type) {
          case mpeg2::PictureType::kI:
            break;
          case mpeg2::PictureType::kP:
            pic.deps[0] = newest;
            break;
          case mpeg2::PictureType::kB:
            pic.deps[0] = older;
            pic.deps[1] = newest;
            break;
        }
        if (pc.type != mpeg2::PictureType::kB) {
          older = newest;
          newest = static_cast<int>(p);
        }
        pics.push_back(pic);
      }
      display_base += static_cast<int>(gc.pictures.size());
    }
    result.pictures = display_base;
  }

  // Scheduler state.
  std::vector<std::deque<int>> deques(
      static_cast<std::size_t>(config.workers));
  std::vector<Exploded> exploded(gops.size());
  std::vector<int> active_exploded;  // sorted GOP indices, still incomplete
  CostEwma ewma;
  std::vector<std::int64_t> whole_cost(gops.size(), 0);  // EWMA feedback
  std::size_t next_arrival = 0;
  int queued = 0;  // GOP tasks sitting in deques
  int remaining_pictures = result.pictures;
  std::vector<std::int64_t> completion_by_display(
      static_cast<std::size_t>(result.pictures), 0);

  struct IdleWorker {
    std::int64_t since;
    int id;
  };
  std::vector<IdleWorker> idle;
  for (int w = 0; w < config.workers; ++w) idle.push_back({0, w});

  struct Event {
    std::int64_t finish;
    int worker;
    int gop;    // GOP index for both kinds
    int pic;    // -1 = whole-GOP completion, else global picture index
    bool operator>(const Event& o) const {
      if (finish != o.finish) return finish > o.finish;
      if (worker != o.worker) return worker > o.worker;
      if (gop != o.gop) return gop > o.gop;
      return pic > o.pic;
    }
  };
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events;

  auto admit_arrivals = [&](std::int64_t now) {
    while (next_arrival < gops.size() && gops[next_arrival].ready <= now) {
      deques[static_cast<std::size_t>(gops[next_arrival].owner)].push_back(
          static_cast<int>(next_arrival));
      ++next_arrival;
      ++queued;
    }
  };

  // Opens decode-order-eligible pictures of one exploded GOP.
  auto open_eligible = [&](Exploded& ex) {
    while (ex.next_to_open < ex.count && ex.open_count < max_open) {
      APic& pic = pics[static_cast<std::size_t>(ex.first_pic +
                                                ex.next_to_open)];
      bool deps_ok = true;
      for (const int d : pic.deps) {
        if (d >= 0 &&
            !pics[static_cast<std::size_t>(ex.first_pic + d)].complete) {
          deps_ok = false;
          break;
        }
      }
      if (!deps_ok) break;
      pic.open = true;
      pic.remaining = static_cast<int>(pic.cost->slices.size());
      ++ex.open_count;
      ++ex.next_to_open;
    }
  };

  // First claimable (pic, slice) across exploded GOPs, lowest GOP index
  // first so the frames closest to display drain first.
  auto find_slice = [&]() -> int {
    for (const int g : active_exploded) {
      Exploded& ex = exploded[static_cast<std::size_t>(g)];
      open_eligible(ex);
      for (int i = 0; i < ex.next_to_open; ++i) {
        APic& pic = pics[static_cast<std::size_t>(ex.first_pic + i)];
        if (pic.open && !pic.complete &&
            pic.next_slice < static_cast<int>(pic.cost->slices.size())) {
          return ex.first_pic + i;
        }
      }
    }
    return -1;
  };

  // Runs one GOP whole on worker `w` starting at `now` (simulate_gop's
  // inner loop: per-picture completion times, no per-picture overhead).
  auto run_whole = [&](int w, std::int64_t now, const AGop& task) {
    auto& stats = result.workers[static_cast<std::size_t>(w)];
    const std::int64_t start = now + config.queue_overhead_ns;
    stats.sync_ns += config.queue_overhead_ns;
    std::int64_t t = start;
    for (std::size_t p = 0; p < task.cost->pictures.size(); ++p) {
      const PictureCost& pic = task.cost->pictures[p];
      std::int64_t cost = 0;
      for (std::size_t s = 0; s < pic.slices.size(); ++s) {
        cost += faulted_task_cost(profile, pic.slices[s], config, task.index,
                                  static_cast<int>(p), static_cast<int>(s),
                                  result.concealed_slices);
      }
      const std::int64_t alloc = t;
      t += cost;
      stats.busy_ns += cost;
      whole_cost[static_cast<std::size_t>(task.index)] += cost;
      completion_by_display[static_cast<std::size_t>(
          task.display_base + pic.temporal_reference)] = t;
      if (config.tracer) {
        config.tracer->emit(w, obs::SpanKind::kPicture, alloc, t,
                            task.display_base + pic.temporal_reference, -1,
                            task.index);
      }
    }
    ++stats.tasks;
    if (config.tracer) {
      config.tracer->emit(w, obs::SpanKind::kGopTask, start, t, -1, -1,
                          task.index);
    }
    events.push({t, w, task.index, -1});
  };

  // Tries to hand worker `w` one unit of work at time `now`.
  auto try_assign = [&](const IdleWorker& w, std::int64_t now) -> bool {
    auto& stats = result.workers[static_cast<std::size_t>(w.id)];
    // 1) Backfill an exploded GOP's slice (always shared work).
    // 2) Pop the worker's own deque, deciding granularity at pop time; an
    //    explosion publishes slice tasks and the same worker claims the
    //    first one.
    // 3) Steal a whole GOP task from the next victim in steal_order.
    int p = find_slice();
    if (p < 0 && !deques[static_cast<std::size_t>(w.id)].empty()) {
      const int g = deques[static_cast<std::size_t>(w.id)].front();
      deques[static_cast<std::size_t>(w.id)].pop_front();
      const AGop& task = gops[static_cast<std::size_t>(g)];
      if (!task.cost->pictures.empty() &&
          should_explode(policy, config.workers, queued, ewma, task.bytes)) {
        --queued;
        ++result.exploded_gops;
        Exploded& ex = exploded[static_cast<std::size_t>(g)];
        ex.first_pic = first_pic_of_gop[static_cast<std::size_t>(g)];
        ex.count = static_cast<int>(task.cost->pictures.size());
        active_exploded.insert(
            std::lower_bound(active_exploded.begin(), active_exploded.end(),
                             g),
            g);
        p = find_slice();
        assert(p >= 0);
      } else {
        --queued;
        ++result.gop_mode_gops;
        stats.sync_ns += now - w.since;
        if (config.tracer && now > w.since) {
          config.tracer->emit(w.id, obs::SpanKind::kQueueWait, w.since, now);
        }
        run_whole(w.id, now, task);
        return true;
      }
    }
    if (p < 0) {
      for (const int v : steal_order(w.id, config.workers)) {
        if (deques[static_cast<std::size_t>(v)].empty()) continue;
        const int g = deques[static_cast<std::size_t>(v)].front();
        deques[static_cast<std::size_t>(v)].pop_front();
        const AGop& task = gops[static_cast<std::size_t>(g)];
        if (!task.cost->pictures.empty() &&
            should_explode(policy, config.workers, queued, ewma,
                           task.bytes)) {
          --queued;
          ++result.exploded_gops;
          Exploded& ex = exploded[static_cast<std::size_t>(g)];
          ex.first_pic = first_pic_of_gop[static_cast<std::size_t>(g)];
          ex.count = static_cast<int>(task.cost->pictures.size());
          active_exploded.insert(
              std::lower_bound(active_exploded.begin(),
                               active_exploded.end(), g),
              g);
          p = find_slice();
          assert(p >= 0);
        } else {
          --queued;
          ++result.gop_mode_gops;
          ++result.stolen_tasks;
          ++stats.stolen_tasks;
          stats.sync_ns += now - w.since;
          if (config.tracer && now > w.since) {
            config.tracer->emit(w.id, obs::SpanKind::kQueueWait, w.since,
                                now);
          }
          run_whole(w.id, now, task);
          return true;
        }
        break;
      }
    }
    if (p < 0) return false;

    APic& pic = pics[static_cast<std::size_t>(p)];
    const int s = pic.next_slice++;
    std::int64_t cost = faulted_task_cost(
        profile, pic.cost->slices[static_cast<std::size_t>(s)], config,
        pic.gop, pic.pic_in_gop, s, result.concealed_slices);
    if (s == 0) cost += config.picture_overhead_ns;
    const std::int64_t start = now + config.queue_overhead_ns;
    stats.sync_ns += now - w.since;
    stats.busy_ns += cost + config.queue_overhead_ns;
    ++stats.tasks;
    exploded[static_cast<std::size_t>(pic.gop)].cost_ns += cost;
    if (gops[static_cast<std::size_t>(pic.gop)].owner != w.id) {
      ++stats.stolen_tasks;
      ++result.stolen_tasks;
    }
    if (config.tracer) {
      if (now > w.since) {
        config.tracer->emit(w.id, obs::SpanKind::kQueueWait, w.since, now);
      }
      config.tracer->emit(w.id, obs::SpanKind::kSliceTask, start,
                          start + cost, p, s);
    }
    events.push({start + cost, w.id, pic.gop, p});
    return true;
  };

  std::int64_t now = 0;
  while (remaining_pictures > 0) {
    admit_arrivals(now);
    // Hand out work until no idle worker can make progress. Earliest-idle
    // first (FIFO fairness, matching the slice coordinator).
    bool assigned = true;
    while (assigned && !idle.empty()) {
      assigned = false;
      std::sort(idle.begin(), idle.end(),
                [](const IdleWorker& a, const IdleWorker& b) {
                  return a.since != b.since ? a.since < b.since
                                            : a.id < b.id;
                });
      for (std::size_t i = 0; i < idle.size(); ++i) {
        if (try_assign(idle[i], now)) {
          idle.erase(idle.begin() + static_cast<std::ptrdiff_t>(i));
          assigned = true;
          break;
        }
      }
    }

    // Advance virtual time to the next completion or arrival.
    const std::int64_t arrival =
        next_arrival < gops.size() ? gops[next_arrival].ready : kInf;
    if (!events.empty() && events.top().finish <= arrival) {
      const Event e = events.top();
      events.pop();
      now = std::max(now, e.finish);
      if (e.pic < 0) {
        // Whole-GOP completion: feed the predictor with the cost the task
        // actually ran at (recorded by run_whole, so faults count once).
        const AGop& task = gops[static_cast<std::size_t>(e.gop)];
        ewma.observe(whole_cost[static_cast<std::size_t>(e.gop)], task.bytes);
        remaining_pictures -= static_cast<int>(task.cost->pictures.size());
      } else {
        APic& pic = pics[static_cast<std::size_t>(e.pic)];
        if (--pic.remaining == 0) {
          pic.complete = true;
          completion_by_display[static_cast<std::size_t>(
              pic.display_index)] = e.finish;
          --remaining_pictures;
          Exploded& ex = exploded[static_cast<std::size_t>(e.gop)];
          --ex.open_count;
          if (++ex.completed == ex.count) {
            active_exploded.erase(
                std::find(active_exploded.begin(), active_exploded.end(),
                          e.gop));
            ewma.observe(ex.cost_ns,
                         gops[static_cast<std::size_t>(e.gop)].bytes);
          }
        }
      }
      idle.push_back({e.finish, e.worker});
    } else if (arrival != kInf) {
      now = std::max(now, arrival);
    } else if (events.empty()) {
      // No events, no arrivals, yet pictures remain: the profile is
      // malformed (should be unreachable).
      assert(remaining_pictures == 0);
      break;
    }
  }

  const auto displays =
      display_times(completion_by_display, config, profile.frame_rate);
  result.makespan_ns = displays.empty() ? 0 : displays.back();
  fill_latencies(displays, picture_arrivals(profile, config, rate), result);
  return result;
}

}  // namespace pmp2::sched
