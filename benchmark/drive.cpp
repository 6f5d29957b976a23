#include "drive.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "parallel/adaptive/adaptive_decoder.h"
#include "serve/server.h"

namespace pmp2::benchmark {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::int64_t kPollNs = 250'000;
// How often a session whose frames are not all displayed yet is asked for
// its state: the state lock is the server's scheduling mutex.
constexpr std::int64_t kStateCheckNs = 2'000'000;
constexpr std::int64_t kDrainTimeoutNs = 60'000'000'000;
constexpr std::size_t kMaxFailureNotes = 8;
constexpr double kMiB = 1024.0 * 1024.0;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

void sleep_until_ns(std::int64_t t) {
  std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(t)));
}

double frame_mb(const Input& in) {
  return in.width * in.height * 1.5 / kMiB;
}

void note_failure(Phase& ph, const Input& in, std::string why) {
  ++ph.failed;
  if (ph.failures.size() < kMaxFailureNotes) {
    ph.failures.push_back(in.label + ": " + std::move(why));
  }
}

/// Where `live`'s telemetry clock started, on ours: the tightest of a few
/// bracketed reads, so a preemption between the reads cannot skew it.
std::int64_t epoch_on_our_clock(const obs::live::LiveTelemetry& live) {
  std::int64_t best_width = -1;
  std::int64_t epoch = 0;
  for (int i = 0; i < 4; ++i) {
    const std::int64_t before = now_ns();
    const std::int64_t theirs = live.now_ns();
    const std::int64_t after = now_ns();
    if (best_width < 0 || after - before < best_width) {
      best_width = after - before;
      epoch = before + (after - before) / 2 - theirs;
    }
  }
  return epoch;
}

bool terminal(serve::SessionState s) {
  return s != serve::SessionState::kQueued &&
         s != serve::SessionState::kRunning;
}

serve::ServerConfig server_config() {
  serve::ServerConfig config;
  config.workers = kWorkers;
  config.watchdog_ns = kWatchdogNs;
  config.admission.max_queued = 1 << 16;  // queue, never bounce
  return config;
}

parallel::AdaptiveDecoderConfig adaptive_config() {
  parallel::AdaptiveDecoderConfig config;
  config.workers = kWorkers;
  config.watchdog_ns = kWatchdogNs;
  return config;
}

/// Why a terminal session's output is wrong; empty when it matches.
std::string check_session(const serve::SessionResult& r, const Input& in) {
  if (r.state != serve::SessionState::kFinished) {
    return "state " + std::string(serve::session_state_name(r.state));
  }
  if (r.hung) return "hung";
  if (r.pictures_delivered != in.pictures) {
    return "delivered " + std::to_string(r.pictures_delivered) + " of " +
           std::to_string(in.pictures) + " pictures";
  }
  if (r.checksum != in.checksum) return "checksum differs from the oracle";
  if (r.pool_idle != r.pool_misses) return "leaked frames";
  return {};
}

std::string check_run(const parallel::RunResult& r, int shown,
                      const Input& in) {
  if (r.hung) return "hung";
  if (!r.ok) return "decode failed";
  if (shown != in.pictures) {
    return "delivered " + std::to_string(shown) + " of " +
           std::to_string(in.pictures) + " pictures";
  }
  if (r.checksum != in.checksum) return "checksum differs from the oracle";
  return {};
}

}  // namespace

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto s = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + t.tv_usec * 1e-6;
  };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

Rig::Rig(const Plan& plan) : plan_(plan) {
  if (plan_.server) {
    server_ = std::make_unique<serve::DecodeServer>(server_config());
  }
}

Rig::~Rig() = default;

bool Rig::warm_up(std::string& error) {
  if (!server_) {
    const Input& in = plan_.inputs.front();
    int shown = 0;
    const parallel::RunResult r = parallel::AdaptiveDecoder(adaptive_config())
                                      .decode(in.bytes, [&](mpeg2::FramePtr) {
                                        ++shown;
                                      });
    error = check_run(r, shown, in);
    return error.empty();
  }
  std::vector<serve::SessionId> ids;
  for (const Input& in : plan_.inputs) {
    ids.push_back(server_->submit(in.bytes, {}));
  }
  bool ok = true;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const std::string why =
        check_session(server_->wait(ids[i]), plan_.inputs[i]);
    if (ok && !why.empty()) {
      error = plan_.inputs[i].label + ": " + why;
      ok = false;
    }
    server_->forget(ids[i]);
  }
  return ok;
}

Phase Rig::run(double seconds, double offset_s,
               obs::prof::StageProfiler* prof) {
  return server_ ? run_server(seconds, offset_s) : run_adaptive(seconds, prof);
}

Phase Rig::run_adaptive(double seconds, obs::prof::StageProfiler* prof) {
  Phase ph;
  parallel::AdaptiveDecoderConfig config = adaptive_config();
  config.prof = prof;
  parallel::AdaptiveDecoder decoder(config);
  std::vector<std::int64_t> busy(kWorkers), sync(kWorkers), idle(kWorkers);
  std::vector<std::uint64_t> tasks(kWorkers);

  const double cpu0 = process_cpu_s();
  const std::int64_t t0 = now_ns();
  const auto end = t0 + static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t due = t0;  // closed loop: due when the previous one ended
  while (now_ns() < end) {
    const Input& in = plan_.inputs[static_cast<std::size_t>(
        plan_.requests[next_request_++ % plan_.requests.size()])];
    int shown = 0;
    std::int64_t first = -1;
    const std::int64_t start = now_ns();
    const parallel::RunResult r =
        decoder.decode(in.bytes, [&](mpeg2::FramePtr) {
          if (shown++ == 0) first = now_ns();
        });
    const std::int64_t done = now_ns();
    ++ph.attempted;
    if (std::string why = check_run(r, shown, in); !why.empty()) {
      note_failure(ph, in, std::move(why));
    }
    ph.pictures += shown;
    ph.lag_ms.push_back(static_cast<double>(start - due) / 1e6);
    if (first >= 0) ph.ttff_ms.push_back(static_cast<double>(first - due) / 1e6);
    ph.gop_mode_gops += r.gop_mode_gops;
    ph.exploded_gops += r.exploded_gops;
    ph.stolen_tasks += static_cast<std::int64_t>(r.stolen_tasks);
    ph.pool_hits += r.pool_hits;
    ph.pool_misses += r.pool_misses;
    ph.peak_frame_mb = std::max(
        ph.peak_frame_mb, static_cast<double>(r.pool_misses) * frame_mb(in));
    for (std::size_t w = 0; w < r.workers.size() && w < busy.size(); ++w) {
      const parallel::WorkerStats& ws = r.workers[w];
      busy[w] += ws.compute_ns;
      sync[w] += ws.sync_ns;
      idle[w] += ws.idle_ns;
      tasks[w] += ws.tasks;
      ph.served_ns += ws.compute_ns;
    }
    due = done;
  }
  ph.wall_s = static_cast<double>(due - t0) / 1e9;
  ph.cpu_s = process_cpu_s() - cpu0;
  ph.load = parallel::summarize_load(busy, sync, idle, tasks);
  return ph;
}

Phase Rig::run_server(double seconds, double offset_s) {
  Phase ph;
  // One submitted session as the generator tracks it. Timestamps are on
  // the generator's clock except first_program_ns, which is the server's
  // own display timestamp on the session's telemetry epoch (admission).
  struct Active {
    serve::SessionId id = -1;
    int input = 0;
    int client = -1;  // closed loop: the client waiting for it
    std::int64_t due = 0;
    std::int64_t submit = 0;
    obs::live::SessionSurface* surface = nullptr;  // null until admitted
    std::int64_t epoch = 0;  // the surface's telemetry epoch, our clock
    std::int64_t last_look = 0;  // when the display cell was last sampled
    std::int64_t shown = 0;
    std::int64_t first_seen = -1;
    std::int64_t first_program_ns = -1;
    std::int64_t first_gap = 0;  // the window the first frame was seen in
    std::int64_t next_state_check = 0;
  };
  std::vector<Active> active;

  const std::vector<Arrival>& arrivals = plan_.arrivals;
  const auto offset = static_cast<std::int64_t>(offset_s * 1e9);
  const auto length = static_cast<std::int64_t>(seconds * 1e9);
  const auto by_due = [](const Arrival& a, std::int64_t t) {
    return a.due_ns < t;
  };
  std::size_t next_arrival = static_cast<std::size_t>(
      std::lower_bound(arrivals.begin(), arrivals.end(), offset, by_due) -
      arrivals.begin());
  const auto arrival_end = static_cast<std::size_t>(
      std::lower_bound(arrivals.begin(), arrivals.end(), offset + length,
                       by_due) -
      arrivals.begin());

  const parallel::WorkerLoadSummary load0 = server_->load_summary();
  const double cpu0 = process_cpu_s();
  const std::int64_t t0 = now_ns();
  const std::int64_t end = t0 + length;
  const auto due_of = [&](std::size_t a) {
    return t0 + arrivals[a].due_ns - offset;
  };
  const std::int64_t first_due =
      plan_.open_loop && next_arrival < arrival_end ? due_of(next_arrival) : t0;
  std::vector<std::int64_t> client_ready(
      static_cast<std::size_t>(plan_.open_loop ? 0 : plan_.clients), t0);
  std::int64_t last_done = first_due;
  std::int64_t prev_poll = t0;

  const auto submit = [&](int input, int client, std::int64_t due) {
    const Input& in = plan_.inputs[static_cast<std::size_t>(input)];
    Active a;
    a.input = input;
    a.client = client;
    a.due = due;
    a.submit = now_ns();
    a.last_look = a.submit;
    a.id = server_->submit(in.bytes, {});
    ph.submit_us.push_back(static_cast<double>(now_ns() - a.submit) / 1e3);
    ph.lag_ms.push_back(static_cast<double>(a.submit - due) / 1e6);
    ++ph.attempted;
    if (server_->decision(a.id) == serve::AdmissionDecision::kQueue) {
      ++ph.queued;
    }
    active.push_back(a);
  };

  // Samples an admitted session's display cell. New frames were displayed
  // after the previous look began and before this one ended.
  const auto look = [&](Active& a) {
    const std::int64_t before = now_ns();
    const obs::live::CellSample d = a.surface->live.display().sample();
    const std::int64_t seen = now_ns();
    if (d.pictures > a.shown && a.first_seen < 0) {
      a.first_seen = seen;
      a.first_program_ns = d.last_progress_ns;
      a.first_gap = seen - a.last_look;
    }
    if (plan_.late_budget_s > 0) {
      for (std::int64_t k = a.shown; k < d.pictures; ++k) {
        const double deadline = static_cast<double>(a.due) +
                                (plan_.late_budget_s + k / kFps) * 1e9;
        if (static_cast<double>(seen) > deadline) ++ph.late_frames;
      }
    }
    a.shown = std::max(a.shown, d.pictures);
    a.last_look = before;
  };

  const auto finish = [&](Active& a, std::int64_t now) {
    const Input& in = plan_.inputs[static_cast<std::size_t>(a.input)];
    const serve::SessionResult r = server_->wait(a.id);
    if (a.surface) look(a);
    std::string why = check_session(r, in);
    const bool ok = why.empty();
    if (!ok) note_failure(ph, in, std::move(why));
    ph.pictures += r.pictures_delivered;
    if (plan_.late_budget_s > 0) {
      ph.due_frames += in.pictures;
      ph.late_frames += std::max<std::int64_t>(0, in.pictures - a.shown);
    }
    if (a.first_seen >= 0) {
      const double ttff = static_cast<double>(a.first_seen - a.due) / 1e6;
      ph.ttff_ms.push_back(ttff);
      ph.wait_ms.push_back(r.queued_s * 1e3);
      ph.first_frame_ms.push_back(static_cast<double>(a.first_program_ns) / 1e6);
      // ttff = lag + admission (submit call to the surface's epoch) + first
      // frame, up to the delay before the poll that saw the first frame:
      // the residual, in units of that poll's gap, lies in [0, 1].
      const std::int64_t residual =
          a.first_seen - (a.epoch + a.first_program_ns);
      ph.residual_gaps.push_back(
          std::abs(static_cast<double>(residual)) /
          static_cast<double>(std::max(a.first_gap, kPollNs)));
      if (in.faulted) ph.faulted_ttff_ms.push_back(ttff);
    }
    ph.run_ms.push_back(r.wall_s * 1e3);
    if (in.faulted) {
      ++ph.faulted;
      if (ok && r.concealed_slices + r.concealed_pictures > 0) ++ph.recovered;
    }
    ph.concealed_slices += r.concealed_slices;
    ph.concealed_pictures += r.concealed_pictures;
    ph.quarantined_gops += r.quarantined_gops;
    ph.gop_mode_gops += r.gop_mode_gops;
    ph.exploded_gops += r.exploded_gops;
    ph.served_ns += r.served_ns;
    ph.pool_hits += r.pool_hits;
    ph.pool_misses += r.pool_misses;
    ph.peak_frame_mb = std::max(
        ph.peak_frame_mb, static_cast<double>(r.pool_misses) * frame_mb(in));
    ph.frame_latency.add(r.latency);
    if (r.served_ns > 0 && r.pictures_delivered > 0 &&
        r.profile.frame_rate > 0) {
      // Worker share the admission model predicts for real-time decode,
      // over the share this session's measured CPU implies.
      const double predicted = r.profile.predicted_load /
                               serve::kDefaultWorkerCapacity;
      const double measured = static_cast<double>(r.served_ns) / 1e9 /
                              (r.pictures_delivered / r.profile.frame_rate);
      ph.load_ratio.push_back(predicted / measured);
    }
    server_->forget(a.id);
    last_done = std::max(last_done, now);
  };

  for (;;) {
    const std::int64_t now = now_ns();
    const std::int64_t gap = now - prev_poll;
    prev_poll = now;
    ph.poll_gap_us.push_back(static_cast<double>(gap) / 1e3);
    if (plan_.open_loop) {
      for (; next_arrival < arrival_end && due_of(next_arrival) <= now;
           ++next_arrival) {
        submit(arrivals[next_arrival].input, -1, due_of(next_arrival));
      }
    }
    for (std::size_t i = 0; i < active.size();) {
      Active& a = active[i];
      if (!a.surface) {
        a.surface = server_->surfaces().find(a.id);
        if (a.surface) a.epoch = epoch_on_our_clock(a.surface->live);
      }
      if (a.surface) look(a);
      const int owed = plan_.inputs[static_cast<std::size_t>(a.input)].pictures;
      if (a.shown < owed && now < a.next_state_check) {
        ++i;
        continue;
      }
      a.next_state_check = now + kStateCheckNs;
      if (!terminal(server_->state(a.id))) {
        ++i;
        continue;
      }
      finish(a, now);
      if (a.client >= 0) {
        client_ready[static_cast<std::size_t>(a.client)] = now_ns();
      }
      a = active.back();
      active.pop_back();
    }
    if (!plan_.open_loop) {
      for (std::size_t c = 0; c < client_ready.size(); ++c) {
        if (client_ready[c] < 0 || now >= end) continue;
        submit(plan_.requests[next_request_++ % plan_.requests.size()],
               static_cast<int>(c), client_ready[c]);
        client_ready[c] = -1;
      }
    }
    const bool submitting =
        plan_.open_loop ? next_arrival < arrival_end : now < end;
    if (!submitting && active.empty()) break;
    if (now - end > kDrainTimeoutNs) {
      for (const Active& a : active) {
        note_failure(ph, plan_.inputs[static_cast<std::size_t>(a.input)],
                     "no result within the drain timeout");
        server_->cancel(a.id);
      }
      break;
    }
    std::int64_t wake = now + kPollNs;
    if (plan_.open_loop && next_arrival < arrival_end) {
      wake = std::min(wake, due_of(next_arrival));
    }
    sleep_until_ns(wake);
  }
  ph.cpu_s = process_cpu_s() - cpu0;
  ph.wall_s = static_cast<double>(last_done - first_due) / 1e9;

  // Pool-wide load over this phase only: the server's counters are
  // cumulative since construction.
  const parallel::WorkerLoadSummary load1 = server_->load_summary();
  const std::int64_t busy = load1.total_busy_ns - load0.total_busy_ns;
  const std::int64_t sync = load1.total_sync_ns - load0.total_sync_ns;
  ph.load = load1;
  ph.load.total_busy_ns = busy;
  ph.load.total_sync_ns = sync;
  ph.load.utilization =
      busy + sync > 0 ? static_cast<double>(busy) / (busy + sync) : 0.0;
  ph.load.sync_ratio = 1.0 - ph.load.utilization;
  return ph;
}

}  // namespace pmp2::benchmark
