// The single-stream decoders as one-session façades over the DecodeServer
// engine (serve/engine.h). decode() builds a private engine with
// config.workers threads, submits the stream as its only session, waits
// for it, and maps the SessionResult plus the engine's per-worker stats
// into RunResult. The three façades differ only in the engine's dispatch
// granularity: the GOP decoder never splits a GOP, the adaptive decoder
// splits one whenever a worker is idle (its session is the engine's only
// one), and the slice decoder and split GOPs run every picture as
// macroblock-row tasks.
#include <algorithm>
#include <string>

#include "obs/live/telemetry.h"
#include "obs/metrics.h"
#include "parallel/adaptive/adaptive_decoder.h"
#include "parallel/gop_decoder.h"
#include "parallel/slice_parallel.h"
#include "serve/engine.h"
#include "util/timer.h"

namespace pmp2::parallel {

namespace {

/// Runs one façade decode. `Config` is GopDecoderConfig (which the
/// adaptive decoder shares) or SliceDecoderConfig; `session` and `hooks`
/// carry what only one of them has; `prefix` names the per-task
/// instruments ("gop", "adaptive", "slice").
template <typename Config>
RunResult decode_one_session(std::span<const std::uint8_t> stream,
                             const FrameCallback& on_frame,
                             const Config& config,
                             serve::SessionConfig session,
                             serve::detail::EngineHooks hooks,
                             const std::string& prefix) {
  WallTimer total_timer;
  serve::ServerConfig server;
  server.workers = config.workers;
  server.watchdog_ns = config.watchdog_ns;
  session.quarantine_gops = config.quarantine_gops;

  hooks.on_frame = on_frame;
  hooks.conceal_errors = config.conceal_errors;
  hooks.tracker = config.tracker;
  hooks.tracer = config.tracer;
  // An undersized telemetry surface is ignored rather than written out of
  // range.
  hooks.live = config.live && config.live->workers() >= config.workers
                   ? config.live
                   : nullptr;
  hooks.prof = config.prof;
  obs::Registry* const metrics = config.metrics;
  if (metrics) {
    hooks.m_tasks = &metrics->counter(prefix + ".tasks");
    hooks.h_task = &metrics->histogram(prefix + ".task_ns");
    hooks.h_wait = &metrics->histogram(prefix + ".queue_wait_ns");
    hooks.h_resync = &metrics->histogram("recover.resync_bytes");
    metrics->counter("decode.bytes")
        .add(static_cast<std::int64_t>(stream.size()));
  }

  serve::detail::OneSessionRun run = serve::detail::run_one_session(
      stream, server, std::move(session), std::move(hooks));
  serve::SessionResult& s = run.session;

  RunResult result;
  result.ok = s.ok;
  result.wall_s = total_timer.elapsed_s();
  result.scan_s = run.scan_s;
  result.pictures = s.pictures;
  result.checksum = s.checksum;
  result.stream_bytes = stream.size();
  if (config.tracker) result.peak_frame_bytes = config.tracker->peak_bytes();
  result.concealed_slices = s.concealed_slices;
  result.concealed_pictures = s.concealed_pictures;
  result.quarantined_gops = s.quarantined_gops;
  result.hung = s.hung;
  if (s.hung) {
    // The session records which check fired: the engine's watchdog after
    // its deadline, or the display still owing pictures once the
    // session's work was done (no wait).
    result.hang.where = "display";
    for (const ErrorRecord& e : s.errors) {
      if (e.cause == RecoveryCause::kWatchdog) {
        result.hang.where = "coordinator";
        result.hang.waited_ns = config.watchdog_ns;
      }
    }
    result.hang.epoch = run.epoch;
    result.hang.pictures_delivered = s.pictures_delivered;
    result.hang.pictures_indexed = s.pictures;
  }
  result.errors = std::move(s.errors);
  result.errors_dropped = s.errors_dropped;
  result.workers = std::move(run.workers);
  result.gop_mode_gops = s.gop_mode_gops;
  result.exploded_gops = s.exploded_gops;
  result.pool_hits = s.pool_hits;
  result.pool_misses = s.pool_misses;
  derive_idle(result);

  if (metrics) {
    metrics->counter("decode.pictures").add(result.pictures);
    metrics->counter("recover.concealed_slices").add(result.concealed_slices);
    metrics->counter("recover.concealed_pictures")
        .add(result.concealed_pictures);
    metrics->counter("recover.quarantined_gops").add(result.quarantined_gops);
    metrics->counter("recover.errors")
        .add(static_cast<std::int64_t>(result.errors.size()) +
             result.errors_dropped);
  }
  return result;
}

}  // namespace

RunResult GopParallelDecoder::decode(std::span<const std::uint8_t> stream,
                                     const FrameCallback& on_frame) {
  serve::SessionConfig session;
  session.max_queued_gops = config_.max_queued_gops;
  serve::detail::EngineHooks hooks;
  hooks.granularity = sched::Granularity::kWholeGop;
  return decode_one_session(stream, on_frame, config_, session,
                            std::move(hooks), "gop");
}

RunResult AdaptiveDecoder::decode(std::span<const std::uint8_t> stream,
                                  const FrameCallback& on_frame) {
  serve::SessionConfig session;
  session.max_queued_gops = config_.max_queued_gops;
  serve::detail::EngineHooks hooks;
  hooks.granularity = sched::Granularity::kAdaptive;
  RunResult result = decode_one_session(stream, on_frame, config_, session,
                                        std::move(hooks), "adaptive");
  if (config_.metrics) {
    obs::Registry& m = *config_.metrics;
    m.counter("adaptive.gop_mode_gops").add(result.gop_mode_gops);
    m.counter("adaptive.exploded_gops").add(result.exploded_gops);
    m.counter("adaptive.pool_hits")
        .add(static_cast<std::int64_t>(result.pool_hits));
    m.counter("adaptive.pool_misses")
        .add(static_cast<std::int64_t>(result.pool_misses));
  }
  return result;
}

RunResult SliceParallelDecoder::decode(std::span<const std::uint8_t> stream,
                                       const FrameCallback& on_frame) {
  serve::detail::EngineHooks hooks;
  hooks.granularity = sched::Granularity::kSlice;
  hooks.max_open_pictures = config_.policy == SlicePolicy::kSimple
                                ? 1
                                : std::max(1, config_.max_open_pictures);
  RunResult result = decode_one_session(stream, on_frame, config_, {},
                                        std::move(hooks), "slice");
  if (config_.metrics) {
    obs::Registry& m = *config_.metrics;
    m.counter("slice.pool_hits")
        .add(static_cast<std::int64_t>(result.pool_hits));
    m.counter("slice.pool_misses")
        .add(static_cast<std::int64_t>(result.pool_misses));
  }
  return result;
}

}  // namespace pmp2::parallel
