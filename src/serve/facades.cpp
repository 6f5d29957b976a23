// The single-stream decoders as one-session façades over the DecodeServer
// engine (serve/engine.h). decode() builds a private engine with
// config.workers threads, submits the stream as its only session, waits
// for it, and maps the SessionResult plus the engine's per-worker stats
// into RunResult. The two façades differ only in the engine's dispatch
// granularity: the GOP decoder never explodes a GOP, the adaptive decoder
// asks sched::should_explode at every pop.
#include <string>

#include "obs/live/telemetry.h"
#include "obs/metrics.h"
#include "parallel/adaptive/adaptive_decoder.h"
#include "parallel/gop_decoder.h"
#include "serve/engine.h"
#include "util/timer.h"

namespace pmp2::parallel {

namespace {

/// Runs one façade decode. `Config` is GopDecoderConfig or
/// AdaptiveDecoderConfig (the fields both share); `server` carries the
/// dispatch knobs only the adaptive config has; `prefix` names the
/// per-task instruments ("gop" or "adaptive").
template <typename Config>
RunResult decode_one_session(std::span<const std::uint8_t> stream,
                             const FrameCallback& on_frame,
                             const Config& config, serve::ServerConfig server,
                             serve::detail::Granularity granularity,
                             const std::string& prefix) {
  WallTimer total_timer;
  server.workers = config.workers;
  server.watchdog_ns = config.watchdog_ns;
  serve::SessionConfig session;
  session.max_queued_gops = config.max_queued_gops;
  session.quarantine_gops = config.quarantine_gops;

  serve::detail::EngineHooks hooks;
  hooks.granularity = granularity;
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
    // The session records which deadline fired: the engine's watchdog or
    // the display's.
    result.hang.where = "display";
    for (const ErrorRecord& e : s.errors) {
      if (e.cause == RecoveryCause::kWatchdog) {
        result.hang.where = "coordinator";
      }
    }
    result.hang.waited_ns = config.watchdog_ns;
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
  return decode_one_session(stream, on_frame, config_, {},
                            serve::detail::Granularity::kWholeGop, "gop");
}

RunResult AdaptiveDecoder::decode(std::span<const std::uint8_t> stream,
                                  const FrameCallback& on_frame) {
  serve::ServerConfig server;
  server.depth_threshold = config_.depth_threshold;
  server.cost_factor = config_.cost_factor;
  RunResult result =
      decode_one_session(stream, on_frame, config_, server,
                         serve::detail::Granularity::kAdaptive, "adaptive");
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

}  // namespace pmp2::parallel
