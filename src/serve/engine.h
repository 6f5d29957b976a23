// One-session entry into the DecodeServer engine, for the single-stream
// decoder façades (GopParallelDecoder, AdaptiveDecoder — src/serve/
// facades.cpp). Not part of the public serving API: the hooks below are
// how a façade's observability and delivery options reach the engine's
// claim loop, once, without widening ServerConfig or SessionConfig.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "parallel/display.h"
#include "parallel/stats.h"
#include "serve/server.h"

namespace pmp2::obs {
class Counter;
class Histogram;
class Tracer;
}

namespace pmp2::obs::live {
class LiveTelemetry;
}

namespace pmp2::obs::prof {
class StageProfiler;
}

namespace pmp2::serve::detail {

/// How the engine dispatches a popped GOP. kWholeGop never explodes (the
/// paper's §5.1 GOP decoder); kAdaptive asks sched::should_explode.
enum class Granularity : std::uint8_t { kAdaptive, kWholeGop };

/// Everything a façade adds to a plain server session. Every pointer may
/// be null (zero cost); `live`, when set, replaces the session's own
/// telemetry surface and must have at least `workers` worker cells.
struct EngineHooks {
  Granularity granularity = Granularity::kAdaptive;
  parallel::FrameCallback on_frame;  // display-order delivery (may be empty)
  bool conceal_errors = false;       // conceal even without quarantine
  mpeg2::MemoryTracker* tracker = nullptr;
  /// Spans on track w = worker w and track `workers` = the scan process.
  obs::Tracer* tracer = nullptr;
  obs::live::LiveTelemetry* live = nullptr;
  /// Slot w binds on worker w, slot `workers` on the session's producer.
  obs::prof::StageProfiler* prof = nullptr;
  // Per-task instruments, resolved once by the façade.
  obs::Counter* m_tasks = nullptr;
  obs::Histogram* h_task = nullptr;
  obs::Histogram* h_wait = nullptr;
  obs::Histogram* h_resync = nullptr;
};

/// One finished single-session run: the session's result plus what only
/// the engine knows.
struct OneSessionRun {
  SessionResult session;
  std::vector<parallel::WorkerStats> workers;  // final: the pool has joined
  double scan_s = 0.0;     // preamble plus incremental GOP scan time
  std::int64_t epoch = 0;  // scheduling epoch at shutdown (hang evidence)
};

/// Builds a private engine with `config.workers` threads, runs `stream`
/// as its only session, waits for it and shuts the engine down.
[[nodiscard]] OneSessionRun run_one_session(
    std::span<const std::uint8_t> stream, const ServerConfig& config,
    SessionConfig session, EngineHooks hooks);

}  // namespace pmp2::serve::detail
