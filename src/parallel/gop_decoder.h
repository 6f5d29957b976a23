// Coarse-grained parallel decoder: one task per closed GOP (paper §5.1).
//
// Architecture (paper Fig. 4): a scan process locates GOP boundaries by
// startcode scanning and enqueues GOP tasks; worker processes each dequeue
// a GOP and decode it end to end with private reference frames; a display
// process reorders finished pictures into display order. There is no
// inter-worker communication other than the task queue — the paper's reason
// for this design — at the cost of memory that grows with workers x GOP
// size x picture size and poor random-access latency.
//
// A one-session façade over the DecodeServer engine (src/serve/engine.h;
// the definition lives in src/serve/facades.cpp and links via pmp2_serve):
// the session's scan tasks, run by the engine's workers, are the scan
// process, the engine's pool the workers, the session's DisplaySink the
// display process, and the engine never splits a GOP.
#pragma once

#include <cstdint>
#include <span>

#include "mpeg2/decoder.h"
#include "mpeg2/frame.h"
#include "parallel/display.h"
#include "parallel/stats.h"

namespace pmp2::obs {
class Registry;
class Tracer;
}

namespace pmp2::obs::live {
class LiveTelemetry;
}

namespace pmp2::obs::prof {
class StageProfiler;
}

namespace pmp2::parallel {

/// Also the adaptive decoder's configuration (AdaptiveDecoderConfig).
struct GopDecoderConfig {
  int workers = 4;
  /// Maximum GOP tasks queued ahead of the workers; 0 = unbounded (the
  /// paper's configuration — see Figs. 8/9 for the memory consequence).
  std::size_t max_queued_gops = 0;
  /// Conceal corrupt slices (copy from the forward reference) instead of
  /// aborting, as in the slice decoder; reported in
  /// RunResult::concealed_slices.
  bool conceal_errors = false;
  /// Bounded recovery (docs/ROBUSTNESS.md): a corrupt GOP is quarantined —
  /// unparseable or reference-less pictures become concealed frames, the
  /// damage is logged in RunResult::errors, and every *other* GOP decodes
  /// bit-exact (workers keep private reference state per GOP, so the blast
  /// radius of any fault is one GOP). Implies conceal_errors. A truncated
  /// structure scan keeps the scanned prefix instead of failing the run.
  bool quarantine_gops = false;
  /// Watchdog: fail the run (RunResult::hung) instead of blocking forever
  /// if the engine or display stops progressing for this long. 0 = off.
  std::int64_t watchdog_ns = 0;
  /// Tracks frame-buffer bytes (for the Fig. 8 memory measurements).
  mpeg2::MemoryTracker* tracker = nullptr;
  /// Optional span tracer: needs `workers` tracks (track w = worker w,
  /// which also runs scan tasks). Null = zero-cost no-op.
  obs::Tracer* tracer = nullptr;
  /// Optional counter/histogram registry ("gop.*" instruments, or
  /// "adaptive.*" for the adaptive decoder, plus the shared
  /// "decode.*"/"recover.*" families).
  obs::Registry* metrics = nullptr;
  /// Optional live telemetry surface (docs/OBSERVABILITY.md, "Live
  /// telemetry"): per-worker cells, scan/display cells, queue depth and
  /// the shared frame-latency histogram, updated in flight. Must be sized
  /// with at least `workers` worker cells — an undersized instance is
  /// ignored rather than written out of range. Null is not free: the
  /// engine then writes the same cells into the session's own telemetry
  /// surface, which nothing samples.
  obs::live::LiveTelemetry* live = nullptr;
  /// Optional hardware-counter stage profiler (docs/OBSERVABILITY.md,
  /// "Hardware profiling"): needs `workers` slots (slot w = worker w,
  /// which charges its scan tasks there too). Workers bind per-thread
  /// counters and the mpeg2 core attributes them per stage; per-task
  /// counter deltas flow into `live` when both are set. Null = zero cost.
  obs::prof::StageProfiler* prof = nullptr;
};

class GopParallelDecoder {
 public:
  explicit GopParallelDecoder(const GopDecoderConfig& config)
      : config_(config) {}

  /// Decodes the elementary stream with `config_.workers` worker threads
  /// plus a scan and a display role. Requires closed GOPs (the encoder's
  /// output); returns ok = false otherwise. Frames are delivered in display
  /// order through `on_frame` (may be empty).
  [[nodiscard]] RunResult decode(std::span<const std::uint8_t> stream,
                                 const FrameCallback& on_frame = {});

 private:
  GopDecoderConfig config_;
};

}  // namespace pmp2::parallel
