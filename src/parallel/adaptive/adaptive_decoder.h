// Adaptive-granularity hybrid decoder: one shared worker pool, per-GOP
// dispatch between the two paper granularities.
//
// A one-session façade over the DecodeServer engine (src/serve/engine.h;
// the definition lives in src/serve/facades.cpp and links via pmp2_serve):
// decode() runs the stream as the only session of a private engine with
// `workers` threads. Scanned GOPs wait in the session's FIFO; at pop time
// the policy decides, from queue depth and an online cost model (src/sched
// AdaptivePolicy / CostEwma — the same arithmetic the virtual-time sweeps
// in simulate_adaptive validated):
//
//   throughput mode — the pipeline is deep: run the GOP whole, exactly the
//     GOP decoder's task (decode_gop), zero inter-worker communication;
//   latency mode — the queue is shallow or the GOP is a predicted
//     straggler: explode the GOP into per-picture tasks that any worker
//     may claim, so all workers cooperate on the frames closest to
//     display. Pictures keep GOP-private references (closed GOPs), so
//     exploded GOPs of different indices decode concurrently and every
//     picture decodes byte-identically to the GOP decoder's sequential
//     loop (both run decode_one_picture).
//
// An idle worker claims ready exploded pictures before popping the next
// GOP. Recovery semantics are the GOP decoder's: quarantine confines a
// fault to its own GOP in both modes, and playback checksums equal the
// fixed GOP decoder's on clean and damaged streams alike.
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

struct AdaptiveDecoderConfig {
  int workers = 4;
  /// Maximum GOP tasks queued unstarted; the scan blocks when full.
  /// 0 = unbounded (the paper's configuration).
  std::size_t max_queued_gops = 0;
  /// Explode when fewer than this many GOP tasks are queued; 0 = use the
  /// worker count (sched::AdaptivePolicy::depth_threshold).
  int depth_threshold = 0;
  /// Explode a GOP predicted to cost more than this multiple of the
  /// average completed GOP (sched::AdaptivePolicy::cost_factor).
  double cost_factor = 2.0;
  /// Conceal corrupt slices instead of aborting (as in both fixed
  /// decoders); reported in RunResult::concealed_slices.
  bool conceal_errors = false;
  /// Bounded recovery with the GOP decoder's quarantine semantics
  /// (docs/ROBUSTNESS.md): the blast radius of any fault is one GOP, in
  /// either dispatch mode. Implies conceal_errors.
  bool quarantine_gops = false;
  /// Watchdog: fail the run (RunResult::hung) instead of blocking forever
  /// when the engine or display stops progressing. 0 = off.
  std::int64_t watchdog_ns = 0;
  /// Tracks frame-buffer bytes.
  mpeg2::MemoryTracker* tracker = nullptr;
  /// Optional span tracer: needs `workers + 1` tracks (track w = worker w,
  /// track `workers` = the scan process). Null = zero-cost no-op.
  obs::Tracer* tracer = nullptr;
  /// Optional counter/histogram registry ("adaptive.*" instruments plus
  /// the shared "decode.*"/"recover.*" families).
  obs::Registry* metrics = nullptr;
  /// Optional live telemetry surface; must be sized with at least
  /// `workers` worker cells (an undersized instance is ignored).
  obs::live::LiveTelemetry* live = nullptr;
  /// Optional hardware-counter stage profiler (`workers + 1` slots).
  obs::prof::StageProfiler* prof = nullptr;
};

class AdaptiveDecoder {
 public:
  explicit AdaptiveDecoder(const AdaptiveDecoderConfig& config)
      : config_(config) {}

  /// Decodes the elementary stream with `config_.workers` worker threads
  /// plus a scan and a display role. Requires closed GOPs (the encoder's
  /// output) unless quarantine is on. Frames are delivered in display
  /// order through `on_frame` (may be empty). Fills RunResult's adaptive
  /// accounting: gop_mode_gops, exploded_gops, pool hits.
  [[nodiscard]] RunResult decode(std::span<const std::uint8_t> stream,
                                 const FrameCallback& on_frame = {});

 private:
  AdaptiveDecoderConfig config_;
};

}  // namespace pmp2::parallel
