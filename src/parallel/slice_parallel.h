// Fine-grained parallel decoder: macroblock-row tasks (paper §5.2).
//
// A 2-D task structure (pictures -> rows) feeds the workers, as in the
// paper. Two scheduling policies:
//
//  * kSimple   — all workers decode rows of the current picture and
//    synchronize at *every* picture boundary. Speedup is limited by
//    ceil(rows / P) steps per picture (the "knees" of Fig. 11; 352x240 has
//    15 rows, so no gain past 8 workers).
//  * kImproved — workers synchronize only where a data dependency exists:
//    a picture may open as soon as its reference pictures are complete, so
//    consecutive B pictures (and the next reference) decode concurrently.
//    This is the paper's "synchronize only at the end of I/P pictures".
//
// A one-session façade over the DecodeServer engine (src/serve/engine.h;
// the definition lives in src/serve/facades.cpp and links via pmp2_serve):
// the engine's workers run the session's scan tasks, open each picture in
// decode order, and decode it as one task per macroblock row, which
// decodes every slice indexed on that row in stream order. An MPEG-2
// slice never leaves its row (a damaged one that tries fails and is
// concealed), so distinct rows write disjoint macroblocks; an MPEG-1
// picture, whose slices may span rows, is one task. Opening and closing a
// picture run the same code as the GOP and adaptive decoders, so all
// three produce the same bytes.
//
// Memory stays at a handful of pictures regardless of worker count or GOP
// size — the paper's headline advantage over the GOP decoder — and closed
// GOPs are NOT required: without quarantine an open GOP's leading
// pictures take the previous GOP's references.
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

enum class SlicePolicy {
  kSimple,    // barrier at every picture
  kImproved,  // dependency-based: sync only at reference pictures
};

struct SliceDecoderConfig {
  int workers = 4;
  SlicePolicy policy = SlicePolicy::kImproved;
  /// Maximum pictures open (being decoded) at once in the improved policy;
  /// bounds memory. The simple policy always has exactly 1.
  int max_open_pictures = 3;
  /// Conceal corrupt slices (copy from the forward reference) instead of
  /// aborting — keeps real-time playback going through bitstream damage.
  bool conceal_errors = false;
  /// Bounded recovery (docs/ROBUSTNESS.md): unparseable or reference-less
  /// pictures become whole concealed frames instead of aborting the run,
  /// damage is logged per GOP in RunResult::errors, and a truncated
  /// structure scan keeps the scanned prefix. Implies conceal_errors.
  /// Every GOP then decodes with GOP-private references, as in the GOP
  /// decoder, so every undamaged GOP decodes bit-exact.
  bool quarantine_gops = false;
  /// Watchdog: fail the run (RunResult::hung) instead of blocking forever
  /// if the engine stops progressing for this long. 0 = off.
  std::int64_t watchdog_ns = 0;
  mpeg2::MemoryTracker* tracker = nullptr;
  /// Optional span tracer: needs `workers` tracks (track w = worker w,
  /// which also runs scan tasks). Null = zero-cost no-op.
  obs::Tracer* tracer = nullptr;
  /// Optional counter/histogram registry ("slice.*" instruments).
  obs::Registry* metrics = nullptr;
  /// Optional live telemetry surface (docs/OBSERVABILITY.md, "Live
  /// telemetry"): per-worker cells, scan/display cells, queue depth and
  /// the shared frame-latency histogram, updated in flight. Must be
  /// sized with at least `workers` worker cells — an undersized instance
  /// is ignored rather than written out of range. Null is not free: the
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

class SliceParallelDecoder {
 public:
  explicit SliceParallelDecoder(const SliceDecoderConfig& config)
      : config_(config) {}

  [[nodiscard]] RunResult decode(std::span<const std::uint8_t> stream,
                                 const FrameCallback& on_frame = {});

 private:
  SliceDecoderConfig config_;
};

}  // namespace pmp2::parallel
