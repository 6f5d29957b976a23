// Adaptive-granularity hybrid decoder: one shared worker pool, per-GOP
// dispatch between the two paper granularities.
//
// A one-session façade over the DecodeServer engine (src/serve/engine.h;
// the definition lives in src/serve/facades.cpp and links via pmp2_serve):
// decode() runs the stream as the only session of a private engine with
// `workers` threads. Scanned GOPs wait in the session's FIFO, and the one
// rule that picks the granularity is an idle worker (sched/adaptive.h,
// modelled in virtual time by sched::simulate at Granularity::kAdaptive;
// a DecodeServer also splits for a session that holds no worker):
//
//   throughput mode — every worker is busy: a popped GOP runs whole,
//     exactly the GOP decoder's task (one worker decodes its pictures in
//     order along a private chain), with no inter-worker communication;
//   latency mode — a worker is idle, at pop time or after any picture of
//     a whole-GOP task: the GOP's remaining pictures become a shared
//     picture chain, the slice decoder's machinery with one task per
//     macroblock row, so all workers cooperate on the picture closest to
//     display.
//     A whole-GOP task hands its chain over with the reference frames it
//     completed. A picture opens once its GOP-private references (closed
//     GOPs) are complete, so split GOPs of different indices decode
//     concurrently, and every picture decodes byte-identically to the GOP
//     decoder's sequential loop (both run decode_one_picture's open,
//     decode and close steps).
//
// An idle worker takes an unclaimed row of the lowest split GOP's open
// picture, else opens its next openable picture, before popping the next
// GOP. A B frame goes back to the pool once displayed, a reference frame
// once no unopened picture of its GOP can use it. Recovery semantics are
// the GOP decoder's: quarantine confines a fault to its own GOP in both
// modes, and playback checksums equal the fixed GOP decoder's on clean and
// damaged streams alike.
#pragma once

#include <cstdint>
#include <span>

#include "parallel/display.h"
#include "parallel/gop_decoder.h"
#include "parallel/stats.h"

namespace pmp2::parallel {

/// The GOP decoder's options, field for field; `metrics` gets the
/// "adaptive.*" instruments.
using AdaptiveDecoderConfig = GopDecoderConfig;

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
