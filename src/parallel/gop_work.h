// Whole-GOP and per-picture decode core of the DecodeServer engine
// (src/serve/server.cpp), which runs the GOP-parallel and adaptive
// decoders as one-session façades. A closed GOP decodes
// end to end with private reference frames; with quarantine on, every
// undecodable picture is synthesized (concealed) so the GOP still delivers
// its full picture count and sibling GOPs stay untouched. Keeping this in
// one translation unit is what makes whole-GOP and exploded dispatch
// bit-exact with each other by construction.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>

#include "mpeg2/decoder.h"
#include "mpeg2/frame.h"
#include "parallel/display.h"
#include "parallel/stats.h"

namespace pmp2::obs {
class Histogram;
class Tracer;
}

namespace pmp2::obs::live {
class LiveTelemetry;
}

namespace pmp2::parallel {

struct GopTask {
  const mpeg2::GopInfo* info = nullptr;
  int index = 0;         // GOP ordinal within the stream
  int display_base = 0;  // global display index of this GOP's first picture
  int decode_base = 0;   // global decode index of this GOP's first picture
};

/// Per-run observability/recovery context shared by the GOP workers.
struct GopObs {
  obs::Tracer* tracer = nullptr;
  bool conceal_errors = false;
  bool quarantine = false;
  std::atomic<int>* concealed = nullptr;
  std::atomic<int>* concealed_pics = nullptr;
  std::atomic<int>* quarantined = nullptr;
  ErrorLog* errors = nullptr;
  obs::Histogram* h_resync = nullptr;
  obs::live::LiveTelemetry* live = nullptr;
};

/// Quarantine fallback for one undecodable picture: synthesize a concealed
/// frame (copy of `ref`, mid-gray without one) so the pipeline still
/// delivers a frame for every indexed picture.
[[nodiscard]] mpeg2::FramePtr conceal_whole_picture(
    const mpeg2::StreamStructure& structure, const mpeg2::PictureInfo& info,
    int display_index, const mpeg2::FramePtr& ref, mpeg2::FramePool& pool);

/// Result of decoding (or quarantining) one picture of a closed GOP.
struct PictureOutcome {
  mpeg2::FramePtr frame;     // null only when recovery is off and decode
                             // failed (the caller must fail the run)
  bool quarantined = false;  // the whole picture was synthesized
  int concealed_slices = 0;  // slices concealed within a successful decode
};

/// Decodes one picture with explicit GOP-private references, pushing the
/// finished (or concealed) frame to the display sink. `fwd_ref`/`bwd_ref`
/// follow decode_gop's rolling convention: bwd = newest reference before
/// this picture, fwd = the one before that (P predicts from bwd; B from
/// fwd and bwd; quarantine conceals from bwd, falling back to fwd). With
/// quarantine on, `ranked_display_index` carries the display_ranks()-based
/// slot; otherwise the parsed temporal reference decides. Both the
/// sequential GOP task loop and the engine's exploded path call this one
/// function, which is what keeps them byte-identical per picture.
[[nodiscard]] PictureOutcome decode_one_picture(
    std::span<const std::uint8_t> stream,
    const mpeg2::StreamStructure& structure, const mpeg2::PictureInfo& info,
    int gop_index, int pic_index, int display_base, int ranked_display_index,
    const mpeg2::FramePtr& fwd_ref, const mpeg2::FramePtr& bwd_ref,
    mpeg2::FramePool& pool, DisplaySink& display, WorkerStats& stats,
    const GopObs& gobs, int worker);

/// What decode_gop did with one GOP.
struct GopOutcome {
  bool ok = false;       // false only when recovery is off and a picture
                         // failed
  bool damaged = false;  // quarantine on, and a picture was synthesized
                         // or had slices concealed
};

/// Decodes one closed GOP with private reference state. Frames come from
/// the shared pool; finished pictures go straight to the display sink.
/// Fails only when recovery is off (gobs.quarantine clear); with
/// quarantine every picture is delivered, concealed where undecodable.
[[nodiscard]] GopOutcome decode_gop(std::span<const std::uint8_t> stream,
                              const mpeg2::StreamStructure& structure,
                              const GopTask& task, mpeg2::FramePool& pool,
                              DisplaySink& display, WorkerStats& stats,
                              const GopObs& gobs, int worker);

}  // namespace pmp2::parallel
