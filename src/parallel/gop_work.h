// Per-picture and per-row decode core of the DecodeServer engine
// (src/serve/server.cpp), which runs the GOP-parallel, adaptive and
// slice-parallel decoders as one-session façades. The engine hands every
// picture its references from a chain of pictures in decode order: a
// whole-GOP task decodes its closed GOP along a chain of its own, with
// private reference frames, calling decode_one_picture once per picture.
// With quarantine on, every undecodable picture is synthesized (concealed)
// so the GOP still delivers its full picture count and sibling GOPs stay
// untouched. Keeping this in one translation unit is what makes whole-GOP,
// exploded and row dispatch bit-exact with each other by construction.
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

/// Per-run observability/recovery context shared by the GOP workers.
struct GopObs {
  obs::Tracer* tracer = nullptr;
  bool conceal_errors = false;
  bool quarantine = false;
  std::atomic<int>* concealed = nullptr;
  std::atomic<int>* concealed_pics = nullptr;
  ErrorLog* errors = nullptr;
  obs::Histogram* h_resync = nullptr;
  obs::live::LiveTelemetry* live = nullptr;
};

/// Result of decoding (or quarantining) one picture of a closed GOP.
struct PictureOutcome {
  mpeg2::FramePtr frame;  // null only when recovery is off and decode
                          // failed (the caller must fail the run)
  bool damaged = false;   // quarantine on, and the picture was synthesized
                          // or had slices concealed
};

/// A picture between open_picture and close_picture. Tasks decoding
/// distinct rows of one open picture share it: each writes only its own
/// macroblock rows of `frame` and its own bytes of `covered`.
struct OpenPicture {
  mpeg2::PictureContext ctx;
  mpeg2::FramePtr frame;     // the destination
  mpeg2::MbCoverage covered;  // conceal mode only
  std::int64_t live_begin_ns = 0;
};

/// Picture open, the first step of decode_one_picture: parses the
/// headers, resolves the references and acquires the destination frame
/// (arguments as for decode_one_picture). Returns true when `pic` is open:
/// decode its rows with decode_open_rows, then call close_picture.
/// Otherwise `out` is final: with quarantine the picture was synthesized
/// (a copy of its newest reference, mid-gray without one) and pushed to
/// the display; with recovery off `out.frame` is null.
[[nodiscard]] bool open_picture(
    std::span<const std::uint8_t> stream,
    const mpeg2::StreamStructure& structure, const mpeg2::PictureInfo& info,
    int gop_index, int pic_index, int display_base, int ranked_display_index,
    const mpeg2::FramePtr& fwd_ref, const mpeg2::FramePtr& bwd_ref,
    mpeg2::FramePool& pool, DisplaySink& display, const GopObs& gobs,
    int worker, OpenPicture& pic, PictureOutcome& out);

/// Decodes the slices of one macroblock row of an open picture (every row
/// when `row` < 0; see mpeg2::decode_picture_row). Returns the number of
/// slices concealed, or -1 on a slice error with concealment off.
[[nodiscard]] int decode_open_rows(std::span<const std::uint8_t> stream,
                                   const mpeg2::PictureInfo& info,
                                   int pic_index, int row, OpenPicture& pic,
                                   WorkerStats& stats, const GopObs& gobs,
                                   int worker);

/// Picture close, once every row is decoded: conceals the macroblocks no
/// slice wrote, accounts `concealed` slices (the sum of decode_open_rows),
/// pushes the frame to the display and records the picture's telemetry.
[[nodiscard]] PictureOutcome close_picture(OpenPicture& pic, int concealed,
                                           const mpeg2::PictureInfo& info,
                                           int gop_index, int pic_index,
                                           DisplaySink& display,
                                           const GopObs& gobs, int worker);

/// Decodes one picture with explicit references, pushing the finished (or
/// concealed) frame to the display sink. `bwd_ref` is the newest reference
/// picture before this one and `fwd_ref` the one before that (P predicts
/// from bwd; B from fwd and bwd; quarantine conceals from bwd, falling
/// back to fwd). With quarantine on, `ranked_display_index` carries the
/// display_ranks()-based slot; otherwise the parsed temporal reference
/// decides. This is open_picture, decode_open_rows over every row and
/// close_picture in one task; the engine's row tasks run the same three
/// steps, which is what keeps whole-GOP, exploded and row dispatch
/// byte-identical per picture.
[[nodiscard]] PictureOutcome decode_one_picture(
    std::span<const std::uint8_t> stream,
    const mpeg2::StreamStructure& structure, const mpeg2::PictureInfo& info,
    int gop_index, int pic_index, int display_base, int ranked_display_index,
    const mpeg2::FramePtr& fwd_ref, const mpeg2::FramePtr& bwd_ref,
    mpeg2::FramePool& pool, DisplaySink& display, WorkerStats& stats,
    const GopObs& gobs, int worker);

}  // namespace pmp2::parallel
