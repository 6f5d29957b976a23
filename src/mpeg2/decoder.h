// Stream-level MPEG-2 decoding: structure scan (the "scan process" of the
// paper's Fig. 4), picture decoding, display reordering, and the sequential
// reference decoder against which both parallel decoders are verified
// bit-exact.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "bitstream/bit_reader.h"
#include "mpeg2/frame.h"
#include "mpeg2/headers.h"
#include "mpeg2/slice_decode.h"
#include "mpeg2/types.h"

namespace pmp2::obs {
class Histogram;
class Tracer;
}

namespace pmp2::mpeg2 {

/// One slice located by the scan pass.
struct SliceInfo {
  std::uint64_t offset = 0;  // byte offset of the slice startcode
  int row = 0;               // macroblock row (slice_vertical_position - 1)
};

/// One picture located by the scan pass.
struct PictureInfo {
  std::uint64_t offset = 0;  // byte offset of the picture startcode
  PictureType type = PictureType::kI;
  int temporal_reference = 0;
  std::vector<SliceInfo> slices;
};

/// One GOP located by the scan pass.
struct GopInfo {
  std::uint64_t offset = 0;  // byte offset of the group startcode
  std::uint64_t end_offset = 0;  // one past the last byte of the GOP's data
  bool closed = true;
  std::vector<PictureInfo> pictures;
};

/// Output of the scan pass over a whole elementary stream.
struct StreamStructure {
  SequenceHeader seq;
  SequenceExtension ext;
  std::vector<GopInfo> gops;
  bool valid = false;
  /// True when the stream carries no sequence extension: an MPEG-1 stream
  /// (ISO 11172-2). Motion vectors may then be full-pel and DCT escapes
  /// use the MPEG-1 fixed-length level coding.
  bool mpeg1 = false;

  [[nodiscard]] int mb_width() const {
    return (seq.horizontal_size + 15) / 16;
  }
  [[nodiscard]] int mb_height() const {
    return (seq.vertical_size + 15) / 16;
  }
  [[nodiscard]] int total_pictures() const {
    int n = 0;
    for (const auto& g : gops) n += static_cast<int>(g.pictures.size());
    return n;
  }
};

/// Scans the stream once — startcodes plus the few header fields task
/// creation needs (GOP closedness, picture type). This is exactly the work
/// the scan process performs; Table 2 benches its rate.
[[nodiscard]] StreamStructure scan_structure(
    std::span<const std::uint8_t> stream);

/// Display rank of each picture of one GOP (decode order in, rank out):
/// the position of its scanned temporal_reference in the GOP's sorted
/// temporal_reference list. On a clean closed GOP the references are a
/// permutation of [0, n) and rank == temporal_reference; on a corrupt GOP
/// (duplicate, out-of-range or missing references) the ranks still cover
/// [0, n) exactly once, so a display process fed by ranks always receives
/// a gap-free index sequence and can terminate. Recovery-mode decoders use
/// this instead of the raw temporal_reference (docs/ROBUSTNESS.md).
[[nodiscard]] std::vector<int> display_ranks(const GopInfo& gop);

/// Parses picture_header and (for MPEG-2) picture_coding_extension with
/// `br` positioned at the picture startcode. For MPEG-1 streams (no
/// extension follows) an equivalent extension state is synthesized from the
/// picture header's f_codes. On return `br` rests at the first slice
/// startcode (or wherever parsing failed).
bool parse_picture_headers(BitReader& br, PictureHeader& ph,
                           PictureCodingExtension& pce);

/// Observability / recovery options for one picture's slice loop (shared by
/// the sequential decoder and the GOP-parallel workers).
struct PictureDecodeOptions {
  TraceSink* sink = nullptr;      // memory-reference trace (TangoLite hook)
  int proc = 0;                   // worker/processor id for the sink
  obs::Tracer* tracer = nullptr;  // per-slice span emission (may be null)
  int track = 0;                  // tracer track (the worker's track)
  int picture_id = -1;            // decode-order picture id stamped on spans
  bool conceal_errors = false;    // conceal corrupt slices instead of failing
  int* concealed = nullptr;       // incremented once per concealed slice
  /// Resync-distance histogram: on each concealed slice, records the bytes
  /// between the error-detection point and the next true startcode (found
  /// with the SWAR scanner) where decode resynchronizes. Null = off.
  obs::Histogram* resync = nullptr;
};

/// Bytes between the decode-error position `error_byte` and the next true
/// startcode in `stream` (the SWAR-scan resynchronization point); the
/// remaining stream length when no startcode follows.
[[nodiscard]] std::uint64_t resync_distance(
    std::span<const std::uint8_t> stream, std::uint64_t error_byte);

/// Macroblock coverage of one picture for conceal_coverage_gaps: one byte
/// per macroblock in raster order, so tasks decoding distinct rows of one
/// picture never write the same memory word.
using MbCoverage = std::vector<std::uint8_t>;

/// Decodes all slices of one picture sequentially. `pic` must be fully
/// populated (dst + refs). Returns false on any slice error (unless
/// `opts.conceal_errors`, which patches the slice and keeps going).
bool decode_picture_slices(std::span<const std::uint8_t> stream,
                           const PictureInfo& info, const PictureContext& pic,
                           WorkMeter& work,
                           const PictureDecodeOptions& opts);

/// The slice loop of decode_picture_slices restricted to one macroblock
/// row: decodes, in stream order, the slices of `info` indexed on `row`
/// (every slice when `row` < 0; slices indexed past the last row go with
/// the last row, and write nothing). Marks the macroblocks written or
/// concealed in `covered` unless it is empty. The caller conceals the
/// gaps once every row is done. MPEG-2 slices never leave their row, so
/// distinct rows of one picture may decode concurrently; an MPEG-1
/// picture must run with `row` < 0.
bool decode_picture_row(std::span<const std::uint8_t> stream,
                        const PictureInfo& info, int row,
                        const PictureContext& pic, WorkMeter& work,
                        const PictureDecodeOptions& opts,
                        MbCoverage& covered);

/// Error concealment: overwrites the macroblock rows of one slice with the
/// co-located pels of the forward reference (mid-gray when the picture has
/// none), the standard temporal-concealment fallback for a corrupt slice.
void conceal_slice(const PictureContext& pic, int slice_row);

/// Conceals macroblock columns [col0, col1] of one macroblock row: the
/// same temporal-concealment policy as conceal_slice, restricted to the
/// columns no slice covered.
void conceal_mb_run(const PictureContext& pic, int row, int col0, int col1);

/// Conceals every macroblock whose byte in `covered` (mb_width *
/// mb_height, raster order) is zero. Damaged streams can leave macroblocks
/// no slice writes — a destroyed startcode loses a whole slice, a spurious
/// one can truncate a slice mid-row and still parse "ok" — and those pels
/// would otherwise keep whatever bytes the recycled pool frame held:
/// output that depends on pool history, not on the stream. Returns the
/// number of concealed runs (contiguous per-row gaps).
int conceal_coverage_gaps(const PictureContext& pic,
                          const MbCoverage& covered);

/// A decoded stream in display order.
struct DecodedStream {
  std::vector<FramePtr> frames;  // display order
  WorkMeter work;
  SequenceHeader seq;
  bool ok = false;
  int concealed_slices = 0;
};

/// Reference sequential decoder. One instance per stream decode.
class Decoder {
 public:
  /// With `conceal_errors`, a corrupt slice is concealed (see
  /// conceal_slice) instead of aborting the decode; the error count is
  /// reported in Status/DecodedStream.
  explicit Decoder(MemoryTracker* tracker = nullptr,
                   bool conceal_errors = false)
      : tracker_(tracker), conceal_errors_(conceal_errors) {}

  /// Streaming decode: frames are delivered in display order through
  /// `on_frame` and can be released immediately (long benchmark runs must
  /// not retain 1120 frames). Returns ok + accumulated work.
  struct Status {
    bool ok = false;
    WorkMeter work;
    SequenceHeader seq;
    int concealed_slices = 0;
  };
  using FrameCallback = std::function<void(FramePtr)>;
  Status decode_stream(std::span<const std::uint8_t> stream,
                       const FrameCallback& on_frame,
                       TraceSink* sink = nullptr, int proc = 0);

  /// Optional hook receiving every coded block after dequantization and
  /// before the IDCT (see BlockObserver). bench_micro_kernels uses it to
  /// harvest a realistic coefficient-block corpus from decoded streams.
  void set_block_observer(BlockObserver* observer) {
    block_observer_ = observer;
  }

  /// Convenience: decodes a whole elementary stream into display-order
  /// frames (small streams / tests).
  [[nodiscard]] DecodedStream decode(std::span<const std::uint8_t> stream,
                                     TraceSink* sink = nullptr, int proc = 0);

 private:
  MemoryTracker* tracker_;
  bool conceal_errors_;
  BlockObserver* block_observer_ = nullptr;
};

/// Display reordering helper shared by every decoder variant: feed frames
/// in decode order, emit() yields them in display order. (B frames pass
/// through; reference frames are held until the next reference arrives.)
class DisplayReorder {
 public:
  /// Adds a frame in decode order; appends 0..2 display-order frames to
  /// `out`.
  void push(FramePtr frame, std::vector<FramePtr>& out);

  /// Flushes the pending reference at end of stream.
  void flush(std::vector<FramePtr>& out);

 private:
  FramePtr pending_ref_;
  int next_display_index_ = 0;
};

}  // namespace pmp2::mpeg2
