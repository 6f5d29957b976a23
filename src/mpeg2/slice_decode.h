// Slice, macroblock and block decoding (ISO/IEC 13818-2 §6.2.4–§6.2.6,
// §7.1–§7.6).
//
// A slice is the unit of parallel work in the paper's fine-grained decoder:
// the standard resets all predictors (DC, motion-vector) at each slice
// start, so slices of one picture are independently decodable given the
// picture's reference frames and header state. SliceDecoder is therefore
// stateless across slices and safe to run concurrently on disjoint slices;
// the sequential decoder, the GOP-parallel decoder and the slice-parallel
// decoder all funnel through it, which is what makes their outputs
// bit-identical.
#pragma once

#include <array>
#include <cstdint>

#include "bitstream/bit_reader.h"
#include "mpeg2/frame.h"
#include "mpeg2/headers.h"
#include "mpeg2/scan_quant.h"
#include "mpeg2/trace.h"
#include "mpeg2/types.h"

namespace pmp2::mpeg2 {

/// Optional hook observing every coded block right after dequantization
/// (before the IDCT). Used by bench_micro_kernels to harvest a realistic
/// coefficient-block corpus from decoded streams; not used in production
/// decode paths. Must be thread-safe if slices are decoded concurrently.
struct BlockObserver {
  virtual ~BlockObserver() = default;
  virtual void on_block(const Block& coeffs, bool intra) = 0;
};

/// Everything a worker needs to decode any slice of one picture.
struct PictureContext {
  const SequenceHeader* seq = nullptr;
  PictureHeader header;
  PictureCodingExtension ext;  // synthesized from the header for MPEG-1
  bool mpeg1 = false;          // MPEG-1 escape coding + full-pel vectors
  int mb_width = 0;
  int mb_height = 0;

  Frame* dst = nullptr;
  const Frame* fwd_ref = nullptr;  // past reference (P and B)
  const Frame* bwd_ref = nullptr;  // future reference (B only)

  // Logical frame ids for trace emission.
  int dst_id = 0;
  int fwd_id = -1;
  int bwd_id = -1;

  BlockObserver* block_observer = nullptr;
};

/// Decodes intra-DC differential coding state plus one 8x8 coefficient
/// block; exposed separately for unit tests.
class BlockDecoder {
 public:
  /// Decodes an intra block: dct_dc_size/differential then AC coefficients,
  /// inverse scan + dequantization included. Returns false on bad syntax.
  /// `dc_pred` is the caller-maintained predictor (QF domain). When
  /// `sparsity` is non-null it receives a conservative summary of the
  /// block's nonzero structure, tracked for free during the VLC loop and
  /// consumed by the sparsity-aware idct_int overload.
  static bool decode_intra(BitReader& br, const PictureContext& pic,
                           int quantiser_scale_code, bool luma, int& dc_pred,
                           Block& out, WorkMeter& work,
                           BlockSparsity* sparsity = nullptr);

  /// Decodes a non-intra block (table B-14 with the first-coefficient
  /// special case), inverse scan + dequantization included.
  static bool decode_non_intra(BitReader& br, const PictureContext& pic,
                               int quantiser_scale_code, Block& out,
                               WorkMeter& work,
                               BlockSparsity* sparsity = nullptr);
};

/// Result of decoding one slice.
struct SliceResult {
  bool ok = false;
  int macroblocks = 0;  // decoded + skipped
  // Absolute macroblock addresses written by this slice (inclusive,
  // contiguous: skipped MBs between coded ones are reconstructed too).
  // -1 when the slice wrote nothing. Error-recovery uses this to conceal
  // exactly the macroblocks no slice covered.
  int first_mb = -1;
  int last_mb = -1;
  WorkMeter work;
};

/// Decodes the slice whose startcode has just been consumed from `br`
/// (i.e. `br` is positioned at quantiser_scale_code). `slice_row` is the
/// macroblock row encoded in the startcode (slice_vertical_position - 1).
///
/// Thread-safety: an MPEG-2 slice writes only macroblocks of `slice_row`
/// (a slice whose addresses leave the row fails before writing outside
/// it), so concurrent calls on distinct rows never share a macroblock. An
/// MPEG-1 slice may write up to the end of the picture.
[[nodiscard]] SliceResult decode_slice(BitReader& br, int slice_row,
                                       const PictureContext& pic,
                                       TraceSink* sink = nullptr,
                                       int proc = 0);

}  // namespace pmp2::mpeg2
