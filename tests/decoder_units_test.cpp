// Unit tests for decoder internals: display reordering, block decoding
// against hand-assembled bitstreams, picture-header plumbing, and the
// structure scanner's GOP/picture bookkeeping.
#include <gtest/gtest.h>

#include <algorithm>

#include "bitstream/bit_writer.h"
#include "mpeg2/decoder.h"
#include "mpeg2/scan_quant.h"
#include "mpeg2/slice_decode.h"
#include "mpeg2/vlc_tables.h"

namespace pmp2::mpeg2 {
namespace {

FramePtr typed_frame(PictureType type) {
  auto f = std::make_shared<Frame>(32, 32);
  f->type = type;
  return f;
}

TEST(DisplayReorder, IbbpPattern) {
  // Decode order I P B B -> display order I B B P.
  DisplayReorder r;
  std::vector<FramePtr> out;
  auto i0 = typed_frame(PictureType::kI);
  auto p3 = typed_frame(PictureType::kP);
  auto b1 = typed_frame(PictureType::kB);
  auto b2 = typed_frame(PictureType::kB);
  r.push(i0, out);
  EXPECT_TRUE(out.empty());  // I held as pending reference
  r.push(p3, out);
  ASSERT_EQ(out.size(), 1u);  // I released when P arrives
  EXPECT_EQ(out[0]->type, PictureType::kI);
  r.push(b1, out);
  r.push(b2, out);
  ASSERT_EQ(out.size(), 3u);  // B frames pass through
  r.flush(out);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[3]->type, PictureType::kP);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)]->display_index, i);
}

TEST(DisplayReorder, AllIntraPassesInOrder) {
  DisplayReorder r;
  std::vector<FramePtr> out;
  for (int i = 0; i < 3; ++i) r.push(typed_frame(PictureType::kI), out);
  r.flush(out);
  ASSERT_EQ(out.size(), 3u);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)]->display_index, i);
}

TEST(DisplayReorder, FlushWithoutFramesIsNoop) {
  DisplayReorder r;
  std::vector<FramePtr> out;
  r.flush(out);
  EXPECT_TRUE(out.empty());
}

// --- BlockDecoder against hand-built bitstreams -----------------------------

SequenceHeader default_seq() {
  SequenceHeader seq;
  seq.intra_matrix = default_intra_matrix();
  seq.non_intra_matrix = default_non_intra_matrix();
  return seq;
}

TEST(BlockDecoder, IntraDcOnly) {
  // dct_dc_size_luma = 4 ('110'), differential +9 ('1001'), EOB ('10').
  BitWriter bw;
  bw.put(0b110, 3);
  bw.put(9, 4);
  bw.put(0b10, 2);
  bw.put(0, 24);
  const auto bytes = bw.take();
  BitReader br(bytes);
  const auto seq = default_seq();
  PictureContext pic;
  pic.seq = &seq;
  int dc_pred = 128;
  Block out;
  WorkMeter work;
  ASSERT_TRUE(
      BlockDecoder::decode_intra(br, pic, 8, /*luma=*/true, dc_pred, out,
                                 work));
  EXPECT_EQ(dc_pred, 137);
  EXPECT_EQ(out[0], 137 * 8);  // DC x intra_dc_mult (precision 8)
  // Mismatch control may toggle coefficient 63; everything else is 0.
  for (int i = 1; i < 63; ++i) EXPECT_EQ(out[i], 0) << i;
}

TEST(BlockDecoder, IntraNegativeDcDifferential) {
  // size 4, differential -9: bits = -9 + 15 = 6 ('0110').
  BitWriter bw;
  bw.put(0b110, 3);
  bw.put(6, 4);
  bw.put(0b10, 2);
  bw.put(0, 24);
  const auto bytes = bw.take();
  BitReader br(bytes);
  const auto seq = default_seq();
  PictureContext pic;
  pic.seq = &seq;
  int dc_pred = 128;
  Block out;
  WorkMeter work;
  ASSERT_TRUE(BlockDecoder::decode_intra(br, pic, 8, true, dc_pred, out,
                                         work));
  EXPECT_EQ(dc_pred, 119);
}

TEST(BlockDecoder, NonIntraFirstCoefficientShortForm) {
  // '1' + sign 1 => run 0 level -1 at scan position 0, then EOB.
  BitWriter bw;
  bw.put_bit(1);
  bw.put_bit(1);
  bw.put(0b10, 2);
  bw.put(0, 24);
  const auto bytes = bw.take();
  BitReader br(bytes);
  const auto seq = default_seq();
  PictureContext pic;
  pic.seq = &seq;
  Block out;
  WorkMeter work;
  ASSERT_TRUE(BlockDecoder::decode_non_intra(br, pic, 2, out, work));
  // Dequantized: ((2*-1 - 1) * 16 * 4) / 32 = -6.
  EXPECT_EQ(out[0], -6);
}

TEST(BlockDecoder, EscapeCodedCoefficient) {
  // escape '000001' + run=2 (6 bits) + level=100 (12 bits), then EOB.
  BitWriter bw;
  bw.put(0b000001, 6);
  bw.put(2, 6);
  bw.put(100, 12);
  bw.put(0b10, 2);
  bw.put(0, 24);
  const auto bytes = bw.take();
  BitReader br(bytes);
  const auto seq = default_seq();
  PictureContext pic;
  pic.seq = &seq;
  Block out;
  WorkMeter work;
  ASSERT_TRUE(BlockDecoder::decode_non_intra(br, pic, 2, out, work));
  // Scan position 2 = raster 8 (zig-zag). Level 100 dequantized at
  // qscale 4, w 16: ((200+1)*16*4)/32 = 402.
  EXPECT_EQ(out[zigzag_scan()[2]], 402);
  EXPECT_EQ(work.escapes, 1u);
}

TEST(BlockDecoder, RunOverflowRejected) {
  // run 60 at position 10 overruns the block -> must fail.
  BitWriter bw;
  bw.put(0b000001, 6);  // escape
  bw.put(10, 6);
  bw.put(5, 12);
  bw.put(0b000001, 6);  // second escape
  bw.put(60, 6);        // run 60 from position 11 -> out of range
  bw.put(5, 12);
  bw.put(0, 24);
  const auto bytes = bw.take();
  BitReader br(bytes);
  const auto seq = default_seq();
  PictureContext pic;
  pic.seq = &seq;
  Block out;
  WorkMeter work;
  EXPECT_FALSE(BlockDecoder::decode_non_intra(br, pic, 2, out, work));
}

TEST(BlockDecoder, ZeroEscapeLevelRejected) {
  BitWriter bw;
  bw.put(0b000001, 6);
  bw.put(0, 6);
  bw.put(0, 12);  // forbidden level 0
  bw.put(0, 24);
  const auto bytes = bw.take();
  BitReader br(bytes);
  const auto seq = default_seq();
  PictureContext pic;
  pic.seq = &seq;
  Block out;
  WorkMeter work;
  EXPECT_FALSE(BlockDecoder::decode_non_intra(br, pic, 2, out, work));
}

TEST(BlockDecoder, AlternateScanPlacesCoefficientsDifferently) {
  auto decode_with_scan = [](bool alternate) {
    BitWriter bw;
    bw.put_bit(1);  // first coeff: run 0 level +1
    bw.put_bit(0);
    const Code c = encode_dct_run_level(false, 3, 1);  // run 3 level 1
    c.put(bw);
    bw.put_bit(0);
    bw.put(0b10, 2);
    bw.put(0, 24);
    const auto bytes = bw.take();
    BitReader br(bytes);
    static const auto seq = default_seq();
    PictureContext pic;
    pic.seq = &seq;
    pic.ext.alternate_scan = alternate;
    Block out;
    WorkMeter work;
    EXPECT_TRUE(BlockDecoder::decode_non_intra(br, pic, 2, out, work));
    return out;
  };
  const Block zig = decode_with_scan(false);
  const Block alt = decode_with_scan(true);
  // Second coefficient lands at scan position 4: raster 9 (zig-zag) vs
  // raster 1 (alternate).
  EXPECT_NE(zig[9], 0);
  EXPECT_NE(alt[1], 0);
  EXPECT_EQ(zig[1], 0);
  EXPECT_EQ(alt[9], 0);
}

// --- decode_slice's row bound (ISO/IEC 13818-2 §6.1.2) ----------------------

/// Slice payload after the startcode: intra macroblocks with DC-only
/// blocks, each placed by one macroblock_address_increment.
std::vector<std::uint8_t> intra_slice(const std::vector<int>& increments) {
  BitWriter bw;
  bw.put(8, 5);    // quantiser_scale_code
  bw.put_bit(0);   // extra_bit_slice
  for (const int increment : increments) {
    encode_mb_addr_inc(increment).put(bw);
    encode_mb_type(1, MbFlags::kIntra).put(bw);
    for (int block = 0; block < 6; ++block) {
      encode_dct_dc_size(block < 4, 0).put(bw);
      dct_eob_code(false).put(bw);
    }
  }
  bw.put(0, 32);  // the next startcode's zero prefix ends the slice
  return bw.take();
}

/// Rows of `frame` (in macroblocks, all three planes) holding any byte
/// other than `sentinel`.
std::vector<int> written_rows(const Frame& frame, std::uint8_t sentinel) {
  std::vector<int> rows;
  for (int row = 0; row < frame.mb_height(); ++row) {
    bool written = false;
    for (int p = 0; p < 3; ++p) {
      const int lines = p == 0 ? kMacroblockSize : kMacroblockSize / 2;
      const int stride = p == 0 ? frame.y_stride() : frame.c_stride();
      const std::uint8_t* at = frame.plane(p) + row * lines * stride;
      written |= std::any_of(at, at + lines * stride,
                             [&](std::uint8_t v) { return v != sentinel; });
    }
    if (written) rows.push_back(row);
  }
  return rows;
}

TEST(SliceDecode, AddressLeavingItsRowFailsWithoutWritingOtherRows) {
  // 4 x 3 macroblocks; every slice below is indexed on row 1 (addresses
  // 4..7). Increments that land on row 2 must fail before writing there.
  const auto seq = default_seq();
  Frame frame(64, 48);
  PictureContext pic;
  pic.seq = &seq;
  pic.header.type = PictureType::kI;
  pic.mb_width = 4;
  pic.mb_height = 3;
  pic.dst = &frame;
  const std::uint8_t sentinel = 0x5A;
  struct Case {
    std::vector<int> increments;
    bool ok;
  };
  const Case cases[] = {
      {{1}, true},      // column 0 of row 1
      {{4}, true},      // column 3, the row's last macroblock
      {{5}, false},     // first increment lands on row 2
      {{4, 1}, false},  // second macroblock steps past the row's end
  };
  for (const Case& c : cases) {
    for (int p = 0; p < 3; ++p) {
      const int bytes = p == 0 ? frame.y_stride() * frame.coded_height()
                               : frame.c_stride() * frame.coded_height() / 2;
      std::fill_n(frame.plane(p), bytes, sentinel);
    }
    const auto bytes = intra_slice(c.increments);
    BitReader br(bytes);
    const SliceResult r = decode_slice(br, 1, pic);
    EXPECT_EQ(r.ok, c.ok) << c.increments.size() << " MBs";
    const std::vector<int> rows = written_rows(frame, sentinel);
    if (c.ok) {
      EXPECT_EQ(rows, std::vector<int>{1});
    } else {
      for (const int row : rows) EXPECT_EQ(row, 1);
    }
  }
}

TEST(WorkMeter, UnitsMonotoneInCounts) {
  WorkMeter a;
  a.macroblocks = 10;
  WorkMeter b = a;
  b.coefficients = 100;
  EXPECT_GT(b.units(), a.units());
  WorkMeter sum;
  sum += a;
  sum += b;
  EXPECT_EQ(sum.macroblocks, 20u);
  EXPECT_EQ(sum.coefficients, 100u);
}

}  // namespace
}  // namespace pmp2::mpeg2
