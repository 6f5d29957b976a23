// Bit-exactness tests for the optimized hot-path kernels against their
// straightforward reference implementations:
//
//  * idct_int (sparsity-aware) vs idct_int_dense across every sparsity
//    shape the slice decoder can produce (DC-only, single-row, random
//    masks, dense), plus IEEE-1180-style accuracy vs idct_reference.
//  * form_prediction (SWAR kernels) vs form_prediction_reference over all
//    four half-pel modes x copy/average x unaligned strides and widths.
//  * BitReader (cached 64-bit window) vs a bit-at-a-time oracle under
//    randomized op sequences including seeks, byte_align and end-of-buffer
//    behavior.
//  * Every compiled-and-host-supported kernel backend (scalar/sse2/avx2)
//    vs straightforward inline oracles, per kernel family, including
//    half-pel rounding saturation edges, §7.4.4 mismatch-coefficient
//    blocks (a lone coefficient at each raster position), and the
//    crossover-free vector IDCT entry the tuned dispatch may never take.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "bitstream/bit_reader.h"
#include "mpeg2/dct.h"
#include "mpeg2/kernels/backends.h"
#include "mpeg2/kernels/kernels.h"
#include "mpeg2/motion.h"
#include "mpeg2/types.h"
#include "util/rng.h"

namespace pmp2::mpeg2 {
namespace {

// ---------------------------------------------------------------------------
// IDCT sparsity equivalence
// ---------------------------------------------------------------------------

/// Fills `b` with random dequantized-range coefficients on the rows of
/// `row_mask` (each selected position nonzero with probability ~1/2) and
/// returns the exact sparsity of what was written.
BlockSparsity fill_random_rows(Rng& rng, Block& b, unsigned row_mask) {
  b.fill(0);
  BlockSparsity s = BlockSparsity::none();
  for (int row = 0; row < 8; ++row) {
    if ((row_mask & (1u << row)) == 0) continue;
    for (int col = 0; col < 8; ++col) {
      if (rng.next_below(2) == 0) continue;
      const int pos = row * 8 + col;
      b[pos] = static_cast<std::int16_t>(rng.next_in(-2048, 2047));
      if (b[pos] != 0) s.mark(pos);
    }
  }
  return s;
}

void expect_blocks_equal(const Block& got, const Block& want,
                         const char* what) {
  for (int i = 0; i < 64; ++i) {
    ASSERT_EQ(got[i], want[i]) << what << " differs at pel " << i;
  }
}

TEST(IdctEquivalence, DcOnlyAllValues) {
  for (int dc = -2048; dc <= 2047; ++dc) {
    Block want{};
    want[0] = static_cast<std::int16_t>(dc);
    Block self = want, tracked = want;
    idct_int_dense(want);
    idct_int(self);  // self-derived sparsity
    idct_int(tracked, BlockSparsity{1, 1, 0, true});
    expect_blocks_equal(self, want, "self-derived DC-only");
    expect_blocks_equal(tracked, want, "tracked DC-only");
    // The collapsed path must produce the analytic value too.
    ASSERT_EQ(want[0], (dc + 4) >> 3) << dc;
  }
}

TEST(IdctEquivalence, SingleRowBlocks) {
  Rng rng(42);
  for (int row = 0; row < 8; ++row) {
    for (int trial = 0; trial < 200; ++trial) {
      Block b;
      const BlockSparsity s = fill_random_rows(rng, b, 1u << row);
      Block want = b, self = b, tracked = b;
      idct_int_dense(want);
      idct_int(self);
      idct_int(tracked, s);
      expect_blocks_equal(self, want, "self-derived single-row");
      expect_blocks_equal(tracked, want, "tracked single-row");
    }
  }
}

TEST(IdctEquivalence, RandomSparsityMasks) {
  Rng rng(7);
  for (int trial = 0; trial < 5000; ++trial) {
    Block b;
    const BlockSparsity s =
        fill_random_rows(rng, b, rng.next_below(256));
    Block want = b, self = b, tracked = b;
    idct_int_dense(want);
    idct_int(self);
    idct_int(tracked, s);
    expect_blocks_equal(self, want, "self-derived random");
    expect_blocks_equal(tracked, want, "tracked random");
  }
}

TEST(IdctEquivalence, RandomCellMasks) {
  // Random row x column occupancy grids: exercises every pass-1 row tier
  // crossed with every pass-2 column tier (including the single-column
  // broadcast), which the row-oriented generator above rarely hits.
  Rng rng(29);
  for (int trial = 0; trial < 4000; ++trial) {
    const unsigned row_mask = rng.next_below(256);
    const unsigned col_mask = rng.next_below(256);
    Block b{};
    BlockSparsity s = BlockSparsity::none();
    for (int row = 0; row < 8; ++row) {
      if ((row_mask & (1u << row)) == 0) continue;
      for (int col = 0; col < 8; ++col) {
        if ((col_mask & (1u << col)) == 0) continue;
        if (rng.next_below(2) == 0) continue;
        const int pos = row * 8 + col;
        b[pos] = static_cast<std::int16_t>(rng.next_in(-2048, 2047));
        if (b[pos] != 0) s.mark(pos);
      }
    }
    Block want = b, self = b, tracked = b;
    idct_int_dense(want);
    idct_int(self);
    idct_int(tracked, s);
    expect_blocks_equal(self, want, "self-derived cell-mask");
    expect_blocks_equal(tracked, want, "tracked cell-mask");
  }
}

TEST(IdctEquivalence, ConservativeMaskSupersetIsExact) {
  // The slice decoder's mask can strictly over-approximate the nonzero set
  // (dequantization may zero small levels); any superset mask must still
  // give bit-identical results, the dense mask in particular.
  Rng rng(11);
  for (int trial = 0; trial < 2000; ++trial) {
    Block b;
    const BlockSparsity exact = fill_random_rows(rng, b, rng.next_below(256));
    BlockSparsity loose = exact;
    loose.row_mask |= static_cast<std::uint8_t>(rng.next_below(256));
    loose.col_mask |= static_cast<std::uint8_t>(rng.next_below(256));
    loose.ac_col_mask |= static_cast<std::uint8_t>(rng.next_below(256));
    loose.col_mask |= loose.ac_col_mask;
    if (loose.row_mask != exact.row_mask ||
        loose.col_mask != exact.col_mask ||
        loose.ac_col_mask != exact.ac_col_mask) {
      loose.dc_only = false;
    }
    Block want = b, got = b, dense_mask = b;
    idct_int_dense(want);
    idct_int(got, loose);
    idct_int(dense_mask, BlockSparsity::dense());
    expect_blocks_equal(got, want, "superset mask");
    expect_blocks_equal(dense_mask, want, "dense mask");
  }
}

TEST(IdctEquivalence, DenseBlocks) {
  Rng rng(3);
  for (int trial = 0; trial < 2000; ++trial) {
    Block b;
    for (auto& v : b) v = static_cast<std::int16_t>(rng.next_in(-2048, 2047));
    Block want = b, self = b;
    idct_int_dense(want);
    idct_int(self);
    expect_blocks_equal(self, want, "dense");
  }
}

/// IEEE-1180-style accuracy of the sparsity-aware transform itself, over
/// the same sparsity shapes (DC-only, single-row, random, dense): compare
/// against the double-precision defining equation.
TEST(IdctEquivalence, AccuracyVsReferenceAcrossSparsity) {
  Rng rng(1180);
  double max_err = 0.0;
  double sum_sq = 0.0;
  long count = 0;
  const unsigned masks[] = {0x01u, 0x02u, 0x80u, 0x0Fu, 0xFFu};
  for (int trial = 0; trial < 400; ++trial) {
    for (const unsigned mask : masks) {
      Block b;
      const BlockSparsity s = fill_random_rows(rng, b, mask);
      std::array<double, 64> in{}, want{};
      for (int i = 0; i < 64; ++i) in[i] = b[i];
      idct_reference(in, want);
      idct_int(b, s);
      for (int i = 0; i < 64; ++i) {
        const double err = std::abs(b[i] - std::round(want[i]));
        max_err = std::max(max_err, err);
        sum_sq += err * err;
        ++count;
      }
    }
  }
  EXPECT_LE(max_err, 1.0);
  EXPECT_LE(sum_sq / static_cast<double>(count), 0.06);
}

// ---------------------------------------------------------------------------
// Motion-compensation kernel equivalence
// ---------------------------------------------------------------------------

TEST(FormPredictionEquivalence, ExhaustiveModesSizesStrides) {
  Rng rng(99);
  // Sizes: every shape the decoders pass, plus ragged widths that exercise
  // the SWAR kernels' scalar tails.
  const std::pair<int, int> sizes[] = {{16, 16}, {8, 8},  {16, 8}, {8, 4},
                                       {12, 6},  {7, 5},  {9, 3},  {17, 2},
                                       {1, 1},   {23, 7}};
  // Unaligned/odd strides to catch any alignment assumption in the 8-byte
  // loads and stores.
  const int ref_strides[] = {64, 37, 41};
  const int dst_strides[] = {64, 43, 29};

  for (const auto& [w, h] : sizes) {
    for (const int ref_stride : ref_strides) {
      for (const int dst_stride : dst_strides) {
        if (ref_stride < w + 1 || dst_stride < w) continue;
        // Reference plane with interior origin so negative vector halves
        // stay in bounds; +1 row/column margin for half-pel taps.
        const int x0 = 4, y0 = 4;
        const std::size_t ref_size =
            static_cast<std::size_t>((y0 + h + 2) * ref_stride + 1);
        std::vector<std::uint8_t> ref(ref_size);
        for (auto& p : ref) p = static_cast<std::uint8_t>(rng.next_below(256));
        for (int vx = -4; vx <= 4; ++vx) {      // both parities, both signs
          for (int vy = -4; vy <= 4; ++vy) {
            for (const McMode mode : {McMode::kCopy, McMode::kAverage}) {
              std::vector<std::uint8_t> dst_a(
                  static_cast<std::size_t>(h * dst_stride));
              for (auto& p : dst_a) {
                p = static_cast<std::uint8_t>(rng.next_below(256));
              }
              std::vector<std::uint8_t> dst_b = dst_a;
              form_prediction(ref.data(), ref_stride, dst_a.data(),
                              dst_stride, x0, y0, w, h, vx, vy, mode);
              form_prediction_reference(ref.data(), ref_stride, dst_b.data(),
                                        dst_stride, x0, y0, w, h, vx, vy,
                                        mode);
              ASSERT_EQ(std::memcmp(dst_a.data(), dst_b.data(), dst_a.size()),
                        0)
                  << "w=" << w << " h=" << h << " vx=" << vx << " vy=" << vy
                  << " mode=" << (mode == McMode::kCopy ? "copy" : "avg")
                  << " rs=" << ref_stride << " ds=" << dst_stride;
            }
          }
        }
      }
    }
  }
}

TEST(FormPredictionEquivalence, SaturatedInputs) {
  // All-255 and all-0 planes hit the SWAR carry edge cases (the borrow in
  // (a | b) - (((a ^ b) >> 1) & 0x7f...) and the 16-bit lane headroom).
  for (const int fill : {0, 255}) {
    std::vector<std::uint8_t> ref(32 * 32,
                                  static_cast<std::uint8_t>(fill));
    for (int vx = 0; vx <= 1; ++vx) {
      for (int vy = 0; vy <= 1; ++vy) {
        for (const McMode mode : {McMode::kCopy, McMode::kAverage}) {
          std::vector<std::uint8_t> a(16 * 32,
                                      static_cast<std::uint8_t>(255 - fill));
          std::vector<std::uint8_t> b = a;
          form_prediction(ref.data(), 32, a.data(), 32, 2, 2, 16, 16, vx, vy,
                          mode);
          form_prediction_reference(ref.data(), 32, b.data(), 32, 2, 2, 16,
                                    16, vx, vy, mode);
          ASSERT_EQ(std::memcmp(a.data(), b.data(), a.size()), 0)
              << fill << " " << vx << vy;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// BitReader vs bit-at-a-time oracle
// ---------------------------------------------------------------------------

/// Trivially correct MSB-first reader: one bit at a time, straight from the
/// byte array, zero-filling past the end. Mirrors BitReader's contract.
class BitOracle {
 public:
  explicit BitOracle(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint32_t peek(int n) const {
    std::uint32_t v = 0;
    for (int i = 0; i < n; ++i) {
      v = (v << 1) | bit_at(pos_ + static_cast<std::uint64_t>(i));
    }
    return v;
  }
  void skip(int n) {
    pos_ += static_cast<std::uint64_t>(n);
    if (pos_ > static_cast<std::uint64_t>(data_.size()) * 8) overrun_ = true;
  }
  std::uint32_t get(int n) {
    const std::uint32_t v = peek(n);
    skip(n);
    return v;
  }
  void byte_align() {
    if ((pos_ & 7) != 0) pos_ = (pos_ & ~std::uint64_t{7}) + 8;
  }
  void seek_bits(std::uint64_t p) { pos_ = p; }
  std::uint64_t pos() const { return pos_; }
  bool overrun() const { return overrun_; }

 private:
  std::uint32_t bit_at(std::uint64_t p) const {
    const std::uint64_t byte = p >> 3;
    if (byte >= data_.size()) return 0;
    return (data_[byte] >> (7 - (p & 7))) & 1u;
  }
  std::span<const std::uint8_t> data_;
  std::uint64_t pos_ = 0;
  bool overrun_ = false;
};

TEST(BitReaderEquivalence, FuzzAgainstOracle) {
  Rng rng(0xB17);
  for (const std::size_t size : {0u, 1u, 3u, 7u, 8u, 9u, 17u, 64u, 1000u}) {
    std::vector<std::uint8_t> buf(size);
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_below(256));
    BitReader br({buf.data(), buf.size()});
    BitOracle oracle({buf.data(), buf.size()});
    for (int op = 0; op < 4000; ++op) {
      switch (rng.next_below(6)) {
        case 0: {  // peek, all widths including 0 and 32
          const int n = static_cast<int>(rng.next_below(33));
          ASSERT_EQ(br.peek(n), oracle.peek(n))
              << "peek(" << n << ") at bit " << oracle.pos() << " size "
              << size;
          break;
        }
        case 1: {  // get
          const int n = static_cast<int>(rng.next_below(33));
          ASSERT_EQ(br.get(n), oracle.get(n)) << "get(" << n << ")";
          break;
        }
        case 2: {  // skip
          const int n = static_cast<int>(rng.next_below(33));
          br.skip(n);
          oracle.skip(n);
          break;
        }
        case 3:
          br.byte_align();
          oracle.byte_align();
          break;
        case 4: {  // random absolute seek, incl. a bit past the end
          const std::uint64_t limit = size * 8 + 16;
          const std::uint64_t p = rng.next_below(
              static_cast<std::uint32_t>(limit + 1));
          br.seek_bits(p);
          oracle.seek_bits(p);
          break;
        }
        case 5: {  // backward-compatible byte seek
          const std::uint64_t b =
              rng.next_below(static_cast<std::uint32_t>(size + 2));
          br.seek_bytes(b);
          oracle.seek_bits(b * 8);
          break;
        }
      }
      ASSERT_EQ(br.bit_position(), oracle.pos());
      ASSERT_EQ(br.overrun(), oracle.overrun()) << "at bit " << oracle.pos();
    }
  }
}

TEST(BitReaderEquivalence, TailStraddleAndZeroFill) {
  const std::uint8_t data[] = {0xAB, 0xCD, 0xEF};
  BitReader br({data, 3});
  // Peek straddling the final byte: bits 16..39 are 0xEF then zeros.
  br.seek_bits(16);
  EXPECT_EQ(br.peek(8), 0xEFu);
  EXPECT_EQ(br.peek(12), 0xEF0u);
  EXPECT_EQ(br.peek(32), 0xEF000000u);
  EXPECT_FALSE(br.overrun());  // peeking past the end is not an error
  // Entirely past the end: zero bits, still no overrun until consumed.
  br.seek_bits(24);
  EXPECT_EQ(br.peek(32), 0u);
  EXPECT_FALSE(br.overrun());
  br.skip(1);
  EXPECT_TRUE(br.overrun());
}

TEST(BitReaderEquivalence, WindowSurvivesBackwardSeek) {
  // Regression guard for the cached window: a backward seek must not serve
  // stale bits.
  std::vector<std::uint8_t> buf(64);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::uint8_t>(i * 37 + 5);
  }
  BitReader br({buf.data(), buf.size()});
  const std::uint32_t first = br.peek(32);
  br.seek_bytes(32);
  (void)br.get(32);  // forces a refill at byte 32
  br.seek_bytes(0);
  EXPECT_EQ(br.peek(32), first);
}

// ---------------------------------------------------------------------------
// Kernel-backend equivalence: every available backend vs inline oracles
// ---------------------------------------------------------------------------

/// Non-scalar backends this host can actually run. The scalar table is the
/// oracle side of every comparison (seed PR 2 kernels, verbatim), so it is
/// not enumerated here.
std::vector<kernels::Backend> vector_backends() {
  std::vector<kernels::Backend> out;
  for (const kernels::Backend b : kernels::available_backends()) {
    if (b != kernels::Backend::kScalar) out.push_back(b);
  }
  return out;
}

/// One place to surface reduced coverage: when the host lacks AVX2 the
/// avx2 loops in the per-family tests below silently iterate over fewer
/// backends, so this test turns the gap into a visible skip note.
TEST(BackendEquivalence, Avx2HostCoverage) {
  if (!kernels::backend_available(kernels::Backend::kAvx2)) {
    GTEST_SKIP() << "AVX2 unavailable on this host (cpu: "
                 << kernels::cpu_features()
                 << "); avx2 backend rows are not exercised in this run";
  }
  SUCCEED();
}

TEST(BackendEquivalence, DispatchRoundTrips) {
  using kernels::Backend;
  // name -> enum -> name round-trips for every defined backend.
  for (int i = 0; i < kernels::kBackendCount; ++i) {
    const auto b = static_cast<Backend>(i);
    Backend parsed;
    ASSERT_TRUE(kernels::parse_backend(kernels::backend_name(b), parsed));
    EXPECT_EQ(parsed, b);
  }
  Backend junk;
  EXPECT_FALSE(kernels::parse_backend("neon", junk));
  EXPECT_FALSE(kernels::parse_backend("", junk));
  EXPECT_FALSE(kernels::parse_backend("SSE2", junk));

  // Scalar is always available and always listed first.
  const auto avail = kernels::available_backends();
  ASSERT_FALSE(avail.empty());
  EXPECT_EQ(avail.front(), Backend::kScalar);

  // set_backend round-trips through every available backend and the
  // active() table name matches; ScopedBackend restores the selection.
  const Backend before = kernels::active_backend();
  for (const Backend b : avail) {
    ASSERT_TRUE(kernels::set_backend(b));
    EXPECT_EQ(kernels::active_backend(), b);
    EXPECT_STREQ(kernels::active().name, kernels::backend_name(b));
    {
      const kernels::ScopedBackend pin(Backend::kScalar);
      EXPECT_EQ(kernels::active_backend(), Backend::kScalar);
    }
    EXPECT_EQ(kernels::active_backend(), b);
  }
  ASSERT_TRUE(kernels::set_backend(before));
}

TEST(BackendEquivalence, IdctFuzzAllBackends) {
  Rng rng(0x51D);
  for (const kernels::Backend b : vector_backends()) {
    const kernels::KernelTable& kt = kernels::table(b);
    for (int trial = 0; trial < 3000; ++trial) {
      Block blk;
      const BlockSparsity s = fill_random_rows(rng, blk, rng.next_below(256));
      Block want = blk, got = blk;
      idct_int_dense(want);
      kt.idct(got, s);
      for (int i = 0; i < 64; ++i) {
        ASSERT_EQ(got[i], want[i]) << kt.name << " trial " << trial
                                   << " pel " << i;
      }
    }
  }
}

TEST(BackendEquivalence, IdctMismatchCoefficientEdges) {
  // §7.4.4 mismatch-control blocks and friends: a lone coefficient at
  // every raster position (position 63 is the mismatch slot -> group 7 in
  // both passes), at the dequantizer's range edges. Runs through the
  // dispatch entry AND, where the backend has a vector IDCT (AVX2; the
  // SSE2 entry is the scalar kernel), the crossover-free vector entry so
  // sparse shapes the tuned crossover hands to the scalar kernel still
  // exercise the vector butterfly.
  for (const kernels::Backend b : vector_backends()) {
    const kernels::KernelTable& kt = kernels::table(b);
    const kernels::detail::IdctFn raw = kernels::detail::idct_vector_raw(b);
    for (int pos = 0; pos < 64; ++pos) {
      for (const int level : {1, -1, 2047, -2048}) {
        Block blk{};
        blk[pos] = static_cast<std::int16_t>(level);
        BlockSparsity s = BlockSparsity::none();
        s.mark(pos);
        if (pos == 0) s.mark(0);
        Block want = blk, got = blk, got_raw = blk;
        idct_int_dense(want);
        kt.idct(got, s);
        if (raw) raw(got_raw, s);
        for (int i = 0; i < 64; ++i) {
          ASSERT_EQ(got[i], want[i])
              << kt.name << " pos " << pos << " level " << level << " pel "
              << i;
          if (raw) {
            ASSERT_EQ(got_raw[i], want[i])
                << kt.name << "(raw) pos " << pos << " level " << level
                << " pel " << i;
          }
        }
      }
    }
  }
}

TEST(BackendEquivalence, IdctVectorRawAllOccupancies) {
  // The production entry routes sparse blocks to the scalar kernel (the
  // occupancy crossover), so the raw entry is the only way to fuzz the
  // vector butterfly across ALL occupancy classes. SSE2 has no vector
  // IDCT and is skipped.
  Rng rng(0x7A3);
  for (const kernels::Backend b : vector_backends()) {
    const kernels::detail::IdctFn raw = kernels::detail::idct_vector_raw(b);
    if (!raw) continue;
    for (int trial = 0; trial < 3000; ++trial) {
      Block blk;
      const BlockSparsity s = fill_random_rows(rng, blk, rng.next_below(256));
      Block want = blk, got = blk;
      idct_int_dense(want);
      raw(got, s);
      for (int i = 0; i < 64; ++i) {
        ASSERT_EQ(got[i], want[i])
            << kernels::backend_name(b) << " raw trial " << trial << " pel "
            << i;
      }
    }
  }
}

/// Inline MPEG-2 half-pel prediction oracle (13818-2 7.7: (a+b+1)>>1 taps,
/// (sum+2)>>2 diagonal, (d+p+1)>>1 bidirectional blend).
void mc_oracle(const std::uint8_t* src, int rs, std::uint8_t* dst, int ds,
               int w, int h, bool hx, bool hy, bool avg) {
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const std::uint8_t* s = src + y * rs + x;
      int p;
      if (!hx && !hy) {
        p = s[0];
      } else if (hx && !hy) {
        p = (s[0] + s[1] + 1) >> 1;
      } else if (!hx && hy) {
        p = (s[0] + s[rs] + 1) >> 1;
      } else {
        p = (s[0] + s[1] + s[rs] + s[rs + 1] + 2) >> 2;
      }
      std::uint8_t& d = dst[y * ds + x];
      d = static_cast<std::uint8_t>(avg ? (d + p + 1) >> 1 : p);
    }
  }
}

TEST(BackendEquivalence, McFuzzAndRoundingEdges) {
  Rng rng(0x4C);
  // Ragged shapes take the backends' scalar fallbacks; 8/16-wide the
  // vector rows. Saturation fills (all-0, all-255, checkerboard) pin the
  // rounding carries at both ends of the pel range.
  const std::pair<int, int> sizes[] = {{16, 16}, {16, 8}, {8, 8},
                                       {8, 4},   {12, 6}, {7, 5}};
  constexpr int kStride = 40;
  std::vector<std::uint8_t> ref(kStride * 24);
  std::vector<std::uint8_t> dst_want(kStride * 20), dst_got(kStride * 20);
  for (const kernels::Backend b : vector_backends()) {
    const kernels::KernelTable& kt = kernels::table(b);
    for (int fill = 0; fill < 4; ++fill) {
      for (std::size_t i = 0; i < ref.size(); ++i) {
        ref[i] = fill == 0   ? static_cast<std::uint8_t>(rng.next_below(256))
                 : fill == 1 ? std::uint8_t{0}
                 : fill == 2 ? std::uint8_t{255}
                             : static_cast<std::uint8_t>(
                                   ((i ^ (i / kStride)) & 1) ? 255 : 0);
      }
      for (const auto& [w, h] : sizes) {
        for (int mode = 0; mode < 8; ++mode) {
          const bool hx = (mode & 1) != 0, hy = (mode & 2) != 0;
          const bool avg = (mode & 4) != 0;
          for (auto& p : dst_want) {
            p = static_cast<std::uint8_t>(rng.next_below(256));
          }
          dst_got = dst_want;
          mc_oracle(ref.data() + kStride + 1, kStride, dst_want.data() + 1,
                    kStride, w, h, hx, hy, avg);
          kt.mc(ref.data() + kStride + 1, kStride, dst_got.data() + 1,
                kStride, w, h, hx, hy, avg);
          ASSERT_EQ(std::memcmp(dst_got.data(), dst_want.data(),
                                dst_want.size()),
                    0)
              << kt.name << " fill=" << fill << " w=" << w << " h=" << h
              << " hx=" << hx << " hy=" << hy << " avg=" << avg;
        }
      }
    }
  }
}

TEST(BackendEquivalence, ConcealCopyFillAllBackends) {
  Rng rng(0xC0);
  constexpr int kStride = 384;
  std::vector<std::uint8_t> src(kStride * 20);
  std::vector<std::uint8_t> want(kStride * 20), got(kStride * 20);
  for (const kernels::Backend b : vector_backends()) {
    const kernels::KernelTable& kt = kernels::table(b);
    for (const int width : {352, 176, 64, 33, 16, 7, 1}) {
      for (auto& p : src) p = static_cast<std::uint8_t>(rng.next_below(256));
      for (auto& p : want) p = static_cast<std::uint8_t>(rng.next_below(256));
      got = want;
      // Copy: oracle is a plain per-row loop; untouched bytes must stay.
      for (int r = 0; r < 16; ++r) {
        std::copy_n(src.data() + 3 + r * kStride, width,
                    want.data() + 5 + r * kStride);
      }
      kt.conceal_copy(got.data() + 5, kStride, src.data() + 3, kStride,
                      width, 16);
      ASSERT_EQ(std::memcmp(got.data(), want.data(), got.size()), 0)
          << kt.name << " copy width " << width;
      // Fill, including the 0 and 255 extremes and mid-gray 128.
      for (const int value : {0, 128, 255, 42}) {
        got = want;
        for (int r = 0; r < 16; ++r) {
          std::fill_n(want.data() + 5 + r * kStride, width,
                      static_cast<std::uint8_t>(value));
        }
        kt.conceal_fill(got.data() + 5, kStride,
                        static_cast<std::uint8_t>(value), width, 16);
        ASSERT_EQ(std::memcmp(got.data(), want.data(), got.size()), 0)
            << kt.name << " fill width " << width << " value " << value;
      }
    }
  }
}

TEST(BackendEquivalence, SsePlaneAndSad16AllBackends) {
  Rng rng(0x5AD);
  constexpr int kStride = 96;
  std::vector<std::uint8_t> a(kStride * 64), c(kStride * 64);
  for (const kernels::Backend b : vector_backends()) {
    const kernels::KernelTable& kt = kernels::table(b);
    for (int trial = 0; trial < 50; ++trial) {
      // Saturated planes on the last trials hit the accumulator edges.
      const bool extreme = trial >= 46;
      for (auto& p : a) {
        p = extreme ? std::uint8_t{255}
                    : static_cast<std::uint8_t>(rng.next_below(256));
      }
      for (auto& p : c) {
        p = extreme ? std::uint8_t{0}
                    : static_cast<std::uint8_t>(rng.next_below(256));
      }
      for (const auto& [w, h] : {std::pair{64, 48}, {37, 21}, {16, 16},
                                {8, 8}, {1, 1}}) {
        std::uint64_t want = 0;
        for (int y = 0; y < h; ++y) {
          for (int x = 0; x < w; ++x) {
            const int d = int{a[y * kStride + x]} - int{c[y * kStride + x]};
            want += static_cast<std::uint64_t>(d * d);
          }
        }
        ASSERT_EQ(kt.sse_plane(a.data(), kStride, c.data(), kStride, w, h),
                  want)
            << kt.name << " sse " << w << "x" << h;
      }
      for (int mode = 0; mode < 4; ++mode) {
        const bool hx = (mode & 1) != 0, hy = (mode & 2) != 0;
        int want = 0;
        for (int row = 0; row < 16; ++row) {
          const std::uint8_t* rr = a.data() + 1 + (row + 1) * kStride;
          const std::uint8_t* cc = c.data() + row * kStride;
          for (int col = 0; col < 16; ++col) {
            int pel;
            if (!hx && !hy) {
              pel = rr[col];
            } else if (hx && !hy) {
              pel = (rr[col] + rr[col + 1] + 1) >> 1;
            } else if (!hx && hy) {
              pel = (rr[col] + rr[col + kStride] + 1) >> 1;
            } else {
              pel = (rr[col] + rr[col + 1] + rr[col + kStride] +
                     rr[col + kStride + 1] + 2) >>
                    2;
            }
            want += std::abs(pel - int{cc[col]});
          }
        }
        ASSERT_EQ(kt.sad16(a.data() + 1 + kStride, kStride, c.data(),
                           kStride, hx, hy),
                  want)
            << kt.name << " sad hx=" << hx << " hy=" << hy;
      }
    }
  }
}

}  // namespace
}  // namespace pmp2::mpeg2
