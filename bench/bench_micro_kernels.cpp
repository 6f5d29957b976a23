// Supporting micro-benchmarks (google-benchmark): throughput of the decode
// kernels the paper's costs decompose into — IDCT, VLC block decode, motion
// compensation, SAD — plus startcode scanning and the output digest.
//
// The *_Ref / optimized pairs measure the hot-path kernel rewrites against
// the reference implementations they replaced (sparsity-aware IDCT vs the
// dense two-pass transform, SWAR motion compensation vs the scalar loops,
// cached-window bit reading vs per-peek byte gathering, sign-folded VLC
// tables vs lookup + sign bit). The IDCT pairs run over a coefficient-block
// corpus harvested from a decoded 704x480 stream, so the sparsity mix is
// the real decoder's, not a synthetic guess.
//
// `--report-out=BENCH_kernels.json` writes every result (ns/op) plus the
// before/after speedup summary through the standard RunReport machinery;
// remaining arguments are passed to google-benchmark.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <map>
#include <set>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bitstream/startcode.h"
#include "mpeg2/dct.h"
#include "mpeg2/decoder.h"
#include "mpeg2/kernels/kernels.h"
#include "mpeg2/motion.h"
#include "mpeg2/motion_est.h"
#include "mpeg2/vlc_tables.h"
#include "obs/prof/counters.h"
#include "obs/report.h"
#include "parallel/stats.h"
#include "streamgen/scene.h"
#include "streamgen/stream_factory.h"
#include "util/rng.h"

namespace {

using namespace pmp2;
using namespace pmp2::mpeg2;

void BM_IdctInt(benchmark::State& state) {
  Rng rng(1);
  Block base{};
  for (int i = 0; i < 16; ++i) {
    base[rng.next_below(64)] = static_cast<std::int16_t>(rng.next_in(-500, 500));
  }
  for (auto _ : state) {
    Block b = base;
    idct_int(b);
    benchmark::DoNotOptimize(b);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IdctInt);

void BM_IdctIntDcOnly(benchmark::State& state) {
  for (auto _ : state) {
    Block b{};
    b[0] = 1024;
    idct_int(b);
    benchmark::DoNotOptimize(b);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IdctIntDcOnly);

void BM_VlcDctDecode(benchmark::State& state) {
  // Encode a representative coefficient block once; decode it repeatedly.
  BitWriter bw;
  const auto& scan = zigzag_scan();
  Block q{};
  Rng rng(2);
  for (int i = 0; i < 12; ++i) {
    q[scan[1 + i * 5]] = static_cast<std::int16_t>(rng.next_in(1, 12));
  }
  int run = 0;
  bool first = true;
  for (int i = 0; i < 64; ++i) {
    const int level = q[scan[i]];
    if (!level) {
      ++run;
      continue;
    }
    if (first && run == 0 && level == 1) {
      bw.put_bit(1);
      bw.put_bit(0);
    } else {
      const Code c = encode_dct_run_level(false, run, level);
      c.put(bw);
      bw.put_bit(0);
    }
    first = false;
    run = 0;
  }
  dct_eob_code(false).put(bw);
  bw.put(0, 24);
  const auto bytes = bw.take();

  SequenceHeader seq;
  seq.intra_matrix = default_intra_matrix();
  seq.non_intra_matrix = default_non_intra_matrix();
  PictureContext pic;
  pic.seq = &seq;
  for (auto _ : state) {
    BitReader br(bytes);
    Block out;
    WorkMeter work;
    const bool ok = BlockDecoder::decode_non_intra(br, pic, 8, out, work);
    benchmark::DoNotOptimize(ok);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VlcDctDecode);

void BM_MotionCompensate(benchmark::State& state) {
  streamgen::SceneConfig sc;
  sc.width = 352;
  sc.height = 240;
  const streamgen::SceneGenerator scene(sc);
  auto ref = scene.render(0);
  auto dst = scene.render(1);
  const MotionVector mv{3, -3};  // half-pel in both axes (worst case)
  int mb = 0;
  for (auto _ : state) {
    const int mb_x = 1 + (mb % 18);
    const int mb_y = 1 + (mb / 18) % 12;
    mc_macroblock(*ref, 0, *dst, 1, mb_x, mb_y, mv, McMode::kCopy);
    ++mb;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MotionCompensate);

void BM_Sad16x16(benchmark::State& state) {
  streamgen::SceneConfig sc;
  sc.width = 352;
  sc.height = 240;
  const streamgen::SceneGenerator scene(sc);
  auto ref = scene.render(0);
  auto cur = scene.render(1);
  int i = 0;
  for (auto _ : state) {
    const MotionVector mv{static_cast<std::int16_t>((i % 5) - 2), 1};
    benchmark::DoNotOptimize(mb_sad(*ref, *cur, 5, 5, mv));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Sad16x16);

void BM_VlcLookupFlat(benchmark::State& state) {
  const VlcDecoder& dec = dct_table_decoder(false);
  Rng rng(11);
  std::vector<std::uint32_t> patterns(4096);
  for (auto& p : patterns) {
    p = static_cast<std::uint32_t>(rng.next_u64()) &
        ((1u << dec.max_len()) - 1);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dec.lookup(patterns[i++ & 4095]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VlcLookupFlat);

void BM_VlcLookupTwoLevel(benchmark::State& state) {
  static const TwoLevelVlcDecoder dec(dct_table_zero_entries(), 8);
  Rng rng(11);
  std::vector<std::uint32_t> patterns(4096);
  for (auto& p : patterns) {
    p = static_cast<std::uint32_t>(rng.next_u64()) &
        ((1u << dec.max_len()) - 1);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dec.lookup(patterns[i++ & 4095]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VlcLookupTwoLevel);

void BM_StartcodeScan(benchmark::State& state) {
  static const std::vector<std::uint8_t> stream = [] {
    streamgen::StreamSpec spec;
    spec.width = 176;
    spec.height = 120;
    spec.pictures = 26;
    spec.bit_rate = 1'500'000;
    return streamgen::generate_stream(spec);
  }();
  for (auto _ : state) {
    benchmark::DoNotOptimize(pmp2::scan_all_startcodes(stream));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(stream.size()));
}
BENCHMARK(BM_StartcodeScan);

void BM_DecodePicture(benchmark::State& state) {
  static const std::vector<std::uint8_t> stream = [] {
    streamgen::StreamSpec spec;
    spec.width = 352;
    spec.height = 240;
    spec.pictures = 13;
    spec.bit_rate = 5'000'000;
    return streamgen::generate_stream(spec);
  }();
  for (auto _ : state) {
    Decoder dec;
    int frames = 0;
    const auto st =
        dec.decode_stream(stream, [&](FramePtr) { ++frames; });
    benchmark::DoNotOptimize(st.ok);
    benchmark::DoNotOptimize(frames);
  }
  state.SetItemsProcessed(state.iterations() * 13);
}
BENCHMARK(BM_DecodePicture)->Unit(benchmark::kMillisecond);

/// The display-order output digest over one 1408x960 frame: the per-frame
/// hash every decoded picture pays on its decoding worker.
void BM_FrameDigest(benchmark::State& state) {
  Frame frame(1408, 960);
  Rng rng(9);
  for (int p = 0; p < 3; ++p) {
    const int rows = p == 0 ? frame.coded_height() : frame.coded_height() / 2;
    for (int i = 0; i < rows * frame.stride(p); ++i) {
      frame.plane(p)[i] = static_cast<std::uint8_t>(rng.next_below(256));
    }
  }
  const std::int64_t display_bytes =
      static_cast<std::int64_t>(frame.width()) * frame.height() +
      2 * static_cast<std::int64_t>((frame.width() + 1) / 2) *
          ((frame.height() + 1) / 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(parallel::frame_digest(frame));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          display_bytes);
}
BENCHMARK(BM_FrameDigest)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// Before/after kernel pairs
// ---------------------------------------------------------------------------

/// Coefficient blocks harvested from a decoded Table-1 704x480 @ 5 Mbit/s
/// stream (post-dequantize, pre-IDCT), with the exact sparsity of each
/// block. This is the distribution the sparsity-aware IDCT actually sees:
/// the paper's main resolution at its Table-1 bit rate (~0.5 bit/pel), so
/// coded blocks are realistically sparse. Every 17th coded block is kept so
/// the corpus spans the whole GOP (I, P and B pictures) instead of just the
/// dense leading I picture, and the 2048-block cap keeps the working set
/// cache-resident — the pair measures the kernels, not DRAM.
struct BlockCorpus {
  std::vector<Block> blocks;
  std::vector<BlockSparsity> sparsity;
  std::size_t dc_only = 0;
  std::size_t row0_only = 0;  // all coefficients in row 0, not dc_only
  std::size_t nonzero_coeffs = 0;
  std::size_t rows_le2 = 0, rows_le4 = 0;  // pass-1 tier occupancy
  std::size_t cols_le2 = 0, cols_le4 = 0;  // pass-2 tier occupancy
};

const BlockCorpus& block_corpus() {
  static const BlockCorpus corpus = [] {
    struct Capture : BlockObserver {
      std::vector<Block>* out;
      std::size_t seen = 0;
      void on_block(const Block& b, bool) override {
        if (seen++ % 17 == 0 && out->size() < 2048) out->push_back(b);
      }
    };
    BlockCorpus c;
    Capture cap;
    cap.out = &c.blocks;
    streamgen::StreamSpec spec;
    spec.width = 704;
    spec.height = 480;
    spec.pictures = 13;
    const auto stream = streamgen::generate_stream(spec);
    Decoder dec;
    dec.set_block_observer(&cap);
    dec.decode_stream(stream, [](FramePtr) {});
    for (const auto& b : c.blocks) {
      BlockSparsity s = BlockSparsity::none();
      for (int i = 0; i < 64; ++i) {
        if (b[i] != 0) {
          s.mark(i);
          ++c.nonzero_coeffs;
        }
      }
      if (b[0] != 0) s.mark(0);
      c.sparsity.push_back(s);
      if (s.dc_only) ++c.dc_only;
      else if ((s.row_mask & 0xFEu) == 0) ++c.row0_only;
      if ((s.row_mask & 0xFCu) == 0) ++c.rows_le2;
      if ((s.row_mask & 0xF0u) == 0) ++c.rows_le4;
      if ((s.col_mask & 0xFCu) == 0) ++c.cols_le2;
      if ((s.col_mask & 0xF0u) == 0) ++c.cols_le4;
    }
    return c;
  }();
  return corpus;
}

/// The pre-rewrite integer IDCT, kept here verbatim as the before side of
/// the IDCT pairs (the same convention as SeedBitReader below): two full
/// passes with a per-column DC-only skip in pass 1, rounding added in every
/// output descale, no sparsity dispatch. The library's idct_int_dense is
/// NOT used as the baseline because it shares the streamlined kernel body
/// with the sparse path (rounding folded into the even part), which would
/// credit part of this PR's work to the "before" measurement.
namespace seed_idct {

constexpr int kConstBits = 13;
constexpr int kPass1Bits = 2;

constexpr std::int32_t kFix_0_298631336 = 2446;
constexpr std::int32_t kFix_0_390180644 = 3196;
constexpr std::int32_t kFix_0_541196100 = 4433;
constexpr std::int32_t kFix_0_765366865 = 6270;
constexpr std::int32_t kFix_0_899976223 = 7373;
constexpr std::int32_t kFix_1_175875602 = 9633;
constexpr std::int32_t kFix_1_501321110 = 12299;
constexpr std::int32_t kFix_1_847759065 = 15137;
constexpr std::int32_t kFix_1_961570560 = 16069;
constexpr std::int32_t kFix_2_053119869 = 16819;
constexpr std::int32_t kFix_2_562915447 = 20995;
constexpr std::int32_t kFix_3_072711026 = 25172;

constexpr std::int32_t descale(std::int64_t x, int n) {
  return static_cast<std::int32_t>((x + (std::int64_t{1} << (n - 1))) >> n);
}

constexpr std::int64_t mul(std::int64_t a, std::int32_t b) { return a * b; }

void idct_int(Block& block) {
  std::int32_t workspace[64];

  // Pass 1: columns, results scaled up by 2^kPass1Bits.
  for (int col = 0; col < 8; ++col) {
    const std::int16_t* in = block.data() + col;
    std::int32_t* ws = workspace + col;

    if (in[8 * 1] == 0 && in[8 * 2] == 0 && in[8 * 3] == 0 &&
        in[8 * 4] == 0 && in[8 * 5] == 0 && in[8 * 6] == 0 &&
        in[8 * 7] == 0) {
      const std::int32_t dc = static_cast<std::int32_t>(in[0]) << kPass1Bits;
      for (int row = 0; row < 8; ++row) ws[8 * row] = dc;
      continue;
    }

    // Even part.
    std::int64_t z2 = in[8 * 2];
    std::int64_t z3 = in[8 * 6];
    std::int64_t z1 = mul(z2 + z3, kFix_0_541196100);
    const std::int64_t tmp2e = z1 + mul(z3, -kFix_1_847759065);
    const std::int64_t tmp3e = z1 + mul(z2, kFix_0_765366865);
    z2 = in[8 * 0];
    z3 = in[8 * 4];
    const std::int64_t tmp0e = (z2 + z3) << kConstBits;
    const std::int64_t tmp1e = (z2 - z3) << kConstBits;
    const std::int64_t tmp10 = tmp0e + tmp3e;
    const std::int64_t tmp13 = tmp0e - tmp3e;
    const std::int64_t tmp11 = tmp1e + tmp2e;
    const std::int64_t tmp12 = tmp1e - tmp2e;

    // Odd part.
    std::int64_t tmp0 = in[8 * 7];
    std::int64_t tmp1 = in[8 * 5];
    std::int64_t tmp2 = in[8 * 3];
    std::int64_t tmp3 = in[8 * 1];
    z1 = tmp0 + tmp3;
    z2 = tmp1 + tmp2;
    z3 = tmp0 + tmp2;
    std::int64_t z4 = tmp1 + tmp3;
    const std::int64_t z5 = mul(z3 + z4, kFix_1_175875602);
    tmp0 = mul(tmp0, kFix_0_298631336);
    tmp1 = mul(tmp1, kFix_2_053119869);
    tmp2 = mul(tmp2, kFix_3_072711026);
    tmp3 = mul(tmp3, kFix_1_501321110);
    z1 = mul(z1, -kFix_0_899976223);
    z2 = mul(z2, -kFix_2_562915447);
    z3 = mul(z3, -kFix_1_961570560) + z5;
    z4 = mul(z4, -kFix_0_390180644) + z5;
    tmp0 += z1 + z3;
    tmp1 += z2 + z4;
    tmp2 += z2 + z3;
    tmp3 += z1 + z4;

    ws[8 * 0] = descale(tmp10 + tmp3, kConstBits - kPass1Bits);
    ws[8 * 7] = descale(tmp10 - tmp3, kConstBits - kPass1Bits);
    ws[8 * 1] = descale(tmp11 + tmp2, kConstBits - kPass1Bits);
    ws[8 * 6] = descale(tmp11 - tmp2, kConstBits - kPass1Bits);
    ws[8 * 2] = descale(tmp12 + tmp1, kConstBits - kPass1Bits);
    ws[8 * 5] = descale(tmp12 - tmp1, kConstBits - kPass1Bits);
    ws[8 * 3] = descale(tmp13 + tmp0, kConstBits - kPass1Bits);
    ws[8 * 4] = descale(tmp13 - tmp0, kConstBits - kPass1Bits);
  }

  // Pass 2: rows, final descale by kConstBits + kPass1Bits + 3 (the +3 is
  // the 1/8 normalization of the 2-D transform).
  for (int row = 0; row < 8; ++row) {
    const std::int32_t* ws = workspace + row * 8;
    std::int16_t* out = block.data() + row * 8;

    // Even part.
    std::int64_t z2 = ws[2];
    std::int64_t z3 = ws[6];
    std::int64_t z1 = mul(z2 + z3, kFix_0_541196100);
    const std::int64_t tmp2e = z1 + mul(z3, -kFix_1_847759065);
    const std::int64_t tmp3e = z1 + mul(z2, kFix_0_765366865);
    z2 = ws[0];
    z3 = ws[4];
    const std::int64_t tmp0e = (z2 + z3) << kConstBits;
    const std::int64_t tmp1e = (z2 - z3) << kConstBits;
    const std::int64_t tmp10 = tmp0e + tmp3e;
    const std::int64_t tmp13 = tmp0e - tmp3e;
    const std::int64_t tmp11 = tmp1e + tmp2e;
    const std::int64_t tmp12 = tmp1e - tmp2e;

    // Odd part.
    std::int64_t tmp0 = ws[7];
    std::int64_t tmp1 = ws[5];
    std::int64_t tmp2 = ws[3];
    std::int64_t tmp3 = ws[1];
    z1 = tmp0 + tmp3;
    z2 = tmp1 + tmp2;
    z3 = tmp0 + tmp2;
    std::int64_t z4 = tmp1 + tmp3;
    const std::int64_t z5 = mul(z3 + z4, kFix_1_175875602);
    tmp0 = mul(tmp0, kFix_0_298631336);
    tmp1 = mul(tmp1, kFix_2_053119869);
    tmp2 = mul(tmp2, kFix_3_072711026);
    tmp3 = mul(tmp3, kFix_1_501321110);
    z1 = mul(z1, -kFix_0_899976223);
    z2 = mul(z2, -kFix_2_562915447);
    z3 = mul(z3, -kFix_1_961570560) + z5;
    z4 = mul(z4, -kFix_0_390180644) + z5;
    tmp0 += z1 + z3;
    tmp1 += z2 + z4;
    tmp2 += z2 + z3;
    tmp3 += z1 + z4;

    constexpr int kFinal = kConstBits + kPass1Bits + 3;
    out[0] = static_cast<std::int16_t>(descale(tmp10 + tmp3, kFinal));
    out[7] = static_cast<std::int16_t>(descale(tmp10 - tmp3, kFinal));
    out[1] = static_cast<std::int16_t>(descale(tmp11 + tmp2, kFinal));
    out[6] = static_cast<std::int16_t>(descale(tmp11 - tmp2, kFinal));
    out[2] = static_cast<std::int16_t>(descale(tmp12 + tmp1, kFinal));
    out[5] = static_cast<std::int16_t>(descale(tmp12 - tmp1, kFinal));
    out[3] = static_cast<std::int16_t>(descale(tmp13 + tmp0, kFinal));
    out[4] = static_cast<std::int16_t>(descale(tmp13 - tmp0, kFinal));
  }
}

}  // namespace seed_idct

void BM_IdctCorpus_DenseRef(benchmark::State& state) {
  const BlockCorpus& c = block_corpus();
  std::size_t i = 0;
  for (auto _ : state) {
    Block b = c.blocks[i];
    seed_idct::idct_int(b);
    benchmark::DoNotOptimize(b);
    if (++i == c.blocks.size()) i = 0;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["corpus_blocks"] =
      static_cast<double>(c.blocks.size());
  state.counters["corpus_dc_only"] = static_cast<double>(c.dc_only);
  state.counters["corpus_row0_only"] = static_cast<double>(c.row0_only);
  state.counters["corpus_avg_nnz"] =
      static_cast<double>(c.nonzero_coeffs) /
      static_cast<double>(c.blocks.empty() ? 1 : c.blocks.size());
  state.counters["corpus_rows_le2"] = static_cast<double>(c.rows_le2);
  state.counters["corpus_rows_le4"] = static_cast<double>(c.rows_le4);
  state.counters["corpus_cols_le2"] = static_cast<double>(c.cols_le2);
  state.counters["corpus_cols_le4"] = static_cast<double>(c.cols_le4);
}
BENCHMARK(BM_IdctCorpus_DenseRef);

void BM_IdctCorpus_Sparse(benchmark::State& state) {
  const BlockCorpus& c = block_corpus();
  std::size_t i = 0;
  for (auto _ : state) {
    Block b = c.blocks[i];
    idct_int(b, c.sparsity[i]);
    benchmark::DoNotOptimize(b);
    if (++i == c.blocks.size()) i = 0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IdctCorpus_Sparse);

void BM_IdctCorpus_SelfDerived(benchmark::State& state) {
  const BlockCorpus& c = block_corpus();
  std::size_t i = 0;
  for (auto _ : state) {
    Block b = c.blocks[i];
    idct_int(b);
    benchmark::DoNotOptimize(b);
    if (++i == c.blocks.size()) i = 0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IdctCorpus_SelfDerived);

/// Interleaved dense/sparse A-B measurement: both kernels sweep the same
/// corpus within every benchmark iteration, and each half keeps its minimum
/// sweep time across iterations. Because the halves alternate ~300us apart,
/// scheduler steal and frequency drift hit both sides symmetrically, and
/// the per-half minimum is the noise floor — this makes the dense/sparse
/// ratio reproducible on shared machines where separately-run benchmarks
/// drift by +-20% between invocations. The official sparse_idct speedup in
/// the report is derived from this pair's counters.
void BM_IdctCorpus_Pair(benchmark::State& state) {
  const BlockCorpus& c = block_corpus();
  const std::size_t n = c.blocks.size();
  std::vector<Block> scratch(n);
  benchmark::DoNotOptimize(scratch.data());
  double dense_min = 0.0;
  double sparse_min = 0.0;
  for (auto _ : state) {
    // Refresh the inputs outside the timed windows: the sweeps time the
    // transforms alone, not the 128-byte block copies common to both.
    std::memcpy(scratch.data(), c.blocks.data(), n * sizeof(Block));
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      seed_idct::idct_int(scratch[i]);
    }
    benchmark::ClobberMemory();
    const auto t1 = std::chrono::steady_clock::now();
    std::memcpy(scratch.data(), c.blocks.data(), n * sizeof(Block));
    const auto t2 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      idct_int(scratch[i], c.sparsity[i]);
    }
    benchmark::ClobberMemory();
    const auto t3 = std::chrono::steady_clock::now();
    const double d = std::chrono::duration<double, std::nano>(t1 - t0).count();
    const double s = std::chrono::duration<double, std::nano>(t3 - t2).count();
    if (dense_min == 0.0 || d < dense_min) dense_min = d;
    if (sparse_min == 0.0 || s < sparse_min) sparse_min = s;
  }
  const double nd = static_cast<double>(n == 0 ? 1 : n);
  state.counters["dense_ns"] = dense_min / nd;
  state.counters["sparse_ns"] = sparse_min / nd;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n));
}
BENCHMARK(BM_IdctCorpus_Pair)->Unit(benchmark::kMicrosecond);

void BM_IdctDcOnly_DenseRef(benchmark::State& state) {
  for (auto _ : state) {
    Block b{};
    b[0] = 1024;
    seed_idct::idct_int(b);
    benchmark::DoNotOptimize(b);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IdctDcOnly_DenseRef);

/// One 16x16 luma prediction, diagonal half-pel — the most expensive
/// interpolation — copy and bidirectional-average variants, scalar
/// reference vs the SWAR kernels.
template <bool Avg, bool Ref>
void BM_McHalfPel(benchmark::State& state) {
  Rng rng(5);
  std::vector<std::uint8_t> ref_plane(64 * 64);
  for (auto& p : ref_plane) p = static_cast<std::uint8_t>(rng.next_below(256));
  std::vector<std::uint8_t> dst(64 * 64, 128);
  const McMode mode = Avg ? McMode::kAverage : McMode::kCopy;
  for (auto _ : state) {
    if constexpr (Ref) {
      form_prediction_reference(ref_plane.data(), 64, dst.data(), 64, 8, 8,
                                16, 16, 3, -3, mode);
    } else {
      form_prediction(ref_plane.data(), 64, dst.data(), 64, 8, 8, 16, 16, 3,
                      -3, mode);
    }
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetItemsProcessed(state.iterations());
}
void BM_McHalfPelCopy_Ref(benchmark::State& s) { BM_McHalfPel<false, true>(s); }
void BM_McHalfPelCopy_Swar(benchmark::State& s) {
  BM_McHalfPel<false, false>(s);
}
void BM_McHalfPelAvg_Ref(benchmark::State& s) { BM_McHalfPel<true, true>(s); }
void BM_McHalfPelAvg_Swar(benchmark::State& s) { BM_McHalfPel<true, false>(s); }
BENCHMARK(BM_McHalfPelCopy_Ref);
BENCHMARK(BM_McHalfPelCopy_Swar);
BENCHMARK(BM_McHalfPelAvg_Ref);
BENCHMARK(BM_McHalfPelAvg_Swar);

/// The pre-rewrite BitReader::peek: gather 8 bytes around the position on
/// every call. Kept here verbatim as the before side of the pair.
std::uint32_t peek_byte_gather(std::span<const std::uint8_t> data,
                               std::uint64_t bitpos, int n) {
  if (n == 0) return 0;
  const std::uint64_t byte = bitpos >> 3;
  std::uint64_t window = 0;
  for (int i = 0; i < 8; ++i) {
    const std::uint64_t idx = byte + static_cast<std::uint64_t>(i);
    const std::uint8_t b = idx < data.size() ? data[idx] : 0;
    window = (window << 8) | b;
  }
  const int shift = 64 - static_cast<int>(bitpos & 7) - n;
  return static_cast<std::uint32_t>(
      (window >> shift) &
      ((n == 32) ? 0xFFFFFFFFULL : ((1ULL << n) - 1)));
}

/// VLC-decoder-shaped access pattern: wide peek, data-dependent short skip.
const std::vector<std::uint8_t>& peek_buffer() {
  static const std::vector<std::uint8_t> buf = [] {
    Rng rng(17);
    std::vector<std::uint8_t> b(1 << 16);
    for (auto& v : b) v = static_cast<std::uint8_t>(rng.next_below(256));
    return b;
  }();
  return buf;
}

void BM_BitReaderPeekSkip_ByteGatherRef(benchmark::State& state) {
  const auto& buf = peek_buffer();
  const std::uint64_t end = (buf.size() - 8) * 8;
  std::uint64_t pos = 0;
  for (auto _ : state) {
    const std::uint32_t v = peek_byte_gather(buf, pos, 16);
    benchmark::DoNotOptimize(v);
    pos += (v & 15) + 2;
    if (pos >= end) pos = 0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BitReaderPeekSkip_ByteGatherRef);

void BM_BitReaderPeekSkip_Window(benchmark::State& state) {
  const auto& buf = peek_buffer();
  const std::uint64_t end = (buf.size() - 8) * 8;
  BitReader br(buf);
  for (auto _ : state) {
    const std::uint32_t v = br.peek(16);
    benchmark::DoNotOptimize(v);
    br.skip(static_cast<int>(v & 15) + 2);
    if (br.bit_position() >= end) br.seek_bits(0);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BitReaderPeekSkip_Window);

/// The DCT coefficient AC loop in isolation, before vs after the
/// sign-folding: unsigned (run, level) lookup + separate sign bit against
/// one signed lookup. Both decode the same pre-encoded coefficient blocks.
const std::vector<std::vector<std::uint8_t>>& encoded_blocks() {
  static const std::vector<std::vector<std::uint8_t>> blocks = [] {
    Rng rng(23);
    std::vector<std::vector<std::uint8_t>> out;
    const auto& scan = zigzag_scan();
    for (int blk = 0; blk < 256; ++blk) {
      Block q{};
      const int ncoef = 2 + static_cast<int>(rng.next_below(14));
      for (int i = 0; i < ncoef; ++i) {
        const int pos = 1 + static_cast<int>(rng.next_below(40));
        const int level = 1 + static_cast<int>(rng.next_below(6));
        q[scan[pos]] = static_cast<std::int16_t>(
            rng.next_below(2) ? level : -level);
      }
      BitWriter bw;
      int run = 0;
      for (int i = 1; i < 64; ++i) {
        const int level = q[scan[i]];
        if (!level) {
          ++run;
          continue;
        }
        const int mag = level > 0 ? level : -level;
        const Code c = encode_dct_run_level(false, run, mag);
        if (c.len != 0) {
          c.put(bw);
          bw.put_bit(level < 0);
        } else {
          dct_escape_code().put(bw);
          bw.put(static_cast<std::uint32_t>(run), 6);
          bw.put(static_cast<std::uint32_t>(level) & 0xFFF, 12);
        }
        run = 0;
      }
      dct_eob_code(false).put(bw);
      bw.put(0, 24);
      out.push_back(bw.take());
    }
    return out;
  }();
  return blocks;
}

/// The seed's whole DCT AC decode path: byte-gather bit reads (the
/// pre-rewrite BitReader) driving the unsigned table + separate sign bit.
/// Against BM_VlcAcLoop_Signed this measures the combined effect of the
/// cached-window reader and the sign-folded tables on VLC block decode;
/// BM_VlcAcLoop_UnsignedRef isolates the sign-folding alone.
struct SeedBitReader {
  std::span<const std::uint8_t> data;
  std::uint64_t pos = 0;

  [[nodiscard]] std::uint32_t peek(int n) const {
    return peek_byte_gather(data, pos, n);
  }
  void skip(int n) { pos += static_cast<std::uint64_t>(n); }
  std::uint32_t get(int n) {
    const std::uint32_t v = peek(n);
    skip(n);
    return v;
  }
  std::uint32_t get_bit() { return get(1); }
};

void BM_VlcAcLoop_SeedRef(benchmark::State& state) {
  const auto& blocks = encoded_blocks();
  const VlcDecoder& dec = dct_table_decoder(false);
  const auto& scan = zigzag_scan();
  std::size_t i = 0;
  for (auto _ : state) {
    SeedBitReader br{blocks[i]};
    Block q{};
    int idx = 1;
    for (;;) {
      const VlcDecoder::Result r = dec.lookup(br.peek(dec.max_len()));
      if (r.len == 0) break;
      br.skip(r.len);
      const std::int16_t value = r.value;
      if (value == kVlcEob) break;
      int run, level;
      if (value == kVlcEscape) {
        run = static_cast<int>(br.get(6));
        int v = static_cast<int>(br.get(12));
        if (v & 0x800) v -= 4096;
        level = v;
      } else {
        run = unpack_run(value);
        level = unpack_level(value);
        if (br.get_bit()) level = -level;
      }
      idx += run;
      if (idx > 63) break;
      q[scan[idx]] = static_cast<std::int16_t>(level);
      ++idx;
    }
    benchmark::DoNotOptimize(q);
    if (++i == blocks.size()) i = 0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VlcAcLoop_SeedRef);

void BM_VlcAcLoop_UnsignedRef(benchmark::State& state) {
  const auto& blocks = encoded_blocks();
  const VlcDecoder& dec = dct_table_decoder(false);
  const auto& scan = zigzag_scan();
  std::size_t i = 0;
  for (auto _ : state) {
    BitReader br(blocks[i]);
    Block q{};
    int idx = 1;
    for (;;) {
      std::int16_t value;
      if (!dec.decode(br, value)) break;
      if (value == kVlcEob) break;
      int run, level;
      if (value == kVlcEscape) {
        run = static_cast<int>(br.get(6));
        int v = static_cast<int>(br.get(12));
        if (v & 0x800) v -= 4096;
        level = v;
      } else {
        run = unpack_run(value);
        level = unpack_level(value);
        if (br.get_bit()) level = -level;
      }
      idx += run;
      if (idx > 63) break;
      q[scan[idx]] = static_cast<std::int16_t>(level);
      ++idx;
    }
    benchmark::DoNotOptimize(q);
    if (++i == blocks.size()) i = 0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VlcAcLoop_UnsignedRef);

void BM_VlcAcLoop_Signed(benchmark::State& state) {
  const auto& blocks = encoded_blocks();
  const DctCoeffDecoder& dec = dct_coeff_decoder(false);
  const auto& scan = zigzag_scan();
  std::size_t i = 0;
  for (auto _ : state) {
    BitReader br(blocks[i]);
    Block q{};
    int idx = 1;
    for (;;) {
      std::int16_t value;
      if (!dec.decode(br, value)) break;
      if (value == kVlcEob) break;
      int run, level;
      if (value == kVlcEscape) {
        run = static_cast<int>(br.get(6));
        int v = static_cast<int>(br.get(12));
        if (v & 0x800) v -= 4096;
        level = v;
      } else {
        run = unpack_signed_run(value);
        level = unpack_signed_level(value);
      }
      idx += run;
      if (idx > 63) break;
      q[scan[idx]] = static_cast<std::int16_t>(level);
      ++idx;
    }
    benchmark::DoNotOptimize(q);
    if (++i == blocks.size()) i = 0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VlcAcLoop_Signed);

void BM_VlcLookupSignedFlat(benchmark::State& state) {
  const DctCoeffDecoder& dec = dct_coeff_decoder(false);
  Rng rng(11);
  std::vector<std::uint32_t> patterns(4096);
  for (auto& p : patterns) {
    p = static_cast<std::uint32_t>(rng.next_u64()) &
        ((1u << dec.max_len()) - 1);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dec.lookup(patterns[i++ & 4095]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VlcLookupSignedFlat);

void BM_VlcLookupSignedTwoLevel(benchmark::State& state) {
  static const TwoLevelVlcDecoder dec(dct_signed_entries(false), 10);
  Rng rng(11);
  std::vector<std::uint32_t> patterns(4096);
  for (auto& p : patterns) {
    p = static_cast<std::uint32_t>(rng.next_u64()) &
        ((1u << dec.max_len()) - 1);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dec.lookup(patterns[i++ & 4095]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VlcLookupSignedTwoLevel);

// ---------------------------------------------------------------------------
// Per-backend kernel-table pairs: scalar dispatch table (the PR 2
// SWAR/scalar kernels) vs each SIMD backend, one registered benchmark per
// (kernel family, backend). Same interleaved min-of-sweeps discipline as
// BM_IdctCorpus_Pair, so the ratios survive shared-runner noise; the
// per-backend geometric mean over all families is the headline number
// bench_check guards (the AVX2 gate is >= 1.5x).
// ---------------------------------------------------------------------------

namespace kernels = pmp2::mpeg2::kernels;
namespace prof = pmp2::obs::prof;

/// Per-thread hardware counters for the A/B sweeps, or null when the host
/// has no usable PMU (the sweep then stays time-only). The reads sit
/// outside the timed regions, so enabling them never perturbs the ns/op
/// numbers.
prof::ThreadCounters* sweep_counters() {
  static const std::unique_ptr<prof::CounterSource> source =
      prof::make_counter_source();
  static const bool hw =
      (source->mask() & prof::counter_bit(prof::Counter::kCycles)) &&
      (source->mask() & prof::counter_bit(prof::Counter::kInstructions));
  static thread_local std::unique_ptr<prof::ThreadCounters> tc =
      hw ? source->open_thread() : nullptr;
  return tc.get();
}

/// Interleaved A-B harness: per benchmark iteration run prep_a + timed a,
/// then prep_b + timed b, keeping each side's minimum sweep time. Emits
/// before_ns / after_ns counters normalized per op; on PMU hosts also the
/// minimum sweep's cycles and instructions per op for both sides.
template <typename PA, typename FA, typename PB, typename FB>
void ab_sweep(benchmark::State& state, double ops_per_sweep, PA&& prep_a,
              FA&& a, PB&& prep_b, FB&& b) {
  using clock = std::chrono::steady_clock;
  prof::ThreadCounters* const ctr = sweep_counters();
  double a_min = 0.0;
  double b_min = 0.0;
  prof::CounterSample a_ctr, b_ctr;  // counter deltas of the min sweeps
  for (auto _ : state) {
    prep_a();
    prof::CounterSample c0, c1;
    if (ctr) ctr->read(&c0);
    const auto t0 = clock::now();
    a();
    benchmark::ClobberMemory();
    const auto t1 = clock::now();
    if (ctr) ctr->read(&c1);
    prep_b();
    prof::CounterSample c2, c3;
    if (ctr) ctr->read(&c2);
    const auto t2 = clock::now();
    b();
    benchmark::ClobberMemory();
    const auto t3 = clock::now();
    if (ctr) ctr->read(&c3);
    const double da = std::chrono::duration<double, std::nano>(t1 - t0).count();
    const double db = std::chrono::duration<double, std::nano>(t3 - t2).count();
    if (a_min == 0.0 || da < a_min) {
      a_min = da;
      if (ctr) a_ctr = c1.delta_since(c0);
    }
    if (b_min == 0.0 || db < b_min) {
      b_min = db;
      if (ctr) b_ctr = c3.delta_since(c2);
    }
  }
  state.counters["before_ns"] = a_min / ops_per_sweep;
  state.counters["after_ns"] = b_min / ops_per_sweep;
  if (ctr) {
    state.counters["before_cycles"] =
        static_cast<double>(a_ctr.get(prof::Counter::kCycles)) /
        ops_per_sweep;
    state.counters["before_instructions"] =
        static_cast<double>(a_ctr.get(prof::Counter::kInstructions)) /
        ops_per_sweep;
    state.counters["after_cycles"] =
        static_cast<double>(b_ctr.get(prof::Counter::kCycles)) /
        ops_per_sweep;
    state.counters["after_instructions"] =
        static_cast<double>(b_ctr.get(prof::Counter::kInstructions)) /
        ops_per_sweep;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * ops_per_sweep));
}

void mc_pair(benchmark::State& state, const kernels::KernelTable* sc,
             const kernels::KernelTable* kt, bool avg) {
  Rng rng(5);
  std::vector<std::uint8_t> ref(64 * 64);
  for (auto& p : ref) p = static_cast<std::uint8_t>(rng.next_below(256));
  std::vector<std::uint8_t> dst(64 * 64, 128);
  // Diagonal half-pel 16x16 luma prediction, the most expensive taps.
  constexpr int kCalls = 512;
  const auto run = [&](const kernels::KernelTable* k) {
    for (int i = 0; i < kCalls; ++i) {
      k->mc(ref.data() + 65, 64, dst.data() + 65, 64, 16, 16, true, true,
            avg);
    }
    benchmark::DoNotOptimize(dst.data());
  };
  ab_sweep(
      state, kCalls, [] {}, [&] { run(sc); }, [] {}, [&] { run(kt); });
}

void conceal_pair(benchmark::State& state, const kernels::KernelTable* sc,
                  const kernels::KernelTable* kt, bool fill) {
  Rng rng(7);
  std::vector<std::uint8_t> src(384 * 20);
  for (auto& p : src) p = static_cast<std::uint8_t>(rng.next_below(256));
  std::vector<std::uint8_t> dst(384 * 20, 0);
  // One concealed luma slice row at CIF width: 16 rows x 352 pels.
  constexpr int kCalls = 512;
  const auto run = [&](const kernels::KernelTable* k) {
    for (int i = 0; i < kCalls; ++i) {
      if (fill) {
        k->conceal_fill(dst.data(), 384, 128, 352, 16);
      } else {
        k->conceal_copy(dst.data(), 384, src.data(), 384, 352, 16);
      }
    }
    benchmark::DoNotOptimize(dst.data());
  };
  ab_sweep(
      state, kCalls, [] {}, [&] { run(sc); }, [] {}, [&] { run(kt); });
}

void sad16_pair(benchmark::State& state, const kernels::KernelTable* sc,
                const kernels::KernelTable* kt) {
  Rng rng(9);
  std::vector<std::uint8_t> ref(64 * 64), cur(64 * 64);
  for (auto& p : ref) p = static_cast<std::uint8_t>(rng.next_below(256));
  for (auto& p : cur) p = static_cast<std::uint8_t>(rng.next_below(256));
  constexpr int kCalls = 512;
  const auto run = [&](const kernels::KernelTable* k) {
    int sum = 0;
    for (int i = 0; i < kCalls; ++i) {
      sum += k->sad16(ref.data() + 65, 64, cur.data(), 64, true, true);
    }
    benchmark::DoNotOptimize(sum);
  };
  ab_sweep(
      state, kCalls, [] {}, [&] { run(sc); }, [] {}, [&] { run(kt); });
}

void sse_plane_pair(benchmark::State& state, const kernels::KernelTable* sc,
                    const kernels::KernelTable* kt) {
  Rng rng(13);
  std::vector<std::uint8_t> a(352 * 240), b(352 * 240);
  for (auto& p : a) p = static_cast<std::uint8_t>(rng.next_below(256));
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = static_cast<std::uint8_t>(a[i] + (rng.next_below(7)) - 3);
  }
  constexpr int kCalls = 4;
  const auto run = [&](const kernels::KernelTable* k) {
    std::uint64_t sum = 0;
    for (int i = 0; i < kCalls; ++i) {
      sum += k->sse_plane(a.data(), 352, b.data(), 352, 352, 240);
    }
    benchmark::DoNotOptimize(sum);
  };
  ab_sweep(
      state, kCalls, [] {}, [&] { run(sc); }, [] {}, [&] { run(kt); });
}

void idct_corpus_pair(benchmark::State& state,
                      const kernels::KernelTable* sc,
                      const kernels::KernelTable* kt) {
  const BlockCorpus& c = block_corpus();
  const std::size_t n = c.blocks.size();
  std::vector<Block> scratch(n);
  benchmark::DoNotOptimize(scratch.data());
  const auto refresh = [&] {
    std::memcpy(scratch.data(), c.blocks.data(), n * sizeof(Block));
  };
  const auto run = [&](const kernels::KernelTable* k) {
    for (std::size_t i = 0; i < n; ++i) k->idct(scratch[i], c.sparsity[i]);
    benchmark::DoNotOptimize(scratch.data());
  };
  ab_sweep(
      state, static_cast<double>(n == 0 ? 1 : n), refresh, [&] { run(sc); },
      refresh, [&] { run(kt); });
}

// Dense blocks (every column carries AC energy) exercise the pure vector
// butterfly with no occupancy shortcut on either side — the corpus pair
// above measures the blend the decoder actually sees, this pair isolates
// the vector kernel's win on the blocks it is dispatched to.
void idct_dense_pair(benchmark::State& state,
                     const kernels::KernelTable* sc,
                     const kernels::KernelTable* kt) {
  constexpr std::size_t kBlocks = 256;
  std::vector<Block> dense(kBlocks);
  std::uint32_t rng = 0x2545F491u;
  for (Block& b : dense) {
    for (int i = 0; i < 64; ++i) {
      rng = rng * 1664525u + 1013904223u;
      // Typical post-quantization coefficient magnitudes, never zero.
      const int v = 1 + static_cast<int>(rng % 300u);
      b[i] = static_cast<std::int16_t>((rng & 0x8000u) ? -v : v);
    }
  }
  std::vector<Block> scratch(kBlocks);
  benchmark::DoNotOptimize(scratch.data());
  const auto refresh = [&] {
    std::memcpy(scratch.data(), dense.data(), kBlocks * sizeof(Block));
  };
  const auto run = [&](const kernels::KernelTable* k) {
    for (std::size_t i = 0; i < kBlocks; ++i) {
      k->idct(scratch[i], BlockSparsity::dense());
    }
    benchmark::DoNotOptimize(scratch.data());
  };
  ab_sweep(
      state, static_cast<double>(kBlocks), refresh, [&] { run(sc); }, refresh,
      [&] { run(kt); });
}

struct BackendPair {
  std::string label;    // report row key, e.g. "mc_halfpel_copy_sse2"
  std::string bench;    // registered benchmark name
  std::string backend;  // "sse2" / "avx2"
};
std::vector<BackendPair> g_backend_pairs;

void register_backend_pairs() {
  const kernels::KernelTable* sc = &kernels::table(kernels::Backend::kScalar);
  for (const kernels::Backend b : kernels::available_backends()) {
    if (b == kernels::Backend::kScalar) continue;
    const kernels::KernelTable* kt = &kernels::table(b);
    const std::string bn = kernels::backend_name(b);
    const auto add = [&](const std::string& family, auto body) {
      const std::string name = "BM_Kernels_" + family + "_" + bn;
      g_backend_pairs.push_back({family + "_" + bn, name, bn});
      benchmark::RegisterBenchmark(name.c_str(), body)
          ->Unit(benchmark::kMicrosecond);
    };
    add("mc_halfpel_copy", [sc, kt](benchmark::State& s) {
      mc_pair(s, sc, kt, false);
    });
    add("mc_halfpel_avg", [sc, kt](benchmark::State& s) {
      mc_pair(s, sc, kt, true);
    });
    add("conceal_copy", [sc, kt](benchmark::State& s) {
      conceal_pair(s, sc, kt, false);
    });
    add("conceal_fill", [sc, kt](benchmark::State& s) {
      conceal_pair(s, sc, kt, true);
    });
    add("sad16_halfpel", [sc, kt](benchmark::State& s) {
      sad16_pair(s, sc, kt);
    });
    add("psnr_sse_plane", [sc, kt](benchmark::State& s) {
      sse_plane_pair(s, sc, kt);
    });
    add("idct_corpus", [sc, kt](benchmark::State& s) {
      idct_corpus_pair(s, sc, kt);
    });
    add("idct_dense", [sc, kt](benchmark::State& s) {
      idct_dense_pair(s, sc, kt);
    });
  }
}

// ---------------------------------------------------------------------------
// Reporting main: console output as usual, plus --report-out=PATH JSON with
// per-benchmark ns/op and the before/after speedup summary.
// ---------------------------------------------------------------------------

// Captures per-iteration CPU time (not wall time): these are single-threaded
// compute kernels, and process CPU time is immune to the scheduler steal /
// frequency noise that dominates wall clock on shared machines.
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const auto& run : runs) {
      if (run.error_occurred) continue;
      const std::string name = run.benchmark_name();
      // Skip --benchmark_repetitions aggregate rows; the raw repetitions
      // are folded into a per-name minimum below.
      for (const char* suffix : {"_mean", "_median", "_stddev", "_cv"}) {
        if (name.size() > std::strlen(suffix) &&
            name.compare(name.size() - std::strlen(suffix),
                         std::string::npos, suffix) == 0) {
          goto next_run;
        }
      }
      {
        const double iters =
            run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
        results.emplace_back(name, run.cpu_accumulated_time / iters * 1e9);
        for (const auto& [cname, counter] : run.counters) {
          results.emplace_back(name + "/" + cname, counter.value);
        }
      }
    next_run:;
    }
  }
  std::vector<std::pair<std::string, double>> results;
};

/// Minimum ns/op across repetitions of `name` — the noise-floor estimate.
/// Interference (scheduler steal, frequency dips) only ever adds time, so
/// the min over repetitions is the most repeatable per-op figure.
double find_ns(const std::vector<std::pair<std::string, double>>& results,
               const std::string& name) {
  double best = 0.0;
  for (const auto& [n, ns] : results) {
    if (n == name && (best == 0.0 || ns < best)) best = ns;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  std::string report_out;
  std::vector<char*> bench_args;
  bench_args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--report-out=", 0) == 0) {
      report_out = arg.substr(std::strlen("--report-out="));
    } else {
      bench_args.push_back(argv[i]);
    }
  }
  int bench_argc = static_cast<int>(bench_args.size());
  benchmark::Initialize(&bench_argc, bench_args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_args.data())) {
    return 1;
  }
  register_backend_pairs();
  CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (report_out.empty()) return 0;

  obs::RunReport report(
      "bench_micro_kernels",
      "Decode-kernel micro-benchmarks: ns/op per kernel plus before/after "
      "speedups of the optimized hot paths");
  const prof::HostProfile host = prof::probe_host();
  report.set_meta("kernels_backend", kernels::active().name)
      .set_meta("cpu_features", kernels::cpu_features())
      .set_meta("kernel_release", host.kernel_release)
      .set_meta("perf_event_paranoid",
                static_cast<std::int64_t>(host.perf_event_paranoid))
      .set_meta("counter_source", host.source)
      .set_meta("counters_available", host.hw_available);
  std::set<std::string> reported;
  for (const auto& [name, ns] : reporter.results) {
    if (!reported.insert(name).second) continue;
    report.add_row()
        .set("benchmark", name)
        .set("ns_per_op", find_ns(reporter.results, name));
  }
  const struct {
    const char* label;
    const char* before;
    const char* after;
  } pairs[] = {
      {"sparse_idct", "BM_IdctCorpus_Pair/dense_ns",
       "BM_IdctCorpus_Pair/sparse_ns"},
      {"dc_only_idct", "BM_IdctDcOnly_DenseRef", "BM_IdctIntDcOnly"},
      {"mc_halfpel_copy", "BM_McHalfPelCopy_Ref", "BM_McHalfPelCopy_Swar"},
      {"mc_halfpel_avg", "BM_McHalfPelAvg_Ref", "BM_McHalfPelAvg_Swar"},
      {"bitreader_peek_skip", "BM_BitReaderPeekSkip_ByteGatherRef",
       "BM_BitReaderPeekSkip_Window"},
      {"vlc_block_decode", "BM_VlcAcLoop_SeedRef", "BM_VlcAcLoop_Signed"},
      {"vlc_sign_folding", "BM_VlcAcLoop_UnsignedRef", "BM_VlcAcLoop_Signed"},
  };
  for (const auto& p : pairs) {
    const double before = find_ns(reporter.results, p.before);
    const double after = find_ns(reporter.results, p.after);
    if (before <= 0.0 || after <= 0.0) continue;
    report.add_row()
        .set("speedup", p.label)
        .set("before_ns", before)
        .set("after_ns", after)
        .set("ratio", before / after);
    std::cout << "speedup " << p.label << ": " << before / after << "x ("
              << before << " -> " << after << " ns)\n";
  }
  // Per-backend kernel-table pairs (before = the scalar dispatch table)
  // plus each backend's geometric-mean speedup across all kernel families
  // that ran.
  std::map<std::string, std::vector<double>> ratios_by_backend;
  for (const auto& p : g_backend_pairs) {
    const double before = find_ns(reporter.results, p.bench + "/before_ns");
    const double after = find_ns(reporter.results, p.bench + "/after_ns");
    if (before <= 0.0 || after <= 0.0) continue;
    auto& row = report.add_row();
    row.set("speedup", p.label)
        .set("before_ns", before)
        .set("after_ns", after)
        .set("ratio", before / after);
    // Counter columns (PMU hosts only): cycles and instructions per op for
    // both sides of the pair, plus the derived IPC. bench_check compares
    // them only between runs whose counter_source matches.
    const double bc = find_ns(reporter.results, p.bench + "/before_cycles");
    const double bi =
        find_ns(reporter.results, p.bench + "/before_instructions");
    const double ac = find_ns(reporter.results, p.bench + "/after_cycles");
    const double ai =
        find_ns(reporter.results, p.bench + "/after_instructions");
    if (bc > 0.0 && ac > 0.0) {
      row.set("cycles_per_op_before", bc)
          .set("cycles_per_op_after", ac)
          .set("instructions_per_op_before", bi)
          .set("instructions_per_op_after", ai);
      if (bi > 0.0) row.set("ipc_before", bi / bc);
      if (ai > 0.0) row.set("ipc_after", ai / ac);
    }
    std::cout << "speedup " << p.label << ": " << before / after << "x ("
              << before << " -> " << after << " ns)\n";
    ratios_by_backend[p.backend].push_back(before / after);
  }
  for (const auto& [bn, ratios] : ratios_by_backend) {
    double log_sum = 0.0;
    for (const double r : ratios) log_sum += std::log(r);
    const double geomean =
        std::exp(log_sum / static_cast<double>(ratios.size()));
    report.add_row()
        .set("speedup", "geomean_" + bn)
        .set("ratio", geomean);
    std::cout << "speedup geomean_" << bn << ": " << geomean << "x over "
              << ratios.size() << " kernel families\n";
  }
  if (!report.write_file(report_out)) {
    std::cerr << "error: cannot write report to " << report_out << "\n";
    return 1;
  }
  std::cerr << "wrote report: " << report_out << "\n";
  return 0;
}
