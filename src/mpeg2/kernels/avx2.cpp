// AVX2 backend. This TU is compiled with -mavx2 (set per-file in
// CMakeLists.txt) and is only ever entered through the dispatch table
// after a CPUID probe, so no function-level target attributes are
// needed. The IDCT keeps the scalar kernel's int64 accumulator width in
// 64-bit ymm lanes (even/odd split); _mm256_mul_epi32 is a true signed
// 32x32->64 multiply so no sign-correction is required. MC, SAD, and SSE process two rows per
// iteration with 128-bit lane = row.
#include "mpeg2/kernels/backends.h"
#include "mpeg2/kernels/simd_mc.h"

#if defined(PMP2_KERNELS_X86) && defined(__AVX2__)

#include <immintrin.h>

#include <cstdint>
#include <cstring>

#include "mpeg2/kernels/simd_idct.h"

namespace pmp2::mpeg2::kernels {
namespace {

using simd::xload;
using simd::xstore;

inline __m256i yload(const std::uint8_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

inline void ystore(std::uint8_t* p, __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

/// Two consecutive rows of 16 pels, one per 128-bit lane.
inline __m256i yload2(const std::uint8_t* p, int stride) {
  return _mm256_inserti128_si256(_mm256_castsi128_si256(xload(p)),
                                 xload(p + stride), 1);
}

inline void ystore2(std::uint8_t* p, int stride, __m256i v) {
  xstore(p, _mm256_castsi256_si128(v));
  xstore(p + stride, _mm256_extracti128_si256(v, 1));
}

// --- IDCT traits -----------------------------------------------------------

/// 64-bit arithmetic shift right (AVX2 has no vpsraq): logical shift,
/// then sign-propagate with m = 1 << (63 - n): (x >>l n ^ m) - m.
template <int N>
inline __m256i sar64(__m256i x) {
  const __m256i m = _mm256_set1_epi64x(std::int64_t{1} << (63 - N));
  return _mm256_sub_epi64(_mm256_xor_si256(_mm256_srli_epi64(x, N), m), m);
}

struct Avx2V {
  /// Occupancy crossover (see simd_idct.h): native 64-bit lanes and
  /// _mm256_mul_epi32 keep the butterfly cheap enough to win once a few
  /// columns carry AC energy.
  static constexpr int kMinAcCols = 6;
  using Row = __m256i;  // int32 lanes 0-7
  /// Even/odd 64-bit lane split: e holds dword lanes {0,2,4,6}, o holds
  /// {1,3,5,7}; mul/widen/narrow keep the layout consistent so the shared
  /// kernel body is layout-agnostic.
  struct Acc {
    __m256i e, o;
  };

  static Row load16(const std::int16_t* p) {
    return _mm256_cvtepi16_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  }
  static Row zero() { return _mm256_setzero_si256(); }
  static Row add32(Row x, Row y) { return _mm256_add_epi32(x, y); }
  static Row sub32(Row x, Row y) { return _mm256_sub_epi32(x, y); }

  static Acc mul(Row r, std::int32_t c) {
    const __m256i cv = _mm256_set1_epi32(c);
    return {_mm256_mul_epi32(r, cv),
            _mm256_mul_epi32(_mm256_srli_epi64(r, 32), cv)};
  }

  /// (widen(r) << kConstBits) + bias. The widen keeps the even/odd
  /// layout (cvtepi32_epi64 would reshuffle lanes), via shift-based
  /// sign extension.
  static Acc shl13_bias(Row r, std::int64_t bias) {
    const __m256i bv = _mm256_set1_epi64x(bias);
    const __m256i e = sar64<32>(_mm256_slli_epi64(r, 32));
    const __m256i o = sar64<32>(r);
    return {_mm256_add_epi64(_mm256_slli_epi64(e, idct::kConstBits), bv),
            _mm256_add_epi64(_mm256_slli_epi64(o, idct::kConstBits), bv)};
  }

  static Acc add(Acc x, Acc y) {
    return {_mm256_add_epi64(x.e, y.e), _mm256_add_epi64(x.o, y.o)};
  }
  static Acc sub(Acc x, Acc y) {
    return {_mm256_sub_epi64(x.e, y.e), _mm256_sub_epi64(x.o, y.o)};
  }

  template <int N>
  static Row sar_narrow(Acc x) {
    const __m256i lo32 = _mm256_set1_epi64x(0xffffffffll);
    return _mm256_or_si256(_mm256_and_si256(sar64<N>(x.e), lo32),
                           _mm256_slli_epi64(sar64<N>(x.o), 32));
  }

  /// 8x8 int32 transpose: dword unpacks, qword unpacks, then the
  /// cross-lane 128-bit shuffles (in-lane unpacks only mix rows r and
  /// r+4's halves, so exactly one permute2x128 layer is needed).
  static void transpose32(Row m[8]) {
    const __m256i t0 = _mm256_unpacklo_epi32(m[0], m[1]);
    const __m256i t1 = _mm256_unpackhi_epi32(m[0], m[1]);
    const __m256i t2 = _mm256_unpacklo_epi32(m[2], m[3]);
    const __m256i t3 = _mm256_unpackhi_epi32(m[2], m[3]);
    const __m256i t4 = _mm256_unpacklo_epi32(m[4], m[5]);
    const __m256i t5 = _mm256_unpackhi_epi32(m[4], m[5]);
    const __m256i t6 = _mm256_unpacklo_epi32(m[6], m[7]);
    const __m256i t7 = _mm256_unpackhi_epi32(m[6], m[7]);
    const __m256i u0 = _mm256_unpacklo_epi64(t0, t2);  // cols 0|4, rows 0-3
    const __m256i u1 = _mm256_unpackhi_epi64(t0, t2);  // cols 1|5
    const __m256i u2 = _mm256_unpacklo_epi64(t1, t3);  // cols 2|6
    const __m256i u3 = _mm256_unpackhi_epi64(t1, t3);  // cols 3|7
    const __m256i u4 = _mm256_unpacklo_epi64(t4, t6);  // rows 4-7
    const __m256i u5 = _mm256_unpackhi_epi64(t4, t6);
    const __m256i u6 = _mm256_unpacklo_epi64(t5, t7);
    const __m256i u7 = _mm256_unpackhi_epi64(t5, t7);
    m[0] = _mm256_permute2x128_si256(u0, u4, 0x20);
    m[1] = _mm256_permute2x128_si256(u1, u5, 0x20);
    m[2] = _mm256_permute2x128_si256(u2, u6, 0x20);
    m[3] = _mm256_permute2x128_si256(u3, u7, 0x20);
    m[4] = _mm256_permute2x128_si256(u0, u4, 0x31);
    m[5] = _mm256_permute2x128_si256(u1, u5, 0x31);
    m[6] = _mm256_permute2x128_si256(u2, u6, 0x31);
    m[7] = _mm256_permute2x128_si256(u3, u7, 0x31);
  }

  /// Truncating int32 -> int16 (scalar static_cast semantics): per-lane
  /// byte gather of the low halves, then collapse the two lanes' low
  /// qwords.
  static __m128i pack16(Row r) {
    const __m256i sh = _mm256_setr_epi8(
        0, 1, 4, 5, 8, 9, 12, 13, -128, -128, -128, -128, -128, -128, -128,
        -128, 0, 1, 4, 5, 8, 9, 12, 13, -128, -128, -128, -128, -128, -128,
        -128, -128);
    const __m256i t = _mm256_shuffle_epi8(r, sh);
    return _mm256_castsi256_si128(
        _mm256_permute4x64_epi64(t, _MM_SHUFFLE(0, 0, 2, 0)));
  }

  static void store_cols16(Row o[8], std::int16_t* out) {
    __m128i c[8];
    for (int k = 0; k < 8; ++k) c[k] = pack16(o[k]);
    simd::transpose_store_cols16(c, out);
  }
};

void idct_avx2(Block& block, BlockSparsity s) {
  simd::idct_simd<Avx2V>(block, s);
}

void idct_avx2_raw(Block& block, BlockSparsity s) {
  simd::idct_simd_raw<Avx2V>(block, s);
}

// --- motion compensation ---------------------------------------------------

/// One row of 16 half-pel-diagonal pels as 16-bit lanes.
inline __m256i hv_row16(const std::uint8_t* s, int ref_stride) {
  const __m256i a = _mm256_cvtepu8_epi16(xload(s));
  const __m256i a1 = _mm256_cvtepu8_epi16(xload(s + 1));
  const __m256i b = _mm256_cvtepu8_epi16(xload(s + ref_stride));
  const __m256i b1 = _mm256_cvtepu8_epi16(xload(s + ref_stride + 1));
  const __m256i sum =
      _mm256_add_epi16(_mm256_add_epi16(a, a1), _mm256_add_epi16(b, b1));
  return _mm256_srli_epi16(_mm256_add_epi16(sum, _mm256_set1_epi16(2)), 2);
}

/// Two rows of 16 predicted pels (lane = row), matching yload2's layout.
template <int Mode>
inline __m256i mc_pels16x2(const std::uint8_t* s, int ref_stride) {
  if constexpr (Mode == simd::kMcFull) {
    return yload2(s, ref_stride);
  } else if constexpr (Mode == simd::kMcHx) {
    return _mm256_avg_epu8(yload2(s, ref_stride), yload2(s + 1, ref_stride));
  } else if constexpr (Mode == simd::kMcHy) {
    return _mm256_avg_epu8(yload2(s, ref_stride),
                           yload2(s + ref_stride, ref_stride));
  } else {
    const __m256i r0 = hv_row16(s, ref_stride);
    const __m256i r1 = hv_row16(s + ref_stride, ref_stride);
    // packus interleaves the rows' qwords across lanes; the permute puts
    // row 0 in lane 0, row 1 in lane 1. No saturation: values <= 255.
    return _mm256_permute4x64_epi64(_mm256_packus_epi16(r0, r1),
                                    _MM_SHUFFLE(3, 1, 2, 0));
  }
}

/// 16-wide MC, two rows per iteration; odd trailing row via the XMM
/// helpers.
template <int Mode, bool Avg>
void mc16_avx2(const std::uint8_t* src, int ref_stride, std::uint8_t* dst,
               int dst_stride, int h) {
  int r = 0;
  for (; r + 2 <= h; r += 2) {
    __m256i p = mc_pels16x2<Mode>(src + r * ref_stride, ref_stride);
    if constexpr (Avg)
      p = _mm256_avg_epu8(yload2(dst + r * dst_stride, dst_stride), p);
    ystore2(dst + r * dst_stride, dst_stride, p);
  }
  if (r < h) {
    __m128i p = simd::mc_pels16<Mode>(src + r * ref_stride, ref_stride);
    if constexpr (Avg) p = _mm_avg_epu8(xload(dst + r * dst_stride), p);
    xstore(dst + r * dst_stride, p);
  }
}

template <bool Avg>
void mc_dispatch_avx2(const std::uint8_t* src, int ref_stride,
                      std::uint8_t* dst, int dst_stride, int w, int h,
                      int mode) {
  if (w == 16) {
    switch (mode) {
      case simd::kMcFull:
        mc16_avx2<simd::kMcFull, Avg>(src, ref_stride, dst, dst_stride, h);
        return;
      case simd::kMcHx:
        mc16_avx2<simd::kMcHx, Avg>(src, ref_stride, dst, dst_stride, h);
        return;
      case simd::kMcHy:
        mc16_avx2<simd::kMcHy, Avg>(src, ref_stride, dst, dst_stride, h);
        return;
      default:
        mc16_avx2<simd::kMcHv, Avg>(src, ref_stride, dst, dst_stride, h);
        return;
    }
  }
  switch (mode) {  // 8-wide (chroma) and other multiples of 8
    case simd::kMcFull:
      simd::mc_rows_xmm<simd::kMcFull, Avg>(src, ref_stride, dst, dst_stride,
                                            w, h);
      return;
    case simd::kMcHx:
      simd::mc_rows_xmm<simd::kMcHx, Avg>(src, ref_stride, dst, dst_stride,
                                          w, h);
      return;
    case simd::kMcHy:
      simd::mc_rows_xmm<simd::kMcHy, Avg>(src, ref_stride, dst, dst_stride,
                                          w, h);
      return;
    default:
      simd::mc_rows_xmm<simd::kMcHv, Avg>(src, ref_stride, dst, dst_stride,
                                          w, h);
      return;
  }
}

void mc_avx2(const std::uint8_t* src, int ref_stride, std::uint8_t* dst,
             int dst_stride, int w, int h, bool hx, bool hy, bool avg) {
  if ((w & 7) != 0) {
    detail::mc_scalar(src, ref_stride, dst, dst_stride, w, h, hx, hy, avg);
    return;
  }
  const int mode = (hx ? 1 : 0) | (hy ? 2 : 0);
  if (avg) {
    mc_dispatch_avx2<true>(src, ref_stride, dst, dst_stride, w, h, mode);
  } else {
    mc_dispatch_avx2<false>(src, ref_stride, dst, dst_stride, w, h, mode);
  }
}

// --- concealment -----------------------------------------------------------

// Concealment is pure row-wise copy/fill; libc's memcpy/memset already run
// AVX-wide with better alignment handling than a hand loop (an unaligned
// 32-byte ystore loop measured ~30% slower on conceal-width rows).
// Delegate — same choice as the SSE2 backend.
void conceal_copy_avx2(std::uint8_t* dst, int dst_stride,
                       const std::uint8_t* src, int src_stride, int width,
                       int rows) {
  for (int r = 0; r < rows; ++r) {
    std::memcpy(dst + r * dst_stride, src + r * src_stride,
                static_cast<std::size_t>(width));
  }
}

void conceal_fill_avx2(std::uint8_t* dst, int dst_stride, std::uint8_t value,
                       int width, int rows) {
  for (int r = 0; r < rows; ++r) {
    std::memset(dst + r * dst_stride, value, static_cast<std::size_t>(width));
  }
}

// --- SSE (PSNR) and SAD ----------------------------------------------------

std::uint64_t sse_plane_avx2(const std::uint8_t* a, int stride_a,
                             const std::uint8_t* b, int stride_b, int w,
                             int h) {
  const __m256i zero = _mm256_setzero_si256();
  __m256i acc64 = zero;
  std::uint64_t tail = 0;
  for (int y = 0; y < h; ++y) {
    const std::uint8_t* pa = a + y * stride_a;
    const std::uint8_t* pb = b + y * stride_b;
    // Each 32-pel chunk adds at most 2 * 255^2 per 32-bit lane; safe to
    // ~260K pels per row before the per-row widen.
    __m256i acc32 = zero;
    int x = 0;
    for (; x + 32 <= w; x += 32) {
      const __m256i va = yload(pa + x);
      const __m256i vb = yload(pb + x);
      const __m256i dlo = _mm256_sub_epi16(_mm256_unpacklo_epi8(va, zero),
                                           _mm256_unpacklo_epi8(vb, zero));
      const __m256i dhi = _mm256_sub_epi16(_mm256_unpackhi_epi8(va, zero),
                                           _mm256_unpackhi_epi8(vb, zero));
      acc32 = _mm256_add_epi32(acc32, _mm256_madd_epi16(dlo, dlo));
      acc32 = _mm256_add_epi32(acc32, _mm256_madd_epi16(dhi, dhi));
    }
    for (; x < w; ++x) {
      const int d = static_cast<int>(pa[x]) - static_cast<int>(pb[x]);
      tail += static_cast<std::uint64_t>(d * d);
    }
    acc64 = _mm256_add_epi64(acc64,
                             _mm256_add_epi64(_mm256_unpacklo_epi32(acc32, zero),
                                              _mm256_unpackhi_epi32(acc32, zero)));
  }
  alignas(32) std::uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc64);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3] + tail;
}

template <int Mode>
int sad16_rows_avx2(const std::uint8_t* ref, int ref_stride,
                    const std::uint8_t* cur, int cur_stride) {
  __m256i acc = _mm256_setzero_si256();
  for (int r = 0; r < 16; r += 2) {
    const __m256i p = mc_pels16x2<Mode>(ref + r * ref_stride, ref_stride);
    acc = _mm256_add_epi64(
        acc, _mm256_sad_epu8(p, yload2(cur + r * cur_stride, cur_stride)));
  }
  const __m128i s = _mm_add_epi64(_mm256_castsi256_si128(acc),
                                  _mm256_extracti128_si256(acc, 1));
  return _mm_cvtsi128_si32(s) + _mm_cvtsi128_si32(_mm_srli_si128(s, 8));
}

int sad16_avx2(const std::uint8_t* ref, int ref_stride,
               const std::uint8_t* cur, int cur_stride, bool hx, bool hy) {
  const int mode = (hx ? 1 : 0) | (hy ? 2 : 0);
  switch (mode) {
    case simd::kMcFull:
      return sad16_rows_avx2<simd::kMcFull>(ref, ref_stride, cur, cur_stride);
    case simd::kMcHx:
      return sad16_rows_avx2<simd::kMcHx>(ref, ref_stride, cur, cur_stride);
    case simd::kMcHy:
      return sad16_rows_avx2<simd::kMcHy>(ref, ref_stride, cur, cur_stride);
    default:
      return sad16_rows_avx2<simd::kMcHv>(ref, ref_stride, cur, cur_stride);
  }
}

constexpr KernelTable kAvx2Table = {
    "avx2",            idct_avx2,       mc_avx2,       conceal_copy_avx2,
    conceal_fill_avx2, sse_plane_avx2,  sad16_avx2,
};

}  // namespace

namespace detail {
const KernelTable* avx2_table() { return &kAvx2Table; }
IdctFn avx2_idct_raw() { return idct_avx2_raw; }
}  // namespace detail

}  // namespace pmp2::mpeg2::kernels

#else  // toolchain/arch without AVX2 support: backend absent at runtime.

namespace pmp2::mpeg2::kernels::detail {
const KernelTable* avx2_table() { return nullptr; }
IdctFn avx2_idct_raw() { return nullptr; }
}  // namespace pmp2::mpeg2::kernels::detail

#endif
