// SSE2 backend: the x86-64 baseline vector ISA, no CPUID gate needed on
// 64-bit hosts. Compiled without extra ISA flags so the whole TU stays
// honest SSE2. Its IDCT entry is the scalar kernel: a vector butterfly
// needs signed 32x32->64 multiplies and 64-bit arithmetic shifts, which
// SSE2 lacks, and the emulated version lost to the scalar column-skipping
// kernel at every occupancy (0.58x even on fully dense blocks).
#include "mpeg2/kernels/backends.h"
#include "mpeg2/kernels/simd_mc.h"

#if defined(PMP2_KERNELS_X86)

#include <emmintrin.h>

#include <cstdint>
#include <cstring>

namespace pmp2::mpeg2::kernels {
namespace {

using simd::xload;

// --- motion compensation ---------------------------------------------------

template <bool Avg>
void mc_dispatch_sse2(const std::uint8_t* src, int ref_stride,
                      std::uint8_t* dst, int dst_stride, int w, int h,
                      int mode) {
  switch (mode) {
    case simd::kMcFull:
      simd::mc_rows_xmm<simd::kMcFull, Avg>(src, ref_stride, dst, dst_stride,
                                            w, h);
      break;
    case simd::kMcHx:
      simd::mc_rows_xmm<simd::kMcHx, Avg>(src, ref_stride, dst, dst_stride,
                                          w, h);
      break;
    case simd::kMcHy:
      simd::mc_rows_xmm<simd::kMcHy, Avg>(src, ref_stride, dst, dst_stride,
                                          w, h);
      break;
    default:
      simd::mc_rows_xmm<simd::kMcHv, Avg>(src, ref_stride, dst, dst_stride,
                                          w, h);
      break;
  }
}

void mc_sse2(const std::uint8_t* src, int ref_stride, std::uint8_t* dst,
             int dst_stride, int w, int h, bool hx, bool hy, bool avg) {
  if ((w & 7) != 0) {
    // Ragged widths are allowed by the contract but produced by no caller
    // (luma/chroma blocks are 16 or 8 wide); the SWAR path handles them.
    detail::mc_scalar(src, ref_stride, dst, dst_stride, w, h, hx, hy, avg);
    return;
  }
  const int mode = (hx ? 1 : 0) | (hy ? 2 : 0);
  if (avg) {
    mc_dispatch_sse2<true>(src, ref_stride, dst, dst_stride, w, h, mode);
  } else {
    mc_dispatch_sse2<false>(src, ref_stride, dst, dst_stride, w, h, mode);
  }
}

// --- concealment -----------------------------------------------------------

// Concealment is pure row-wise copy/fill, and libc's memcpy/memset already
// dispatch to the widest ISA the host has — a hand-rolled 16-byte SSE2 loop
// measured ~2x slower than glibc's AVX memcpy on wide rows. Delegate.
void conceal_copy_sse2(std::uint8_t* dst, int dst_stride,
                       const std::uint8_t* src, int src_stride, int width,
                       int rows) {
  for (int r = 0; r < rows; ++r) {
    std::memcpy(dst + r * dst_stride, src + r * src_stride,
                static_cast<std::size_t>(width));
  }
}

void conceal_fill_sse2(std::uint8_t* dst, int dst_stride, std::uint8_t value,
                       int width, int rows) {
  for (int r = 0; r < rows; ++r) {
    std::memset(dst + r * dst_stride, value, static_cast<std::size_t>(width));
  }
}

// --- SSE (PSNR) and SAD ----------------------------------------------------

std::uint64_t sse_plane_sse2(const std::uint8_t* a, int stride_a,
                             const std::uint8_t* b, int stride_b, int w,
                             int h) {
  const __m128i zero = _mm_setzero_si128();
  __m128i acc64 = zero;
  std::uint64_t tail = 0;
  for (int y = 0; y < h; ++y) {
    const std::uint8_t* pa = a + y * stride_a;
    const std::uint8_t* pb = b + y * stride_b;
    // 32-bit lanes hold a full row safely: each 16-pel chunk adds at most
    // 2 * 255^2 per lane, so overflow needs rows beyond 260K pels.
    __m128i acc32 = zero;
    int x = 0;
    for (; x + 16 <= w; x += 16) {
      const __m128i va = xload(pa + x);
      const __m128i vb = xload(pb + x);
      const __m128i dlo = _mm_sub_epi16(_mm_unpacklo_epi8(va, zero),
                                        _mm_unpacklo_epi8(vb, zero));
      const __m128i dhi = _mm_sub_epi16(_mm_unpackhi_epi8(va, zero),
                                        _mm_unpackhi_epi8(vb, zero));
      acc32 = _mm_add_epi32(acc32, _mm_madd_epi16(dlo, dlo));
      acc32 = _mm_add_epi32(acc32, _mm_madd_epi16(dhi, dhi));
    }
    for (; x < w; ++x) {
      const int d = static_cast<int>(pa[x]) - static_cast<int>(pb[x]);
      tail += static_cast<std::uint64_t>(d * d);
    }
    acc64 = _mm_add_epi64(acc64,
                          _mm_add_epi64(_mm_unpacklo_epi32(acc32, zero),
                                        _mm_unpackhi_epi32(acc32, zero)));
  }
  alignas(16) std::uint64_t lanes[2];
  _mm_store_si128(reinterpret_cast<__m128i*>(lanes), acc64);
  return lanes[0] + lanes[1] + tail;
}

template <int Mode>
int sad16_rows_sse2(const std::uint8_t* ref, int ref_stride,
                    const std::uint8_t* cur, int cur_stride) {
  __m128i acc = _mm_setzero_si128();
  for (int r = 0; r < 16; ++r) {
    const __m128i p = simd::mc_pels16<Mode>(ref + r * ref_stride, ref_stride);
    acc = _mm_add_epi64(acc, _mm_sad_epu8(p, xload(cur + r * cur_stride)));
  }
  return _mm_cvtsi128_si32(acc) +
         _mm_cvtsi128_si32(_mm_srli_si128(acc, 8));
}

int sad16_sse2(const std::uint8_t* ref, int ref_stride,
               const std::uint8_t* cur, int cur_stride, bool hx, bool hy) {
  const int mode = (hx ? 1 : 0) | (hy ? 2 : 0);
  switch (mode) {
    case simd::kMcFull:
      return sad16_rows_sse2<simd::kMcFull>(ref, ref_stride, cur, cur_stride);
    case simd::kMcHx:
      return sad16_rows_sse2<simd::kMcHx>(ref, ref_stride, cur, cur_stride);
    case simd::kMcHy:
      return sad16_rows_sse2<simd::kMcHy>(ref, ref_stride, cur, cur_stride);
    default:
      return sad16_rows_sse2<simd::kMcHv>(ref, ref_stride, cur, cur_stride);
  }
}

constexpr KernelTable kSse2Table = {
    "sse2",           detail::idct_scalar, mc_sse2,     conceal_copy_sse2,
    conceal_fill_sse2, sse_plane_sse2,   sad16_sse2,
};

}  // namespace

namespace detail {
const KernelTable* sse2_table() { return &kSse2Table; }
}  // namespace detail

}  // namespace pmp2::mpeg2::kernels

#else  // non-x86: backend not compiled; NEON would define its own TU.

namespace pmp2::mpeg2::kernels::detail {
const KernelTable* sse2_table() { return nullptr; }
}  // namespace pmp2::mpeg2::kernels::detail

#endif
