// Vectorized sparsity-aware IDCT, templated over a backend traits type so
// AVX2 (and a future NEON traits type) share one kernel body.
//
// Bit-exactness with the scalar oracle is the design constraint, not an
// aspiration: the scalar kernel accumulates in int64 (pass-2 accumulators
// exceed 2^31 for dense full-range blocks), so the vector kernel keeps
// every accumulator in 64-bit lanes (the traits' Acc type), applies the
// identical constants/shifts/rounding-folds, and truncates to int16 the
// way the scalar static_cast does (no saturating packs). The lane-group
// dispatch survives vectorization: pass 1 runs with lanes = columns (row
// vectors of dead groups fold to literal-zero registers), an 8x8 int32
// register transpose flips the workspace, pass 2 runs with lanes = rows
// (dead column groups fold the same way), 16 instantiations per pass as
// in the scalar kernel. The two scalar collapse shortcuts (DC-only fill,
// row-0-only replicate) stay shared scalar code via idct_collapse, so
// §7.4.4 mismatch blocks (a lone coefficient at position 63 → group 7)
// and every other occupancy class decode byte-identically on all
// backends.
//
// Folding proof sketch (why running the full butterfly on columns the
// scalar shortcuts is still exact): a DC-only column's butterfly yields
// rshift((dc << 13) + 2^10, 11) = dc << 2 in every output lane — exactly
// the scalar DC propagation — because dc·2^13 is a multiple of 2^11 and
// the folded rounding bias shifts out. A coefficient-free column yields
// rshift(2^10, 11) = 0, and pass 2's group folding never reads columns
// outside the read set, matching the scalar's skipped stores.
#pragma once

#include <bit>
#include <cstdint>

#include "mpeg2/kernels/backends.h"
#include "mpeg2/kernels/idct_common.h"
#include "mpeg2/types.h"

namespace pmp2::mpeg2::kernels::simd {

using namespace pmp2::mpeg2::kernels::idct;

// Occupancy crossover for the vector entry: the scalar pass 1 skips
// non-AC columns outright, so a block with only a couple of live columns
// costs it one or two column butterflies, while the vector kernel always
// pays the full 8-wide butterfly plus two register transposes. Below
// V::kMinAcCols AC columns the scalar group dispatch wins (tuned per
// backend on the decoded-stream corpus in bench_micro_kernels); at or
// above it the vector kernel does. Any value is bit-exact — both sides
// are oracle equal — the threshold only picks the faster one.

/// The shared LLM butterfly over 8 lane-vectors; kShift selects the pass
/// (pass 1: kConstBits - kPass1Bits, pass 2: kFinalBits) and folds the
/// rounding constant into the even part exactly as the scalar kernels do.
template <typename V, unsigned kG, int kShift>
inline void idct_butterfly_v(typename V::Row x0, typename V::Row x1,
                             typename V::Row x2, typename V::Row x3,
                             typename V::Row x4, typename V::Row x5,
                             typename V::Row x6, typename V::Row x7,
                             typename V::Row out[8]) {
  using Row = typename V::Row;
  using Acc = typename V::Acc;
  constexpr std::int64_t kRound = std::int64_t{1} << (kShift - 1);

  // Even part. x2/x4/x6 are literal-zero registers when their groups are
  // folded; the if constexpr branches drop the same term chains the
  // scalar's constant-folded literal zeros drop, and any multiply that
  // survives on a zero register contributes an exact 0 in int64 — the
  // remaining arithmetic is lanewise identical to the scalar kernel.
  Acc tmp10, tmp11, tmp12, tmp13;
  {
    Acc tmp0e, tmp1e;
    if constexpr ((kG & kGroup456) != 0) {
      tmp0e = V::shl13_bias(V::add32(x0, x4), kRound);
      tmp1e = V::shl13_bias(V::sub32(x0, x4), kRound);
    } else {
      const Acc t = V::shl13_bias(x0, kRound);
      tmp0e = t;
      tmp1e = t;
    }
    if constexpr ((kG & (kGroup23 | kGroup456)) != 0) {
      const Acc z1 = V::mul(V::add32(x2, x6), kFix_0_541196100);
      const Acc tmp2e = V::add(z1, V::mul(x6, -kFix_1_847759065));
      const Acc tmp3e = V::add(z1, V::mul(x2, kFix_0_765366865));
      tmp10 = V::add(tmp0e, tmp3e);
      tmp13 = V::sub(tmp0e, tmp3e);
      tmp11 = V::add(tmp1e, tmp2e);
      tmp12 = V::sub(tmp1e, tmp2e);
    } else {
      tmp10 = tmp0e;
      tmp13 = tmp0e;
      tmp11 = tmp1e;
      tmp12 = tmp1e;
    }
  }

  // Odd part: one live group collapses to four multiplies by the same
  // pre-combined constants as the scalar idct_odd_stage (int64
  // distributivity makes the fold exact); otherwise the general chain.
  Acc o0, o1, o2, o3;
  constexpr int kLive = ((kG & kGroup1) ? 1 : 0) + ((kG & kGroup23) ? 1 : 0) +
                        ((kG & kGroup456) ? 1 : 0) + ((kG & kGroup7) ? 1 : 0);
  if constexpr (kLive == 1) {
    if constexpr ((kG & kGroup1) != 0) {
      o0 = V::mul(x1, kFix_1_175875602 - kFix_0_899976223);
      o1 = V::mul(x1, kFix_1_175875602 - kFix_0_390180644);
      o2 = V::mul(x1, kFix_1_175875602);
      o3 = V::mul(x1, kFix_1_501321110 - kFix_0_899976223 -
                           kFix_0_390180644 + kFix_1_175875602);
    } else if constexpr ((kG & kGroup23) != 0) {
      o0 = V::mul(x3, kFix_1_175875602 - kFix_1_961570560);
      o1 = V::mul(x3, kFix_1_175875602 - kFix_2_562915447);
      o2 = V::mul(x3, kFix_3_072711026 - kFix_2_562915447 -
                           kFix_1_961570560 + kFix_1_175875602);
      o3 = V::mul(x3, kFix_1_175875602);
    } else if constexpr ((kG & kGroup456) != 0) {
      o0 = V::mul(x5, kFix_1_175875602);
      o1 = V::mul(x5, kFix_2_053119869 - kFix_2_562915447 -
                           kFix_0_390180644 + kFix_1_175875602);
      o2 = V::mul(x5, kFix_1_175875602 - kFix_2_562915447);
      o3 = V::mul(x5, kFix_1_175875602 - kFix_0_390180644);
    } else {
      o0 = V::mul(x7, kFix_0_298631336 - kFix_0_899976223 -
                           kFix_1_961570560 + kFix_1_175875602);
      o1 = V::mul(x7, kFix_1_175875602);
      o2 = V::mul(x7, kFix_1_175875602 - kFix_1_961570560);
      o3 = V::mul(x7, kFix_1_175875602 - kFix_0_899976223);
    }
  } else {
    const Row z1r = V::add32(x7, x1);
    const Row z2r = V::add32(x5, x3);
    const Row z3r = V::add32(x7, x3);
    const Row z4r = V::add32(x5, x1);
    const Acc z5 = V::mul(V::add32(z3r, z4r), kFix_1_175875602);
    o0 = V::mul(x7, kFix_0_298631336);
    o1 = V::mul(x5, kFix_2_053119869);
    o2 = V::mul(x3, kFix_3_072711026);
    o3 = V::mul(x1, kFix_1_501321110);
    const Acc z1 = V::mul(z1r, -kFix_0_899976223);
    const Acc z2 = V::mul(z2r, -kFix_2_562915447);
    const Acc z3 = V::add(V::mul(z3r, -kFix_1_961570560), z5);
    const Acc z4 = V::add(V::mul(z4r, -kFix_0_390180644), z5);
    o0 = V::add(o0, V::add(z1, z3));
    o1 = V::add(o1, V::add(z2, z4));
    o2 = V::add(o2, V::add(z2, z3));
    o3 = V::add(o3, V::add(z1, z4));
  }

  out[0] = V::template sar_narrow<kShift>(V::add(tmp10, o3));
  out[7] = V::template sar_narrow<kShift>(V::sub(tmp10, o3));
  out[1] = V::template sar_narrow<kShift>(V::add(tmp11, o2));
  out[6] = V::template sar_narrow<kShift>(V::sub(tmp11, o2));
  out[2] = V::template sar_narrow<kShift>(V::add(tmp12, o1));
  out[5] = V::template sar_narrow<kShift>(V::sub(tmp12, o1));
  out[3] = V::template sar_narrow<kShift>(V::add(tmp13, o0));
  out[4] = V::template sar_narrow<kShift>(V::sub(tmp13, o0));
}

/// Pass 1, lanes = columns: loads the block's rows as vectors, dead row
/// groups become zero registers (clear mask bits are guarantees).
template <typename V, unsigned kG>
void idct_pass1_v(const Block& block, typename V::Row ws[8]) {
  using Row = typename V::Row;
  const std::int16_t* p = block.data();
  const Row x0 = V::load16(p + 0);
  const Row x1 = (kG & kGroup1) ? V::load16(p + 8) : V::zero();
  const Row x2 = (kG & kGroup23) ? V::load16(p + 16) : V::zero();
  const Row x3 = (kG & kGroup23) ? V::load16(p + 24) : V::zero();
  const Row x4 = (kG & kGroup456) ? V::load16(p + 32) : V::zero();
  const Row x5 = (kG & kGroup456) ? V::load16(p + 40) : V::zero();
  const Row x6 = (kG & kGroup456) ? V::load16(p + 48) : V::zero();
  const Row x7 = (kG & kGroup7) ? V::load16(p + 56) : V::zero();
  idct_butterfly_v<V, kG, kConstBits - kPass1Bits>(x0, x1, x2, x3, x4, x5,
                                                   x6, x7, ws);
}

/// Pass 2, lanes = rows: `t` is the transposed workspace (vector j =
/// workspace column j); dead column groups fold to zero registers. The
/// butterfly's outputs are the block's columns, so the int16 results get
/// one 8x8 transpose before the row-major store.
template <typename V, unsigned kG>
void idct_pass2_v(typename V::Row t[8], std::int16_t* out) {
  using Row = typename V::Row;
  const Row x1 = (kG & kGroup1) ? t[1] : V::zero();
  const Row x2 = (kG & kGroup23) ? t[2] : V::zero();
  const Row x3 = (kG & kGroup23) ? t[3] : V::zero();
  const Row x4 = (kG & kGroup456) ? t[4] : V::zero();
  const Row x5 = (kG & kGroup456) ? t[5] : V::zero();
  const Row x6 = (kG & kGroup456) ? t[6] : V::zero();
  const Row x7 = (kG & kGroup7) ? t[7] : V::zero();
  Row o[8];
  idct_butterfly_v<V, kG, kFinalBits>(t[0], x1, x2, x3, x4, x5, x6, x7, o);
  V::store_cols16(o, out);
}

template <typename V>
struct IdctTables {
  using Pass1Fn = void (*)(const Block&, typename V::Row*);
  using Pass2Fn = void (*)(typename V::Row*, std::int16_t*);
  static constexpr Pass1Fn kPass1[16] = {
      idct_pass1_v<V, 0>,  idct_pass1_v<V, 1>,  idct_pass1_v<V, 2>,
      idct_pass1_v<V, 3>,  idct_pass1_v<V, 4>,  idct_pass1_v<V, 5>,
      idct_pass1_v<V, 6>,  idct_pass1_v<V, 7>,  idct_pass1_v<V, 8>,
      idct_pass1_v<V, 9>,  idct_pass1_v<V, 10>, idct_pass1_v<V, 11>,
      idct_pass1_v<V, 12>, idct_pass1_v<V, 13>, idct_pass1_v<V, 14>,
      idct_pass1_v<V, 15>};
  static constexpr Pass2Fn kPass2[16] = {
      idct_pass2_v<V, 0>,  idct_pass2_v<V, 1>,  idct_pass2_v<V, 2>,
      idct_pass2_v<V, 3>,  idct_pass2_v<V, 4>,  idct_pass2_v<V, 5>,
      idct_pass2_v<V, 6>,  idct_pass2_v<V, 7>,  idct_pass2_v<V, 8>,
      idct_pass2_v<V, 9>,  idct_pass2_v<V, 10>, idct_pass2_v<V, 11>,
      idct_pass2_v<V, 12>, idct_pass2_v<V, 13>, idct_pass2_v<V, 14>,
      idct_pass2_v<V, 15>};
};

/// The vector two-pass with per-pass group dispatch; preconditions (no
/// collapse shortcut applies) established by the callers below.
template <typename V>
inline void idct_vector_core(Block& block, const BlockSparsity& s) {
  typename V::Row ws[8];
  IdctTables<V>::kPass1[detail::idct_group_of(s.row_mask)](block, ws);
  V::transpose32(ws);
  IdctTables<V>::kPass2[detail::idct_group_of(s.col_mask)](ws, block.data());
}

/// The backend idct entry: shared scalar collapse shortcuts, the occupancy
/// crossover, then the vector two-pass — exactly mirroring the scalar
/// idct_int's structure with one extra branch.
template <typename V>
void idct_simd(Block& block, BlockSparsity s) {
  if (detail::idct_collapse(block, s)) return;
  if (std::popcount(s.ac_col_mask) < V::kMinAcCols) {
    detail::idct_scalar_no_collapse(block, s);
    return;
  }
  idct_vector_core<V>(block, s);
}

/// Crossover-free variant: every non-collapsed block takes the vector
/// path. Exposed through detail::idct_vector_raw() so equivalence tests
/// and benchmarks can exercise the vector butterfly at occupancies the
/// tuned entry would hand to the scalar kernel.
template <typename V>
void idct_simd_raw(Block& block, BlockSparsity s) {
  if (detail::idct_collapse(block, s)) return;
  idct_vector_core<V>(block, s);
}

}  // namespace pmp2::mpeg2::kernels::simd
