// Internal wiring between the dispatch layer and the backend translation
// units. Not part of the public kernels.h surface.
#pragma once

#include <cstdint>

#include "mpeg2/kernels/kernels.h"
#include "mpeg2/types.h"

namespace pmp2::mpeg2::kernels::detail {

// --- scalar entry points (defined next to the seed implementations) ------

/// The seed sparsity-dispatched IDCT (dct.cpp), verbatim PR 2 behavior.
void idct_scalar(Block& block, BlockSparsity s);

/// idct_scalar minus the idct_collapse entry check, for callers (the SIMD
/// hybrids' occupancy crossover) that have already established no collapse
/// shortcut applies — avoids paying the check twice per block.
void idct_scalar_no_collapse(Block& block, const BlockSparsity& s);

/// Shared collapse paths for ac_col_mask == 0 (DC-only fill and the
/// row-0-only replicate). Returns true when the block was fully handled;
/// SIMD backends call this first so the occupancy-driven shortcuts stay
/// byte-identical — and scalar — across backends.
bool idct_collapse(Block& block, const BlockSparsity& s);

/// Maps an 8-bit row/column occupancy mask to the 4-bit lane-group mask
/// ({1}, {2,3}, {4,5,6}, {7}) driving the 16 kernel instantiations.
unsigned idct_group_of(unsigned mask);

/// The seed SWAR motion-compensation dispatch (motion.cpp).
void mc_scalar(const std::uint8_t* src, int ref_stride, std::uint8_t* dst,
               int dst_stride, int w, int h, bool hx, bool hy, bool avg);

// --- per-backend tables ---------------------------------------------------

const KernelTable& scalar_table();

/// Null when the backend is not compiled for this target architecture.
/// Availability on the *host* (CPUID) is dispatch.cpp's concern.
const KernelTable* sse2_table();
const KernelTable* avx2_table();

/// Crossover-free vector IDCT of a backend, for equivalence tests and
/// benchmarks: unlike KernelTable::idct it never hands sparse blocks to
/// the scalar kernel, so the vector butterfly is exercised at every
/// occupancy. Only AVX2 has a vector IDCT; null for the scalar and SSE2
/// backends and for backends not compiled in.
using IdctFn = void (*)(Block&, BlockSparsity);
IdctFn idct_vector_raw(Backend b);
IdctFn avx2_idct_raw();

}  // namespace pmp2::mpeg2::kernels::detail
