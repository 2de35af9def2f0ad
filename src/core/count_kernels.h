// Block-level SIMD kernels for the support-counting scan (Section 5's
// hottest loop). Instead of testing one record at a time, the scan computes
// bitmasks over a whole block's rows — vectorized equality/range compares
// per categorical item and per dimension, ANDed per super-candidate — and
// popcounts them into the counters.
//
// Masks are bitsets over a block's rows: bit r%64 of word r/64 is row r.
// `fill_ones` establishes the invariant that bits at and above `n` are
// zero; every other operation only ever clears bits, so the invariant is
// preserved and `popcount` never over-counts the tail.
//
// All operations are exact integer compares/sums, so both ISA tiers
// produce bit-identical results; the dispatch (common/cpu_dispatch.h)
// merely picks how fast they run. The scalar variants are the reference
// the AVX2 ones are tested against. The reduce step's counter-shard add is
// not here: it is index/ndim_array.h's AddU32Span, which the grids' own
// reduce and prefix sums share.
#ifndef QARM_CORE_COUNT_KERNELS_H_
#define QARM_CORE_COUNT_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "common/cpu_dispatch.h"

namespace qarm {

// Number of 64-bit mask words covering `n` rows.
inline constexpr size_t MaskWords(size_t n) { return (n + 63) / 64; }

// Function table of one ISA's kernels. Obtain via ForIsa/Active; the
// pointers are never null (unsupported ISAs fall back to the scalar
// implementation, keeping results identical).
struct CountKernels {
  SimdIsa isa = SimdIsa::kScalar;

  // Sets bits [0, n), zeroes the tail of the last word.
  void (*fill_ones)(uint64_t* mask, size_t n);
  // mask &= (col[i] == value). ("and_eq" is a C++ alternative token, hence
  // the mask_ prefix on the compare ops.)
  void (*mask_eq)(uint64_t* mask, const int32_t* col, size_t n, int32_t value);
  // mask &= (col[i] != value)
  void (*mask_neq)(uint64_t* mask, const int32_t* col, size_t n,
                   int32_t value);
  // mask &= (lo <= col[i] && col[i] <= hi)
  void (*mask_range)(uint64_t* mask, const int32_t* col, size_t n, int32_t lo,
                     int32_t hi);
  // Number of set bits of mask & others[0] & ... & others[count - 1] over
  // rows [0, n) (tail bits are zero by invariant), without storing the AND:
  // a member scan counts a member from the shared masks of its items.
  uint64_t (*popcount)(const uint64_t* mask, const uint64_t* const* others,
                       size_t count, size_t n);
  // idx[i] = sum_d cols[d][i] * strides[d], in wrapping int32 arithmetic.
  // Rows whose mask bit is clear may produce garbage (e.g. from missing
  // values); callers only read indices of set rows, which are in range by
  // construction.
  void (*flat_index)(int32_t* idx, const int32_t* const* cols,
                     const int32_t* strides, size_t dims, size_t n);

  // Kernels of the given ISA (clamped to what this binary/CPU supports).
  static const CountKernels& ForIsa(SimdIsa isa);
  // Kernels of ActiveIsa().
  static const CountKernels& Active();
};

}  // namespace qarm

#endif  // QARM_CORE_COUNT_KERNELS_H_
