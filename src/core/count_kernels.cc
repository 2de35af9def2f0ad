#include "core/count_kernels.h"

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define QARM_X86_KERNELS 1
#include <immintrin.h>
#else
#define QARM_X86_KERNELS 0
#endif

namespace qarm {
namespace {

// --- Scalar reference implementations. --------------------------------------
// These define the semantics; the vector variants below must (and do, by
// exact integer arithmetic) agree bit for bit.

void FillOnesScalar(uint64_t* mask, size_t n) {
  const size_t words = MaskWords(n);
  for (size_t w = 0; w < words; ++w) mask[w] = ~uint64_t{0};
  if (n % 64 != 0) mask[words - 1] = (uint64_t{1} << (n % 64)) - 1;
}

void AndEqScalar(uint64_t* mask, const int32_t* col, size_t n, int32_t value) {
  for (size_t w = 0; w < MaskWords(n); ++w) {
    uint64_t bits = 0;
    const size_t limit = (w + 1) * 64 <= n ? 64 : n - w * 64;
    for (size_t j = 0; j < limit; ++j) {
      bits |= static_cast<uint64_t>(col[w * 64 + j] == value) << j;
    }
    mask[w] &= bits;
  }
}

void AndNeqScalar(uint64_t* mask, const int32_t* col, size_t n,
                  int32_t value) {
  for (size_t w = 0; w < MaskWords(n); ++w) {
    uint64_t bits = 0;
    const size_t limit = (w + 1) * 64 <= n ? 64 : n - w * 64;
    for (size_t j = 0; j < limit; ++j) {
      bits |= static_cast<uint64_t>(col[w * 64 + j] != value) << j;
    }
    mask[w] &= bits;
  }
}

void AndRangeScalar(uint64_t* mask, const int32_t* col, size_t n, int32_t lo,
                    int32_t hi) {
  for (size_t w = 0; w < MaskWords(n); ++w) {
    uint64_t bits = 0;
    const size_t limit = (w + 1) * 64 <= n ? 64 : n - w * 64;
    for (size_t j = 0; j < limit; ++j) {
      const int32_t v = col[w * 64 + j];
      bits |= static_cast<uint64_t>(lo <= v && v <= hi) << j;
    }
    mask[w] &= bits;
  }
}

uint64_t PopcountScalar(const uint64_t* mask, const uint64_t* const* others,
                        size_t count, size_t n) {
  uint64_t total = 0;
  for (size_t w = 0; w < MaskWords(n); ++w) {
    uint64_t bits = mask[w];
    for (size_t i = 0; i < count; ++i) bits &= others[i][w];
    total += static_cast<uint64_t>(__builtin_popcountll(bits));
  }
  return total;
}

void FlatIndexScalar(int32_t* idx, const int32_t* const* cols,
                     const int32_t* strides, size_t dims, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    int32_t sum = 0;
    for (size_t d = 0; d < dims; ++d) {
      // Wrapping arithmetic on purpose: rows that will be masked off may
      // hold kMissingValue and overflow; their indices are never read.
      sum = static_cast<int32_t>(
          static_cast<uint32_t>(sum) +
          static_cast<uint32_t>(cols[d][i]) * static_cast<uint32_t>(strides[d]));
    }
    idx[i] = sum;
  }
}

#if QARM_X86_KERNELS

// --- AVX2: 8 lanes, 8 compare steps per 64-row mask word. -------------------

__attribute__((target("avx2"))) void AndEqAvx2(uint64_t* mask,
                                               const int32_t* col, size_t n,
                                               int32_t value) {
  const __m256i v = _mm256_set1_epi32(value);
  const size_t full = n / 64;
  for (size_t w = 0; w < full; ++w) {
    if (mask[w] == 0) continue;
    const int32_t* p = col + w * 64;
    uint64_t bits = 0;
    for (size_t j = 0; j < 8; ++j) {
      const __m256i x =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + j * 8));
      const uint32_t m = static_cast<uint32_t>(
          _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(x, v))));
      bits |= static_cast<uint64_t>(m) << (8 * j);
    }
    mask[w] &= bits;
  }
  if (n % 64 != 0) {
    uint64_t bits = 0;
    for (size_t j = 0; j < n % 64; ++j) {
      bits |= static_cast<uint64_t>(col[full * 64 + j] == value) << j;
    }
    mask[full] &= bits;
  }
}

__attribute__((target("avx2"))) void AndNeqAvx2(uint64_t* mask,
                                                const int32_t* col, size_t n,
                                                int32_t value) {
  const __m256i v = _mm256_set1_epi32(value);
  const size_t full = n / 64;
  for (size_t w = 0; w < full; ++w) {
    if (mask[w] == 0) continue;
    const int32_t* p = col + w * 64;
    uint64_t bits = 0;
    for (size_t j = 0; j < 8; ++j) {
      const __m256i x =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + j * 8));
      const uint32_t m = static_cast<uint32_t>(
          _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(x, v))) ^
          0xFF);
      bits |= static_cast<uint64_t>(m) << (8 * j);
    }
    mask[w] &= bits;
  }
  if (n % 64 != 0) {
    uint64_t bits = 0;
    for (size_t j = 0; j < n % 64; ++j) {
      bits |= static_cast<uint64_t>(col[full * 64 + j] != value) << j;
    }
    mask[full] &= bits;
  }
}

__attribute__((target("avx2"))) void AndRangeAvx2(uint64_t* mask,
                                                  const int32_t* col, size_t n,
                                                  int32_t lo, int32_t hi) {
  const __m256i vlo = _mm256_set1_epi32(lo);
  const __m256i vhi = _mm256_set1_epi32(hi);
  const size_t full = n / 64;
  for (size_t w = 0; w < full; ++w) {
    if (mask[w] == 0) continue;
    const int32_t* p = col + w * 64;
    uint64_t bits = 0;
    for (size_t j = 0; j < 8; ++j) {
      const __m256i x =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + j * 8));
      const __m256i out = _mm256_or_si256(_mm256_cmpgt_epi32(vlo, x),
                                          _mm256_cmpgt_epi32(x, vhi));
      const uint32_t m = static_cast<uint32_t>(
          _mm256_movemask_ps(_mm256_castsi256_ps(out)) ^ 0xFF);
      bits |= static_cast<uint64_t>(m) << (8 * j);
    }
    mask[w] &= bits;
  }
  if (n % 64 != 0) {
    uint64_t bits = 0;
    for (size_t j = 0; j < n % 64; ++j) {
      const int32_t v = col[full * 64 + j];
      bits |= static_cast<uint64_t>(lo <= v && v <= hi) << j;
    }
    mask[full] &= bits;
  }
}

// Four words (256 rows) per step; the AND is never written back. Every
// AVX2 CPU has POPCNT, without which __builtin_popcountll is a libgcc call.
__attribute__((target("avx2,popcnt"))) uint64_t PopcountAvx2(
    const uint64_t* mask, const uint64_t* const* others, size_t count,
    size_t n) {
  const size_t words = MaskWords(n);
  uint64_t total = 0;
  size_t w = 0;
  for (; w + 4 <= words; w += 4) {
    __m256i acc =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(mask + w));
    for (size_t i = 0; i < count; ++i) {
      acc = _mm256_and_si256(
          acc, _mm256_loadu_si256(
                   reinterpret_cast<const __m256i*>(others[i] + w)));
    }
    alignas(32) uint64_t lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
    for (uint64_t lane : lanes) {
      total += static_cast<uint64_t>(__builtin_popcountll(lane));
    }
  }
  for (; w < words; ++w) {
    uint64_t bits = mask[w];
    for (size_t i = 0; i < count; ++i) bits &= others[i][w];
    total += static_cast<uint64_t>(__builtin_popcountll(bits));
  }
  return total;
}

__attribute__((target("avx2"))) void FlatIndexAvx2(int32_t* idx,
                                                   const int32_t* const* cols,
                                                   const int32_t* strides,
                                                   size_t dims, size_t n) {
  const size_t vec = n / 8 * 8;
  for (size_t i = 0; i < vec; i += 8) {
    __m256i sum = _mm256_setzero_si256();
    for (size_t d = 0; d < dims; ++d) {
      const __m256i x = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(cols[d] + i));
      sum = _mm256_add_epi32(
          sum, _mm256_mullo_epi32(x, _mm256_set1_epi32(strides[d])));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(idx + i), sum);
  }
  for (size_t i = vec; i < n; ++i) {
    int32_t sum = 0;
    for (size_t d = 0; d < dims; ++d) {
      sum = static_cast<int32_t>(static_cast<uint32_t>(sum) +
                                 static_cast<uint32_t>(cols[d][i]) *
                                     static_cast<uint32_t>(strides[d]));
    }
    idx[i] = sum;
  }
}

#endif  // QARM_X86_KERNELS

constexpr CountKernels kScalarKernels = {
    SimdIsa::kScalar, FillOnesScalar, AndEqScalar,    AndNeqScalar,
    AndRangeScalar,   PopcountScalar, FlatIndexScalar,
};

#if QARM_X86_KERNELS
constexpr CountKernels kAvx2Kernels = {
    SimdIsa::kAvx2, FillOnesScalar, AndEqAvx2,     AndNeqAvx2,
    AndRangeAvx2,   PopcountAvx2,   FlatIndexAvx2,
};
#endif

}  // namespace

const CountKernels& CountKernels::ForIsa(SimdIsa isa) {
#if QARM_X86_KERNELS
  // Clamp to the CPU so a table is never dispatched above what the machine
  // can execute (ParseIsaName callers already clamp, but belt-and-braces).
  if (isa == SimdIsa::kAvx2 && DetectCpuIsa() == SimdIsa::kAvx2) {
    return kAvx2Kernels;
  }
#else
  (void)isa;
#endif
  return kScalarKernels;
}

const CountKernels& CountKernels::Active() { return ForIsa(ActiveIsa()); }

}  // namespace qarm
