#include "index/ndim_array.h"

#include <algorithm>
#include <limits>

#include "common/cpu_dispatch.h"
#include "common/macros.h"

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define QARM_NDIM_AVX2 1
#include <immintrin.h>
#else
#define QARM_NDIM_AVX2 0
#endif

namespace qarm {
namespace {

void AddSpanScalar(uint32_t* dst, const uint32_t* src, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] += src[i];
}

#if QARM_NDIM_AVX2
__attribute__((target("avx2"))) void AddSpanAvx2(uint32_t* dst,
                                                 const uint32_t* src,
                                                 size_t n) {
  const size_t vec = n / 8 * 8;
  for (size_t i = 0; i < vec; i += 8) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_add_epi32(a, b));
  }
  for (size_t i = vec; i < n; ++i) dst[i] += src[i];
}

// Batched 1-d rectangle counts over full prefix sums: out[m] =
// P[min(hi[m], dim-1)] - P[max(lo[m], 0) - 1] with out-of-range and empty
// rectangles zeroed — exactly CountRect, eight rectangles per iteration.
__attribute__((target("avx2"))) void CountRects1dAvx2(
    const uint32_t* cells, int32_t dim, const int32_t* los,
    const int32_t* his, size_t num, uint32_t* out) {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i dim_m1 = _mm256_set1_epi32(dim - 1);
  const int* base = reinterpret_cast<const int*>(cells);
  const size_t vec = num / 8 * 8;
  for (size_t i = 0; i < vec; i += 8) {
    const __m256i lo = _mm256_max_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(los + i)), zero);
    const __m256i hi = _mm256_min_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(his + i)),
        dim_m1);
    const __m256i valid =
        _mm256_xor_si256(_mm256_cmpgt_epi32(lo, hi), _mm256_set1_epi32(-1));
    const __m256i t_hi =
        _mm256_mask_i32gather_epi32(zero, base, hi, valid, 4);
    const __m256i lo_m1 = _mm256_sub_epi32(lo, _mm256_set1_epi32(1));
    const __m256i lo_ok =
        _mm256_and_si256(valid, _mm256_cmpgt_epi32(lo, zero));
    const __m256i t_lo =
        _mm256_mask_i32gather_epi32(zero, base, lo_m1, lo_ok, 4);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_sub_epi32(t_hi, t_lo));
  }
  for (size_t i = vec; i < num; ++i) {
    const int32_t lo = std::max(los[i], 0);
    const int32_t hi = std::min(his[i], dim - 1);
    out[i] = lo > hi ? 0 : cells[hi] - (lo > 0 ? cells[lo - 1] : 0);
  }
}

// Batched 2-d inclusion-exclusion: four masked gathers per eight
// rectangles. Signed epi32 arithmetic is exact because the caller gates on
// total count <= INT32_MAX.
__attribute__((target("avx2"))) void CountRects2dAvx2(
    const uint32_t* cells, int32_t dim0, int32_t dim1, int32_t stride0,
    const int32_t* lo0s, const int32_t* hi0s, const int32_t* lo1s,
    const int32_t* hi1s, size_t num, uint32_t* out) {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i ones = _mm256_set1_epi32(-1);
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i d0_m1 = _mm256_set1_epi32(dim0 - 1);
  const __m256i d1_m1 = _mm256_set1_epi32(dim1 - 1);
  const __m256i s0 = _mm256_set1_epi32(stride0);
  const int* base = reinterpret_cast<const int*>(cells);
  const size_t vec = num / 8 * 8;
  for (size_t i = 0; i < vec; i += 8) {
    const __m256i lo0 = _mm256_max_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(lo0s + i)), zero);
    const __m256i hi0 = _mm256_min_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(hi0s + i)),
        d0_m1);
    const __m256i lo1 = _mm256_max_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(lo1s + i)), zero);
    const __m256i hi1 = _mm256_min_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(hi1s + i)),
        d1_m1);
    const __m256i valid = _mm256_xor_si256(
        _mm256_or_si256(_mm256_cmpgt_epi32(lo0, hi0),
                        _mm256_cmpgt_epi32(lo1, hi1)),
        ones);
    const __m256i a = _mm256_sub_epi32(lo0, one);  // >= -1
    const __m256i b = _mm256_sub_epi32(lo1, one);
    const __m256i a_ok =
        _mm256_and_si256(valid, _mm256_cmpgt_epi32(lo0, zero));
    const __m256i b_ok =
        _mm256_and_si256(valid, _mm256_cmpgt_epi32(lo1, zero));
    const __m256i ab_ok = _mm256_and_si256(a_ok, b_ok);

    const __m256i hi0_s = _mm256_mullo_epi32(hi0, s0);
    const __m256i a_s = _mm256_mullo_epi32(a, s0);
    const __m256i t00 = _mm256_mask_i32gather_epi32(
        zero, base, _mm256_add_epi32(hi0_s, hi1), valid, 4);
    const __m256i t10 = _mm256_mask_i32gather_epi32(
        zero, base, _mm256_add_epi32(a_s, hi1), a_ok, 4);
    const __m256i t01 = _mm256_mask_i32gather_epi32(
        zero, base, _mm256_add_epi32(hi0_s, b), b_ok, 4);
    const __m256i t11 = _mm256_mask_i32gather_epi32(
        zero, base, _mm256_add_epi32(a_s, b), ab_ok, 4);
    const __m256i count = _mm256_add_epi32(
        _mm256_sub_epi32(_mm256_sub_epi32(t00, t10), t01), t11);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), count);
  }
  for (size_t i = vec; i < num; ++i) {
    const int32_t lo0 = std::max(lo0s[i], 0);
    const int32_t hi0 = std::min(hi0s[i], dim0 - 1);
    const int32_t lo1 = std::max(lo1s[i], 0);
    const int32_t hi1 = std::min(hi1s[i], dim1 - 1);
    if (lo0 > hi0 || lo1 > hi1) {
      out[i] = 0;
      continue;
    }
    auto p = [&](int32_t x, int32_t y) -> uint32_t {
      return (x < 0 || y < 0) ? 0 : cells[static_cast<size_t>(x) *
                                              static_cast<size_t>(stride0) +
                                          static_cast<size_t>(y)];
    };
    out[i] = p(hi0, hi1) - p(lo0 - 1, hi1) - p(hi0, lo1 - 1) +
             p(lo0 - 1, lo1 - 1);
  }
}
#endif  // QARM_NDIM_AVX2

}  // namespace

void AddU32Span(uint32_t* dst, const uint32_t* src, size_t n) {
#if QARM_NDIM_AVX2
  if (ActiveIsa() == SimdIsa::kAvx2) {
    AddSpanAvx2(dst, src, n);
    return;
  }
#endif
  AddSpanScalar(dst, src, n);
}

NDimArray::NDimArray(std::vector<int32_t> dim_sizes)
    : dim_sizes_(std::move(dim_sizes)) {
  QARM_CHECK(!dim_sizes_.empty());
  strides_.resize(dim_sizes_.size());
  uint64_t total = 1;
  // Last dimension is contiguous (row-major).
  for (size_t d = dim_sizes_.size(); d-- > 0;) {
    QARM_CHECK_GT(dim_sizes_[d], 0);
    strides_[d] = total;
    total *= static_cast<uint64_t>(dim_sizes_[d]);
  }
  cells_.assign(total, 0);
}

uint64_t NDimArray::EstimateBytes(const std::vector<int32_t>& dim_sizes) {
  uint64_t total = sizeof(uint32_t);
  for (int32_t size : dim_sizes) {
    if (size <= 0) return 0;
    uint64_t next = total * static_cast<uint64_t>(size);
    if (next / static_cast<uint64_t>(size) != total) {
      return std::numeric_limits<uint64_t>::max();
    }
    total = next;
  }
  return total;
}

size_t NDimArray::FlatIndex(const int32_t* point) const {
  uint64_t index = 0;
  for (size_t d = 0; d < dim_sizes_.size(); ++d) {
    QARM_DCHECK(point[d] >= 0 && point[d] < dim_sizes_[d]);
    index += static_cast<uint64_t>(point[d]) * strides_[d];
  }
  return static_cast<size_t>(index);
}

void NDimArray::Increment(const int32_t* point) {
  ++cells_[FlatIndex(point)];
}

void NDimArray::AddFrom(const NDimArray& other) {
  QARM_CHECK(!prefix_built_ && !other.prefix_built_);
  QARM_CHECK(dim_sizes_ == other.dim_sizes_);
  AddU32Span(cells_.data(), other.cells_.data(), cells_.size());
}

uint64_t NDimArray::CellAt(const int32_t* point) const {
  return cells_[FlatIndex(point)];
}

void NDimArray::BuildPrefixSums() {
  QARM_CHECK(!prefix_built_);
  // Running prefix along each dimension in turn yields the full
  // n-dimensional inclusive prefix sum.
  const size_t n = dim_sizes_.size();
  for (size_t d = 0; d < n; ++d) {
    const uint64_t stride = strides_[d];
    const uint64_t dim = static_cast<uint64_t>(dim_sizes_[d]);
    const uint64_t total = cells_.size();
    if (stride >= 8) {
      // Each slab of `stride` cells adds its fully-updated predecessor
      // slab; within a slab reads and writes are `stride` apart, so the
      // 8-wide vector add never crosses the dependence.
      for (uint64_t base = 0; base < total; base += stride * dim) {
        for (uint64_t k = 1; k < dim; ++k) {
          uint32_t* dst = cells_.data() + base + k * stride;
          AddU32Span(dst, dst - stride, static_cast<size_t>(stride));
        }
      }
      continue;
    }
    // Iterate over all cells whose coordinate in dimension d is nonzero and
    // add the predecessor along d.
    for (uint64_t base = 0; base < total; base += stride * dim) {
      for (uint64_t i = stride; i < stride * dim; ++i) {
        cells_[base + i] += cells_[base + i - stride];
      }
    }
  }
  prefix_built_ = true;
}

uint64_t NDimArray::CountRect(const IntRect& rect) const {
  QARM_CHECK_EQ(rect.dims(), dim_sizes_.size());
  const size_t n = dim_sizes_.size();
  if (prefix_built_) {
    QARM_CHECK_LE(n, 63u);
    // Clip to the grid on the stack: this runs once per candidate rectangle
    // of every pass, so it must not allocate.
    int32_t lo[64], hi[64];
    for (size_t d = 0; d < n; ++d) {
      lo[d] = rect.lo[d] < 0 ? 0 : rect.lo[d];
      hi[d] = rect.hi[d] >= dim_sizes_[d] ? dim_sizes_[d] - 1 : rect.hi[d];
      if (lo[d] > hi[d]) return 0;
    }
    return CountRectPrefix(lo, hi);
  }
  std::vector<int32_t> lo(n), hi(n);
  for (size_t d = 0; d < n; ++d) {
    lo[d] = rect.lo[d] < 0 ? 0 : rect.lo[d];
    hi[d] = rect.hi[d] >= dim_sizes_[d] ? dim_sizes_[d] - 1 : rect.hi[d];
    if (lo[d] > hi[d]) return 0;
  }
  return CountRectSweep(lo, hi);
}

void NDimArray::CountRects(const int32_t* los, const int32_t* his, size_t num,
                           uint32_t* out) const {
  QARM_CHECK(prefix_built_);
  const size_t n = dim_sizes_.size();
  QARM_CHECK_LE(n, 63u);
#if QARM_NDIM_AVX2
  // The vector paths do signed 32-bit index arithmetic and gather-based
  // sums, so they require indices and the grand total (the last prefix
  // cell) to fit int32. Both paths compute exactly what the scalar
  // inclusion-exclusion computes.
  if (ActiveIsa() == SimdIsa::kAvx2 && FlatIndexFitsInt32() &&
      cells_.back() <= 0x7fffffffu) {
    if (n == 1) {
      CountRects1dAvx2(cells_.data(), dim_sizes_[0], los, his, num, out);
      return;
    }
    if (n == 2) {
      CountRects2dAvx2(cells_.data(), dim_sizes_[0], dim_sizes_[1],
                       static_cast<int32_t>(strides_[0]), los, his,
                       los + num, his + num, num, out);
      return;
    }
  }
#endif
  int32_t lo[64], hi[64];
  for (size_t m = 0; m < num; ++m) {
    bool empty = false;
    for (size_t d = 0; d < n; ++d) {
      const int32_t l = los[d * num + m];
      const int32_t h = his[d * num + m];
      lo[d] = l < 0 ? 0 : l;
      hi[d] = h >= dim_sizes_[d] ? dim_sizes_[d] - 1 : h;
      if (lo[d] > hi[d]) {
        empty = true;
        break;
      }
    }
    out[m] = empty ? 0 : static_cast<uint32_t>(CountRectPrefix(lo, hi));
  }
}

uint64_t NDimArray::CountRectPrefix(const int32_t* lo,
                                    const int32_t* hi) const {
  const size_t n = dim_sizes_.size();
  // Inclusion-exclusion over the 2^n corners: corners picking lo[d]-1 in an
  // odd number of dimensions are subtracted; any coordinate of -1 zeroes
  // the term.
  int64_t sum = 0;
  for (uint64_t mask = 0; mask < (uint64_t{1} << n); ++mask) {
    uint64_t index = 0;
    bool zero = false;
    int sign = 1;
    for (size_t d = 0; d < n; ++d) {
      int32_t coord;
      if (mask & (uint64_t{1} << d)) {
        coord = lo[d] - 1;
        sign = -sign;
      } else {
        coord = hi[d];
      }
      if (coord < 0) {
        zero = true;
        break;
      }
      index += static_cast<uint64_t>(coord) * strides_[d];
    }
    if (zero) continue;
    sum += sign * static_cast<int64_t>(cells_[index]);
  }
  QARM_DCHECK(sum >= 0);
  return static_cast<uint64_t>(sum);
}

uint64_t NDimArray::CountRectSweep(const std::vector<int32_t>& lo,
                                   const std::vector<int32_t>& hi) const {
  const size_t n = dim_sizes_.size();
  // Odometer walk over the covered cells.
  std::vector<int32_t> cursor = lo;
  uint64_t sum = 0;
  while (true) {
    // Innermost dimension is contiguous: sum the run directly.
    size_t base = FlatIndex(cursor.data());
    size_t run = static_cast<size_t>(hi[n - 1] - cursor[n - 1] + 1);
    for (size_t i = 0; i < run; ++i) sum += cells_[base + i];
    // Advance the odometer, skipping the innermost dimension.
    size_t d = n - 1;
    while (true) {
      if (d == 0) return sum;
      --d;
      if (cursor[d] < hi[d]) {
        ++cursor[d];
        for (size_t e = d + 1; e < n; ++e) cursor[e] = lo[e];
        break;
      }
    }
  }
}

}  // namespace qarm
