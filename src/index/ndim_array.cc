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

// Batched n-d inclusion-exclusion over full prefix sums, eight rectangles
// per iteration: 2^n masked gathers, one per corner, where corner `mask`
// takes lo[d] - 1 in the dimensions of its set bits and hi[d] elsewhere
// and is subtracted when it has an odd number of them. A lane whose
// clipped rectangle is empty, or whose corner has a coordinate of -1,
// gathers nothing. Each corner's index and mask extend those of the corner
// without its lowest bit, so a corner costs one add and one and. Signed
// epi32 arithmetic is exact because the caller gates on int32 indices and
// total count <= INT32_MAX. Returns how many rectangles it counted (a
// multiple of eight); the caller counts the rest.
__attribute__((target("avx2"))) size_t CountRectsNdAvx2(
    const uint32_t* cells, const int32_t* dim_sizes, const int32_t* strides,
    size_t n, const int32_t* los, const int32_t* his, size_t num,
    uint32_t* out) {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i one = _mm256_set1_epi32(1);
  const int* base = reinterpret_cast<const int*>(cells);
  const size_t num_corners = size_t{1} << n;
  __m256i index[size_t{1} << kRectKernelMaxDims];
  __m256i ok[size_t{1} << kRectKernelMaxDims];
  __m256i step[kRectKernelMaxDims];     // (lo - 1 - hi) * stride
  __m256i lo_ok[kRectKernelMaxDims];    // lo - 1 >= 0
  const size_t vec = num / 8 * 8;
  for (size_t i = 0; i < vec; i += 8) {
    __m256i hi_index = zero;
    __m256i empty = zero;
    for (size_t d = 0; d < n; ++d) {
      const __m256i lo = _mm256_max_epi32(
          _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(los + d * num + i)),
          zero);
      const __m256i hi = _mm256_min_epi32(
          _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(his + d * num + i)),
          _mm256_set1_epi32(dim_sizes[d] - 1));
      const __m256i stride = _mm256_set1_epi32(strides[d]);
      empty = _mm256_or_si256(empty, _mm256_cmpgt_epi32(lo, hi));
      hi_index = _mm256_add_epi32(hi_index, _mm256_mullo_epi32(hi, stride));
      step[d] = _mm256_mullo_epi32(
          _mm256_sub_epi32(_mm256_sub_epi32(lo, one), hi), stride);
      lo_ok[d] = _mm256_cmpgt_epi32(lo, zero);
    }
    index[0] = hi_index;
    ok[0] = _mm256_xor_si256(empty, _mm256_set1_epi32(-1));
    __m256i sum = _mm256_mask_i32gather_epi32(zero, base, index[0], ok[0], 4);
    for (size_t mask = 1; mask < num_corners; ++mask) {
      const size_t low = static_cast<size_t>(__builtin_ctzll(mask));
      const size_t rest = mask & (mask - 1);
      index[mask] = _mm256_add_epi32(index[rest], step[low]);
      ok[mask] = _mm256_and_si256(ok[rest], lo_ok[low]);
      const __m256i corner =
          _mm256_mask_i32gather_epi32(zero, base, index[mask], ok[mask], 4);
      sum = __builtin_parityll(mask) ? _mm256_sub_epi32(sum, corner)
                                     : _mm256_add_epi32(sum, corner);
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), sum);
  }
  return vec;
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
  size_t done = 0;
#if QARM_NDIM_AVX2
  // The vector path does signed 32-bit index arithmetic and gather-based
  // sums, so it requires indices and the grand total (the last prefix
  // cell) to fit int32. It computes exactly what the scalar
  // inclusion-exclusion computes.
  if (ActiveIsa() == SimdIsa::kAvx2 && n <= kRectKernelMaxDims &&
      FlatIndexFitsInt32() && cells_.back() <= 0x7fffffffu) {
    int32_t strides[kRectKernelMaxDims];
    for (size_t d = 0; d < n; ++d) {
      strides[d] = static_cast<int32_t>(strides_[d]);
    }
    done = CountRectsNdAvx2(cells_.data(), dim_sizes_.data(), strides, n,
                            los, his, num, out);
  }
#endif
  int32_t lo[64], hi[64];
  for (size_t m = done; m < num; ++m) {
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
