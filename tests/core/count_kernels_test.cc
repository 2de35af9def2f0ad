// The SIMD counting kernels against their scalar reference: AVX2 must
// produce bit-identical masks, counts, and indices on every input shape —
// vector-width tails (n % 64, n % 8), all-missing columns, degenerate
// lo==hi ranges. The scalar table defines the semantics; any divergence
// here would silently corrupt mined rule counts.
#include "core/count_kernels.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/cpu_dispatch.h"
#include "common/random.h"
#include "partition/mapped_table.h"

namespace qarm {
namespace {

// Row counts chosen to hit every tail shape: single partial word, exact
// word boundaries, word + partial vector, partial 8-lane and 4-lane tails.
const size_t kSizes[] = {1, 3, 7, 8, 9, 63, 64, 65, 127, 128, 200, 1000};

// The vector tier this CPU can run: {kAvx2}, or none.
std::vector<SimdIsa> VectorIsas() {
  if (DetectCpuIsa() == SimdIsa::kAvx2) return {SimdIsa::kAvx2};
  return {};
}

std::vector<int32_t> RandomColumn(Rng& rng, size_t n, int32_t domain) {
  std::vector<int32_t> col(n);
  for (size_t i = 0; i < n; ++i) {
    col[i] = rng.UniformInt(0, 9) == 0
                 ? kMissingValue
                 : static_cast<int32_t>(rng.UniformInt(0, domain - 1));
  }
  return col;
}

// A non-trivial starting mask (fill_ones then clear a random sprinkle),
// so the &= semantics of the ops is exercised, not just assignment.
std::vector<uint64_t> RandomMask(Rng& rng, const CountKernels& kern,
                                 size_t n) {
  std::vector<uint64_t> mask(MaskWords(n));
  kern.fill_ones(mask.data(), n);
  for (size_t i = 0; i < n; i += 3) {
    if (rng.UniformInt(0, 1) == 0) {
      mask[i / 64] &= ~(uint64_t{1} << (i % 64));
    }
  }
  return mask;
}

TEST(CountKernelsTest, FillOnesZeroesTailBits) {
  const CountKernels& kern = CountKernels::ForIsa(SimdIsa::kScalar);
  for (size_t n : kSizes) {
    std::vector<uint64_t> mask(MaskWords(n), 0xDEADBEEFDEADBEEFull);
    kern.fill_ones(mask.data(), n);
    EXPECT_EQ(kern.popcount(mask.data(), nullptr, 0, n), n) << "n=" << n;
    if (n % 64 != 0) {
      EXPECT_EQ(mask.back() >> (n % 64), 0u) << "n=" << n;
    }
  }
}

TEST(CountKernelsTest, MaskOpsMatchScalarReference) {
  const CountKernels& scalar = CountKernels::ForIsa(SimdIsa::kScalar);
  for (SimdIsa isa : VectorIsas()) {
    const CountKernels& kern = CountKernels::ForIsa(isa);
    ASSERT_EQ(kern.isa, isa);
    Rng rng(7 + static_cast<uint64_t>(isa));
    for (size_t n : kSizes) {
      const std::vector<int32_t> col = RandomColumn(rng, n, 12);
      const std::vector<uint64_t> start = RandomMask(rng, scalar, n);
      const int32_t value = static_cast<int32_t>(rng.UniformInt(0, 11));
      int32_t lo = static_cast<int32_t>(rng.UniformInt(0, 11));
      int32_t hi = static_cast<int32_t>(rng.UniformInt(0, 11));
      if (lo > hi) std::swap(lo, hi);

      std::vector<uint64_t> want = start, got = start;
      scalar.mask_eq(want.data(), col.data(), n, value);
      kern.mask_eq(got.data(), col.data(), n, value);
      EXPECT_EQ(got, want) << IsaName(isa) << " mask_eq n=" << n;

      want = start;
      got = start;
      scalar.mask_neq(want.data(), col.data(), n, kMissingValue);
      kern.mask_neq(got.data(), col.data(), n, kMissingValue);
      EXPECT_EQ(got, want) << IsaName(isa) << " mask_neq n=" << n;

      want = start;
      got = start;
      scalar.mask_range(want.data(), col.data(), n, lo, hi);
      kern.mask_range(got.data(), col.data(), n, lo, hi);
      EXPECT_EQ(got, want) << IsaName(isa) << " mask_range n=" << n;
      EXPECT_EQ(kern.popcount(got.data(), nullptr, 0, n),
                scalar.popcount(want.data(), nullptr, 0, n));
    }
  }
}

// popcount with other masks counts the bits of their AND, for every ISA,
// with zero to three masks after the first.
TEST(CountKernelsTest, PopcountCountsTheAndOfItsMasks) {
  std::vector<SimdIsa> isas = VectorIsas();
  isas.push_back(SimdIsa::kScalar);
  for (SimdIsa isa : isas) {
    const CountKernels& kern = CountKernels::ForIsa(isa);
    Rng rng(11 + static_cast<uint64_t>(isa));
    for (size_t n : kSizes) {
      std::vector<std::vector<uint64_t>> masks;
      for (size_t i = 0; i < 4; ++i) masks.push_back(RandomMask(rng, kern, n));
      std::vector<const uint64_t*> others;
      for (size_t i = 1; i < masks.size(); ++i) {
        others.push_back(masks[i].data());
      }
      for (size_t count = 0; count < masks.size(); ++count) {
        uint64_t want = 0;
        for (size_t r = 0; r < n; ++r) {
          bool set = (masks[0][r / 64] >> (r % 64)) & 1;
          for (size_t i = 0; i < count; ++i) {
            set = set && ((others[i][r / 64] >> (r % 64)) & 1);
          }
          want += set;
        }
        EXPECT_EQ(kern.popcount(masks[0].data(), others.data(), count, n),
                  want)
            << IsaName(isa) << " n=" << n << " count=" << count;
      }
    }
  }
}

TEST(CountKernelsTest, AllMissingColumnClearsEverything) {
  for (SimdIsa isa : VectorIsas()) {
    const CountKernels& kern = CountKernels::ForIsa(isa);
    for (size_t n : kSizes) {
      const std::vector<int32_t> col(n, kMissingValue);
      std::vector<uint64_t> mask(MaskWords(n));
      kern.fill_ones(mask.data(), n);
      kern.mask_neq(mask.data(), col.data(), n, kMissingValue);
      EXPECT_EQ(kern.popcount(mask.data(), nullptr, 0, n), 0u)
          << IsaName(isa) << " n=" << n;
      // And an equality probe against a real value matches nothing either.
      kern.fill_ones(mask.data(), n);
      kern.mask_eq(mask.data(), col.data(), n, 3);
      EXPECT_EQ(kern.popcount(mask.data(), nullptr, 0, n), 0u)
          << IsaName(isa) << " n=" << n;
    }
  }
}

TEST(CountKernelsTest, PointRangeEqualsEqualityCompare) {
  // A lo==hi range (categorical-style rectangle edge) must select exactly
  // the rows an equality compare selects.
  for (SimdIsa isa : VectorIsas()) {
    const CountKernels& kern = CountKernels::ForIsa(isa);
    Rng rng(19);
    for (size_t n : kSizes) {
      const std::vector<int32_t> col = RandomColumn(rng, n, 5);
      std::vector<uint64_t> via_range(MaskWords(n)), via_eq(MaskWords(n));
      kern.fill_ones(via_range.data(), n);
      kern.fill_ones(via_eq.data(), n);
      kern.mask_range(via_range.data(), col.data(), n, 2, 2);
      kern.mask_eq(via_eq.data(), col.data(), n, 2);
      EXPECT_EQ(via_range, via_eq) << IsaName(isa) << " n=" << n;
    }
  }
}

TEST(CountKernelsTest, FlatIndexMatchesScalar) {
  const CountKernels& scalar = CountKernels::ForIsa(SimdIsa::kScalar);
  for (SimdIsa isa : VectorIsas()) {
    const CountKernels& kern = CountKernels::ForIsa(isa);
    Rng rng(23);
    for (size_t n : kSizes) {
      for (size_t dims : {size_t{1}, size_t{2}, size_t{3}}) {
        std::vector<std::vector<int32_t>> cols(dims);
        std::vector<const int32_t*> col_ptrs(dims);
        // Missing values (-1) included on purpose: flat_index wraps rather
        // than branches, and masked-off rows are never read.
        for (size_t d = 0; d < dims; ++d) {
          cols[d] = RandomColumn(rng, n, 9);
          col_ptrs[d] = cols[d].data();
        }
        std::vector<int32_t> strides(dims);
        int32_t stride = 1;
        for (size_t d = dims; d-- > 0;) {
          strides[d] = stride;
          stride *= 9;
        }
        std::vector<int32_t> want(n), got(n);
        scalar.flat_index(want.data(), col_ptrs.data(), strides.data(), dims,
                          n);
        kern.flat_index(got.data(), col_ptrs.data(), strides.data(), dims, n);
        EXPECT_EQ(got, want)
            << IsaName(isa) << " n=" << n << " dims=" << dims;
      }
    }
  }
}

TEST(CountKernelsTest, ForIsaClampsToDetected) {
  // Requesting more than the CPU has yields a table that actually runs.
  const CountKernels& kern = CountKernels::ForIsa(SimdIsa::kAvx2);
  EXPECT_LE(static_cast<int>(kern.isa), static_cast<int>(DetectCpuIsa()));
  EXPECT_EQ(CountKernels::Active().isa, ActiveIsa());
}

}  // namespace
}  // namespace qarm
