#include "index/ndim_array.h"

#include <algorithm>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/cpu_dispatch.h"
#include "common/random.h"

namespace qarm {
namespace {

TEST(IntRectTest, ContainsAndCellCount) {
  IntRect rect{{0, 2}, {3, 5}};
  int32_t inside[] = {2, 4};
  int32_t outside[] = {4, 4};
  EXPECT_TRUE(rect.Contains(inside));
  EXPECT_FALSE(rect.Contains(outside));
  EXPECT_EQ(rect.CellCount(), 16u);  // 4 x 4
}

TEST(NDimArrayTest, OneDimensional) {
  NDimArray array({10});
  int32_t p3 = 3, p7 = 7;
  array.Increment(&p3);
  array.Increment(&p3);
  array.Increment(&p7);
  EXPECT_EQ(array.CellAt(&p3), 2u);
  EXPECT_EQ(array.CountRect(IntRect{{0}, {9}}), 3u);
  EXPECT_EQ(array.CountRect(IntRect{{3}, {3}}), 2u);
  EXPECT_EQ(array.CountRect(IntRect{{4}, {9}}), 1u);
  EXPECT_EQ(array.CountRect(IntRect{{0}, {2}}), 0u);
}

TEST(NDimArrayTest, TwoDimensional) {
  NDimArray array({4, 4});
  for (int32_t x = 0; x < 4; ++x) {
    for (int32_t y = 0; y < 4; ++y) {
      int32_t p[] = {x, y};
      for (int i = 0; i <= x + y; ++i) array.Increment(p);
    }
  }
  // Cell (x,y) holds x+y+1; full grid total = sum = 16 + 2*sum(x)*4 = ...
  uint64_t expected_total = 0;
  for (int x = 0; x < 4; ++x) {
    for (int y = 0; y < 4; ++y) expected_total += x + y + 1;
  }
  EXPECT_EQ(array.CountRect(IntRect{{0, 0}, {3, 3}}), expected_total);
  EXPECT_EQ(array.CountRect(IntRect{{1, 1}, {2, 2}}), 3u + 4 + 4 + 5);
}

TEST(NDimArrayTest, ClipsOutOfRangeRect) {
  NDimArray array({5});
  int32_t p = 2;
  array.Increment(&p);
  EXPECT_EQ(array.CountRect(IntRect{{-10}, {100}}), 1u);
  EXPECT_EQ(array.CountRect(IntRect{{3}, {100}}), 0u);
}

TEST(NDimArrayTest, EmptyRectAfterClip) {
  NDimArray array({5});
  EXPECT_EQ(array.CountRect(IntRect{{7}, {9}}), 0u);
}

TEST(NDimArrayTest, EstimateBytes) {
  EXPECT_EQ(NDimArray::EstimateBytes({10}), 40u);
  EXPECT_EQ(NDimArray::EstimateBytes({10, 10}), 400u);
  // Overflow saturates.
  EXPECT_EQ(NDimArray::EstimateBytes({1 << 30, 1 << 30, 1 << 30}),
            std::numeric_limits<uint64_t>::max());
}

TEST(NDimArrayTest, PrefixSumsMatchSweep) {
  Rng rng(77);
  NDimArray sweep({6, 7, 5});
  NDimArray prefix({6, 7, 5});
  for (int i = 0; i < 500; ++i) {
    int32_t p[] = {static_cast<int32_t>(rng.UniformInt(0, 5)),
                   static_cast<int32_t>(rng.UniformInt(0, 6)),
                   static_cast<int32_t>(rng.UniformInt(0, 4))};
    sweep.Increment(p);
    prefix.Increment(p);
  }
  prefix.BuildPrefixSums();
  EXPECT_TRUE(prefix.prefix_sums_built());
  for (int trial = 0; trial < 200; ++trial) {
    IntRect rect;
    for (int32_t dim : {6, 7, 5}) {
      int32_t a = static_cast<int32_t>(rng.UniformInt(0, dim - 1));
      int32_t b = static_cast<int32_t>(rng.UniformInt(0, dim - 1));
      rect.lo.push_back(std::min(a, b));
      rect.hi.push_back(std::max(a, b));
    }
    EXPECT_EQ(prefix.CountRect(rect), sweep.CountRect(rect));
  }
}

TEST(NDimArrayTest, PrefixSumsOneDim) {
  NDimArray array({8});
  for (int32_t v = 0; v < 8; ++v) {
    for (int32_t i = 0; i <= v; ++i) array.Increment(&v);
  }
  array.BuildPrefixSums();
  EXPECT_EQ(array.CountRect(IntRect{{0}, {7}}), 36u);
  EXPECT_EQ(array.CountRect(IntRect{{3}, {5}}), 4u + 5 + 6);
  EXPECT_EQ(array.CountRect(IntRect{{7}, {7}}), 8u);
}

class NDimArrayRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(NDimArrayRandomTest, CountsMatchBruteForce) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 1000 + 13);
  std::vector<int32_t> dims = {5, 9, 4};
  NDimArray array(dims);
  std::vector<std::vector<int32_t>> points;
  for (int i = 0; i < 300; ++i) {
    std::vector<int32_t> p;
    for (int32_t d : dims) {
      p.push_back(static_cast<int32_t>(rng.UniformInt(0, d - 1)));
    }
    array.Increment(p.data());
    points.push_back(std::move(p));
  }
  if (GetParam() % 2 == 0) array.BuildPrefixSums();
  for (int trial = 0; trial < 100; ++trial) {
    IntRect rect;
    for (int32_t d : dims) {
      int32_t a = static_cast<int32_t>(rng.UniformInt(0, d - 1));
      int32_t b = static_cast<int32_t>(rng.UniformInt(0, d - 1));
      rect.lo.push_back(std::min(a, b));
      rect.hi.push_back(std::max(a, b));
    }
    uint64_t expected = 0;
    for (const auto& p : points) {
      if (rect.Contains(p.data())) ++expected;
    }
    EXPECT_EQ(array.CountRect(rect), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NDimArrayRandomTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// The batched collect path (CountRects: the n-d AVX2 inclusion-exclusion
// up to kRectKernelMaxDims dimensions, scalar past it and on the scalar
// tier) under each ISA this CPU runs, against counts taken from the points
// themselves and against per-rectangle CountRect, including rectangles
// that poke outside the grid on both sides and must clip identically.
class NDimArrayCountRectsTest
    : public ::testing::TestWithParam<std::vector<int32_t>> {};

TEST_P(NDimArrayCountRectsTest, MatchesCountRect) {
  const std::vector<int32_t> dims = GetParam();
  Rng rng(static_cast<uint64_t>(dims.size()) * 31 + 5);
  NDimArray array(dims);
  std::vector<std::vector<int32_t>> points;
  for (int i = 0; i < 400; ++i) {
    std::vector<int32_t> p;
    for (int32_t d : dims) {
      p.push_back(static_cast<int32_t>(rng.UniformInt(0, d - 1)));
    }
    array.Increment(p.data());
    points.push_back(std::move(p));
  }
  array.BuildPrefixSums();

  std::vector<SimdIsa> isas = {SimdIsa::kScalar};
  if (DetectCpuIsa() == SimdIsa::kAvx2) isas.push_back(SimdIsa::kAvx2);
  for (SimdIsa isa : isas) {
    SetIsaForTest(isa);
    // Batch sizes around the vector width, plus a big one.
    for (size_t num :
         {size_t{1}, size_t{7}, size_t{8}, size_t{9}, size_t{130}}) {
      std::vector<int32_t> los(dims.size() * num), his(dims.size() * num);
      std::vector<IntRect> rects(num);
      for (size_t m = 0; m < num; ++m) {
        for (size_t d = 0; d < dims.size(); ++d) {
          // Bounds deliberately range outside the grid on both sides.
          int32_t a = static_cast<int32_t>(rng.UniformInt(-3, dims[d] + 2));
          int32_t b = static_cast<int32_t>(rng.UniformInt(-3, dims[d] + 2));
          if (a > b) std::swap(a, b);
          los[d * num + m] = a;
          his[d * num + m] = b;
          rects[m].lo.push_back(a);
          rects[m].hi.push_back(b);
        }
      }
      std::vector<uint32_t> batched(num);
      array.CountRects(los.data(), his.data(), num, batched.data());
      for (size_t m = 0; m < num; ++m) {
        uint32_t expected = 0;
        for (const auto& p : points) {
          if (rects[m].Contains(p.data())) ++expected;
        }
        EXPECT_EQ(batched[m], expected)
            << IsaName(isa) << " rect " << m << " of " << num;
        EXPECT_EQ(batched[m], array.CountRect(rects[m]))
            << IsaName(isa) << " rect " << m << " of " << num;
      }
    }
  }
  ClearIsaForTest();
}

// The one u32 add (grid reduce, prefix sums and the tree-count shard
// reduce) under each ISA this CPU runs, against a plain loop, at lengths
// that hit every 8-lane tail.
TEST(NDimArrayTest, AddU32SpanMatchesOracle) {
  std::vector<SimdIsa> isas = {SimdIsa::kScalar};
  if (DetectCpuIsa() == SimdIsa::kAvx2) isas.push_back(SimdIsa::kAvx2);
  for (SimdIsa isa : isas) {
    SetIsaForTest(isa);
    Rng rng(29);
    for (size_t n : {0, 1, 7, 8, 9, 63, 64, 65, 200, 1000}) {
      std::vector<uint32_t> src(n), want(n), got(n);
      for (size_t i = 0; i < n; ++i) {
        src[i] = static_cast<uint32_t>(rng.UniformInt(0, 1 << 30));
        want[i] = got[i] = static_cast<uint32_t>(rng.UniformInt(0, 1 << 30));
      }
      for (size_t i = 0; i < n; ++i) want[i] += src[i];
      AddU32Span(got.data(), src.data(), n);
      EXPECT_EQ(got, want) << IsaName(isa) << " n=" << n;
    }
  }
  ClearIsaForTest();
}

INSTANTIATE_TEST_SUITE_P(
    Dims, NDimArrayCountRectsTest,
    ::testing::Values(std::vector<int32_t>{40}, std::vector<int32_t>{9, 11},
                      std::vector<int32_t>{5, 4, 6},
                      std::vector<int32_t>{4, 3, 5, 2},
                      std::vector<int32_t>{3, 2, 4, 2, 3, 2},
                      // One dimension past the vectorized kernel's cap.
                      std::vector<int32_t>(kRectKernelMaxDims + 1, 2)));

}  // namespace
}  // namespace qarm
