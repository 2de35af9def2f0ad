#include "index/rstar_tree.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace qarm {
namespace {

RStarRect Rect2(double x0, double x1, double y0, double y1) {
  return RStarRect::FromRanges({{x0, x1}, {y0, y1}});
}

std::vector<int32_t> Containing(const RStarTree& tree,
                                std::vector<double> point) {
  std::vector<int32_t> out;
  tree.ForEachContaining(point.data(),
                         [&](int32_t id) { out.push_back(id); });
  std::sort(out.begin(), out.end());
  return out;
}

TEST(RStarTreeTest, EmptyTree) {
  RStarTree tree(2);
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_TRUE(Containing(tree, {0, 0}).empty());
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(RStarTreeTest, SingleRect) {
  RStarTree tree(2);
  tree.Insert(Rect2(0, 10, 0, 10), 7);
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(Containing(tree, {5, 5}), (std::vector<int32_t>{7}));
  EXPECT_EQ(Containing(tree, {5, 11}), (std::vector<int32_t>{}));
  // Boundary points are contained (closed rectangles).
  EXPECT_EQ(Containing(tree, {0, 0}), (std::vector<int32_t>{7}));
  EXPECT_EQ(Containing(tree, {10, 10}), (std::vector<int32_t>{7}));
}

TEST(RStarTreeTest, OverlappingRects) {
  RStarTree tree(1);
  tree.Insert(RStarRect::FromRanges({{0, 5}}), 0);
  tree.Insert(RStarRect::FromRanges({{3, 8}}), 1);
  tree.Insert(RStarRect::FromRanges({{7, 9}}), 2);
  EXPECT_EQ(Containing(tree, {4}), (std::vector<int32_t>{0, 1}));
  EXPECT_EQ(Containing(tree, {7.5}), (std::vector<int32_t>{1, 2}));
  EXPECT_EQ(Containing(tree, {10}), (std::vector<int32_t>{}));
}

TEST(RStarTreeTest, DuplicateRectsAllReported) {
  RStarTree tree(2);
  for (int32_t i = 0; i < 10; ++i) {
    tree.Insert(Rect2(0, 1, 0, 1), i);
  }
  EXPECT_EQ(Containing(tree, {0.5, 0.5}).size(), 10u);
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(RStarTreeTest, GrowsBeyondOneNode) {
  RStarTree tree(2, /*max_entries=*/8);
  for (int32_t i = 0; i < 200; ++i) {
    double x = (i % 20) * 10.0;
    double y = (i / 20) * 10.0;
    tree.Insert(Rect2(x, x + 5, y, y + 5), i);
  }
  EXPECT_EQ(tree.size(), 200u);
  EXPECT_GT(tree.height(), 1u);
  EXPECT_TRUE(tree.CheckInvariants());
  // Point inside cell (3, 4): rect id 4*20+3 = 83.
  EXPECT_EQ(Containing(tree, {32.0, 42.0}), (std::vector<int32_t>{83}));
}

class RStarRandomTest : public ::testing::TestWithParam<std::pair<int, int>> {
};

TEST_P(RStarRandomTest, MatchesBruteForce) {
  const auto [seed, dims] = GetParam();
  Rng rng(static_cast<uint64_t>(seed));
  RStarTree tree(static_cast<size_t>(dims), /*max_entries=*/8);
  std::vector<RStarRect> rects;

  for (int32_t i = 0; i < 400; ++i) {
    std::vector<std::pair<double, double>> ranges;
    for (int d = 0; d < dims; ++d) {
      double a = rng.UniformDouble(0, 100);
      double b = rng.UniformDouble(0, 100);
      ranges.push_back({std::min(a, b), std::max(a, b)});
    }
    RStarRect rect = RStarRect::FromRanges(ranges);
    rects.push_back(rect);
    tree.Insert(rect, i);
  }
  ASSERT_TRUE(tree.CheckInvariants());

  for (int trial = 0; trial < 100; ++trial) {
    std::vector<double> point;
    for (int d = 0; d < dims; ++d) {
      point.push_back(rng.UniformDouble(0, 100));
    }
    std::vector<int32_t> expected;
    for (size_t i = 0; i < rects.size(); ++i) {
      if (rects[i].ContainsPoint(point.data(), static_cast<size_t>(dims))) {
        expected.push_back(static_cast<int32_t>(i));
      }
    }
    EXPECT_EQ(Containing(tree, point), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndDims, RStarRandomTest,
    ::testing::Values(std::make_pair(1, 1), std::make_pair(2, 2),
                      std::make_pair(3, 2), std::make_pair(4, 3),
                      std::make_pair(5, 4), std::make_pair(6, 5)));

TEST(RStarTreeTest, PointRectangles) {
  // Degenerate rectangles (points) must still be found.
  RStarTree tree(2, 8);
  for (int32_t i = 0; i < 100; ++i) {
    double x = i % 10, y = i / 10;
    tree.Insert(Rect2(x, x, y, y), i);
  }
  EXPECT_EQ(Containing(tree, {3.0, 7.0}), (std::vector<int32_t>{73}));
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(RStarTreeTest, SequentialInsertOrderStressesReinsertion) {
  // Sorted inserts trigger the forced-reinsert path repeatedly.
  RStarTree tree(1, 8);
  for (int32_t i = 0; i < 500; ++i) {
    tree.Insert(RStarRect::FromRanges({{double(i), double(i) + 0.5}}), i);
  }
  EXPECT_TRUE(tree.CheckInvariants());
  EXPECT_EQ(Containing(tree, {250.25}), (std::vector<int32_t>{250}));
}

}  // namespace
}  // namespace qarm
