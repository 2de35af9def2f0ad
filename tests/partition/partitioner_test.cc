#include "partition/partitioner.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "common/random.h"

namespace qarm {
namespace {

TEST(EquiDepthTest, BalancedOnDistinctValues) {
  std::vector<double> values;
  for (int i = 0; i < 100; ++i) values.push_back(i);
  std::vector<Interval> parts = EquiDepthPartition(values, 4);
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0].lo, 0);
  EXPECT_EQ(parts[0].hi, 24);
  EXPECT_EQ(parts[3].lo, 75);
  EXPECT_EQ(parts[3].hi, 99);
}

TEST(EquiDepthTest, CoversAllValuesDisjointly) {
  Rng rng(5);
  std::vector<double> values;
  for (int i = 0; i < 1000; ++i) {
    values.push_back(rng.LogNormal(3.0, 1.0));
  }
  std::sort(values.begin(), values.end());
  std::vector<Interval> parts = EquiDepthPartition(values, 10);
  ASSERT_FALSE(parts.empty());
  // Sorted, non-overlapping.
  for (size_t i = 1; i < parts.size(); ++i) {
    EXPECT_GT(parts[i].lo, parts[i - 1].hi);
  }
  // Every value is covered.
  for (double v : values) {
    bool covered = false;
    for (const Interval& p : parts) covered |= p.Contains(v);
    EXPECT_TRUE(covered) << v;
  }
}

TEST(EquiDepthTest, NeverSplitsEqualValues) {
  // 50% of mass on a single value; partitions must keep it intact.
  std::vector<double> values(100, 7.0);
  for (int i = 0; i < 100; ++i) values.push_back(100.0 + i);
  std::vector<Interval> parts = EquiDepthPartition(values, 10);
  int containing = 0;
  for (const Interval& p : parts) {
    if (p.Contains(7.0)) ++containing;
  }
  EXPECT_EQ(containing, 1);
}

TEST(EquiDepthTest, DepthsRoughlyEqualOnSkewedData) {
  Rng rng(9);
  std::vector<double> values;
  for (int i = 0; i < 10000; ++i) values.push_back(rng.LogNormal(0.0, 1.5));
  std::sort(values.begin(), values.end());
  std::vector<Interval> parts = EquiDepthPartition(values, 20);
  ASSERT_EQ(parts.size(), 20u);
  for (const Interval& p : parts) {
    size_t count = 0;
    for (double v : values) {
      if (p.Contains(v)) ++count;
    }
    // Continuous draws have no duplicates, so depths should be near 500.
    EXPECT_NEAR(count, 500, 30);
  }
}

TEST(EquiDepthTest, FewerPartitionsThanRequestedOnDuplicates) {
  std::vector<double> values(1000, 1.0);
  std::vector<Interval> parts = EquiDepthPartition(values, 5);
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_TRUE(parts[0].IsSingleValue());
}

// The partitioners read sorted input; any arrival order, once sorted,
// gives the intervals pinned above.
TEST(PartitionerTest, SortedShuffleGivesPinnedIntervals) {
  Rng rng(3);
  std::vector<double> values;
  for (int i = 0; i < 100; ++i) values.push_back(i);
  rng.Shuffle(&values);
  std::sort(values.begin(), values.end());
  EXPECT_EQ(EquiDepthPartition(values, 4),
            (std::vector<Interval>{{0, 24}, {25, 49}, {50, 74}, {75, 99}}));

  std::vector<double> skewed(100, 7.0);
  for (int i = 0; i < 100; ++i) skewed.push_back(100.0 + i);
  rng.Shuffle(&skewed);
  std::sort(skewed.begin(), skewed.end());
  EXPECT_EQ(EquiDepthPartition(skewed, 10),
            (std::vector<Interval>{{7, 7},
                                   {100, 100},
                                   {101, 101},
                                   {102, 102},
                                   {103, 103},
                                   {104, 119},
                                   {120, 139},
                                   {140, 159},
                                   {160, 179},
                                   {180, 199}}));
}

// Debug builds check that the input is sorted.
TEST(PartitionerDeathTest, UnsortedInputFailsTheDebugCheck) {
  const std::vector<double> unsorted = {3.0, 1.0, 2.0};
  EXPECT_DEBUG_DEATH(EquiDepthPartition(unsorted, 2), "is_sorted");
  EXPECT_DEBUG_DEATH(KMeansPartition(unsorted, 2), "is_sorted");
}

TEST(EquiDepthTest, EmptyInput) {
  EXPECT_TRUE(EquiDepthPartition({}, 3).empty());
}

TEST(EquiWidthTest, EqualWidths) {
  std::vector<Interval> parts = EquiWidthPartition(0.0, 100.0, 4);
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0].lo, 0.0);
  EXPECT_EQ(parts[0].hi, 25.0);
  EXPECT_EQ(parts[3].lo, 75.0);
  EXPECT_EQ(parts[3].hi, 100.0);
}

TEST(EquiWidthTest, DegenerateRange) {
  std::vector<Interval> parts = EquiWidthPartition(5.0, 5.0, 4);
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_TRUE(parts[0].IsSingleValue());
}

TEST(AssignToIntervalTest, EquiDepthAssignment) {
  std::vector<double> values;
  for (int i = 0; i < 100; ++i) values.push_back(i);
  std::vector<Interval> parts = EquiDepthPartition(values, 4);
  EXPECT_EQ(AssignToInterval(parts, 0.0), 0);
  EXPECT_EQ(AssignToInterval(parts, 24.0), 0);
  EXPECT_EQ(AssignToInterval(parts, 25.0), 1);
  EXPECT_EQ(AssignToInterval(parts, 99.0), 3);
}

TEST(AssignToIntervalTest, OutOfRangeClamps) {
  std::vector<Interval> parts = {{0, 10}, {11, 20}};
  EXPECT_EQ(AssignToInterval(parts, -5.0), 0);
  EXPECT_EQ(AssignToInterval(parts, 100.0), 1);
}

TEST(AssignToIntervalTest, GapsAssignForward) {
  std::vector<Interval> parts = {{0, 10}, {20, 30}};
  EXPECT_EQ(AssignToInterval(parts, 15.0), 1);
}

TEST(AssignToIntervalTest, EmptyList) {
  EXPECT_EQ(AssignToInterval({}, 1.0), -1);
}

TEST(KMeansTest, SeparatesObviousClusters) {
  // Three tight clusters far apart must map to three intervals regardless
  // of unequal sizes (equi-depth would cut the big cluster instead).
  std::vector<double> values;
  for (int i = 0; i < 600; ++i) values.push_back(10.0 + (i % 5) * 0.1);
  for (int i = 0; i < 100; ++i) values.push_back(50.0 + (i % 5) * 0.1);
  for (int i = 0; i < 300; ++i) values.push_back(90.0 + (i % 5) * 0.1);
  std::sort(values.begin(), values.end());
  std::vector<Interval> parts = KMeansPartition(values, 3);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_TRUE(parts[0].Contains(10.2));
  EXPECT_FALSE(parts[0].Contains(50.0));
  EXPECT_TRUE(parts[1].Contains(50.2));
  EXPECT_TRUE(parts[2].Contains(90.2));
}

TEST(KMeansTest, CoversAllValuesDisjointly) {
  Rng rng(31);
  std::vector<double> values;
  for (int i = 0; i < 2000; ++i) values.push_back(rng.LogNormal(2.0, 1.0));
  std::sort(values.begin(), values.end());
  std::vector<Interval> parts = KMeansPartition(values, 8);
  ASSERT_FALSE(parts.empty());
  EXPECT_LE(parts.size(), 8u);
  for (size_t i = 1; i < parts.size(); ++i) {
    EXPECT_GT(parts[i].lo, parts[i - 1].hi);
  }
  for (double v : values) {
    EXPECT_GE(AssignToInterval(parts, v), 0);
    bool covered = false;
    for (const Interval& p : parts) covered |= p.Contains(v);
    EXPECT_TRUE(covered);
  }
}

TEST(KMeansTest, NeverSplitsEqualValues) {
  std::vector<double> values(500, 3.0);
  for (int i = 0; i < 500; ++i) values.push_back(100.0 + i);
  std::vector<Interval> parts = KMeansPartition(values, 6);
  int containing = 0;
  for (const Interval& p : parts) {
    if (p.Contains(3.0)) ++containing;
  }
  EXPECT_EQ(containing, 1);
}

TEST(KMeansTest, Deterministic) {
  Rng rng(7);
  std::vector<double> values;
  for (int i = 0; i < 500; ++i) values.push_back(rng.Normal(0, 10));
  std::sort(values.begin(), values.end());
  auto a = KMeansPartition(values, 5);
  auto b = KMeansPartition(values, 5);
  EXPECT_EQ(a, b);
}

TEST(KMeansTest, EmptyAndDegenerate) {
  EXPECT_TRUE(KMeansPartition({}, 4).empty());
  auto one = KMeansPartition({5.0, 5.0, 5.0}, 4);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_TRUE(one[0].IsSingleValue());
}

TEST(IntervalTest, ToString) {
  EXPECT_EQ((Interval{5, 5}).ToString(), "5");
  EXPECT_EQ((Interval{5, 9}).ToString(), "5..9");
  EXPECT_EQ((Interval{1.5, 2.25}).ToString(), "1.5..2.25");
}

}  // namespace
}  // namespace qarm
