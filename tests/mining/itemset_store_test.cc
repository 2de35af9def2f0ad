#include "mining/itemset_store.h"

#include <gtest/gtest.h>

#include <vector>

namespace qarm {
namespace {

TEST(ItemsetStoreTest, LevelsIterateInGenerationOrder) {
  FrequentItemsetStore store;
  store.AppendLevel({2, 5, 9}, {40, 30, 20});
  store.AppendLevel({2, 5, 2, 9}, {12, 11});
  store.AppendLevel({}, {});  // a pass that found nothing frequent
  ASSERT_EQ(store.size(), 5u);
  EXPECT_EQ(store.num_levels(), 3u);
  EXPECT_EQ(store.level_size(2), 2u);
  EXPECT_EQ(store.level_size(3), 0u);
  const std::vector<FrequentItemset> expected = {
      {{2}, 40}, {{5}, 30}, {{9}, 20}, {{2, 5}, 12}, {{2, 9}, 11}};
  std::vector<FrequentItemset> got;
  for (const FrequentItemset& f : store) got.push_back(f);
  EXPECT_EQ(got, expected);
  for (size_t pos = 0; pos < expected.size(); ++pos) {
    const FrequentItemsetStore::Ref ref = store.at(pos);
    EXPECT_EQ(std::vector<int32_t>(ref.ids, ref.ids + ref.k),
              expected[pos].items);
    EXPECT_EQ(ref.count, expected[pos].count);
  }
}

TEST(ItemsetStoreTest, FindCountByItemIdAndPackedIds) {
  FrequentItemsetStore store;
  store.AppendLevel({2, 5, 9}, {40, 30, 20});
  store.AppendLevel({2, 5, 2, 9, 5, 9}, {12, 11, 10});
  store.AppendLevel({2, 5, 9}, {7});
  uint64_t count = 0;
  const int32_t nine[] = {9};
  ASSERT_TRUE(store.FindCount(nine, 1, &count));
  EXPECT_EQ(count, 20u);
  const int32_t three[] = {3};
  EXPECT_FALSE(store.FindCount(three, 1, &count));
  const int32_t pair[] = {5, 9};
  ASSERT_TRUE(store.FindCount(pair, 2, &count));
  EXPECT_EQ(count, 10u);
  const int32_t absent[] = {2, 3};
  EXPECT_FALSE(store.FindCount(absent, 2, &count));
}

TEST(ItemsetStoreTest, FromItemsetsGroupsLevelsKeepingOrder) {
  const std::vector<FrequentItemset> itemsets = {
      {{4}, 9}, {{1, 4}, 5}, {{1}, 8}, {{0}, 7}, {{0, 4}, 6}};
  const FrequentItemsetStore store =
      FrequentItemsetStore::FromItemsets(itemsets);
  EXPECT_EQ(store.level_ids(1), (std::vector<int32_t>{4, 1, 0}));
  EXPECT_EQ(store.level_ids(2), (std::vector<int32_t>{1, 4, 0, 4}));
  EXPECT_EQ(store.level_counts(2), (std::vector<uint64_t>{5, 6}));
  uint64_t count = 0;
  const int32_t one[] = {1};
  ASSERT_TRUE(store.FindCount(one, 1, &count));
  EXPECT_EQ(count, 8u);
}

}  // namespace
}  // namespace qarm
