#include "core/frequent_items.h"

#include <gtest/gtest.h>

#include "testutil.h"

namespace qarm {
namespace {

using testutil::CatAttr;
using testutil::MakeMappedTable;
using testutil::QuantAttr;

// x quantitative over 5 values with counts {1,2,3,2,2}; y categorical with
// counts a:6, b:4.
MappedTable SmallTable() {
  std::vector<std::vector<int32_t>> rows;
  int32_t x_counts[] = {1, 2, 3, 2, 2};
  size_t r = 0;
  for (int32_t x = 0; x < 5; ++x) {
    for (int32_t i = 0; i < x_counts[x]; ++i) {
      rows.push_back({x, r < 6 ? 0 : 1});
      ++r;
    }
  }
  return MakeMappedTable({QuantAttr("x", 5), CatAttr("y", {"a", "b"})}, rows);
}

bool HasItem(const ItemCatalog& catalog, const RangeItem& item) {
  for (size_t i = 0; i < catalog.num_items(); ++i) {
    if (catalog.item(static_cast<int32_t>(i)) == item) return true;
  }
  return false;
}

TEST(ItemCatalogTest, MarginalCounts) {
  MinerOptions options;
  options.minsup = 0.2;
  options.max_support = 1.0;
  MappedTable table = SmallTable();
  ItemCatalog catalog = ItemCatalog::Build(table, options);
  EXPECT_EQ(catalog.num_records(), 10u);
  EXPECT_EQ(catalog.RangeCount(0, 0, 4), 10u);
  EXPECT_EQ(catalog.RangeCount(0, 1, 2), 5u);
  EXPECT_EQ(catalog.RangeCount(0, 2, 2), 3u);
  EXPECT_EQ(catalog.RangeCount(1, 0, 0), 6u);
  EXPECT_DOUBLE_EQ(catalog.RangeSupport(0, 1, 2), 0.5);
  // Clipping.
  EXPECT_EQ(catalog.RangeCount(0, -5, 100), 10u);
  EXPECT_EQ(catalog.RangeCount(0, 3, 1), 0u);
}

TEST(ItemCatalogTest, CategoricalItems) {
  MinerOptions options;
  options.minsup = 0.5;  // only y=a (60%) qualifies
  options.max_support = 1.0;
  MappedTable table = SmallTable();
  ItemCatalog catalog = ItemCatalog::Build(table, options);
  EXPECT_TRUE(HasItem(catalog, RangeItem{1, 0, 0}));
  EXPECT_FALSE(HasItem(catalog, RangeItem{1, 1, 1}));
}

TEST(ItemCatalogTest, RangeCombination) {
  // minsup 30% (3 records), maxsup 50% (5 records).
  MinerOptions options;
  options.minsup = 0.3;
  options.max_support = 0.5;
  MappedTable table = SmallTable();
  ItemCatalog catalog = ItemCatalog::Build(table, options);
  // Quantitative items expected (counts {1,2,3,2,2}):
  //   [0..1]=3, [1..2]=5, [2..2]=3, [2..3]=5, [3..4]=4.
  // [0..2]=6 exceeds maxsup; [4..4]=2 below minsup; [1..1]=2 below.
  std::vector<RangeItem> expected = {
      {0, 0, 1}, {0, 1, 2}, {0, 2, 2}, {0, 2, 3}, {0, 3, 4}};
  std::vector<RangeItem> actual;
  for (size_t i = 0; i < catalog.num_items(); ++i) {
    const RangeItem& item = catalog.item(static_cast<int32_t>(i));
    if (item.attr == 0) actual.push_back(item);
  }
  EXPECT_EQ(actual, expected);
  // And counts are correct.
  for (size_t i = 0; i < catalog.num_items(); ++i) {
    const RangeItem& item = catalog.item(static_cast<int32_t>(i));
    EXPECT_EQ(catalog.item_count(static_cast<int32_t>(i)),
              catalog.RangeCount(item.attr, item.lo, item.hi));
  }
}

TEST(ItemCatalogTest, SingleValueAboveMaxSupportStillConsidered) {
  // One value holds 80% of mass; maxsup 40%. The single value must still be
  // an item (Section 1.2), but no range containing it may extend.
  std::vector<std::vector<int32_t>> rows;
  for (int i = 0; i < 8; ++i) rows.push_back({1});
  rows.push_back({0});
  rows.push_back({2});
  MappedTable table = MakeMappedTable({QuantAttr("x", 3)}, rows);
  MinerOptions options;
  options.minsup = 0.1;
  options.max_support = 0.4;
  ItemCatalog catalog = ItemCatalog::Build(table, options);
  std::vector<RangeItem> actual;
  for (size_t i = 0; i < catalog.num_items(); ++i) {
    actual.push_back(catalog.item(static_cast<int32_t>(i)));
  }
  // [0..0]=1 (10%), [1..1]=8 (80%), [2..2]=1: all singles qualify; no
  // combination survives maxsup.
  std::vector<RangeItem> expected = {{0, 0, 0}, {0, 1, 1}, {0, 2, 2}};
  EXPECT_EQ(actual, expected);
}

TEST(ItemCatalogTest, MaxSupportDisabled) {
  MinerOptions options;
  options.minsup = 0.3;
  options.max_support = 1.0;
  MappedTable table = SmallTable();
  ItemCatalog catalog = ItemCatalog::Build(table, options);
  // The full range [0..4] with 100% support is now an item.
  bool found_full = false;
  for (size_t i = 0; i < catalog.num_items(); ++i) {
    const RangeItem& item = catalog.item(static_cast<int32_t>(i));
    if (item.attr == 0 && item.lo == 0 && item.hi == 4) found_full = true;
  }
  EXPECT_TRUE(found_full);
}

TEST(ItemCatalogTest, Lemma5Prune) {
  // Interest level 2: quantitative items with support > 50% are pruned.
  MinerOptions options;
  options.minsup = 0.3;
  options.max_support = 1.0;
  options.interest_level = 2.0;
  options.interest_item_prune = true;
  MappedTable table = SmallTable();
  ItemCatalog catalog = ItemCatalog::Build(table, options);
  for (size_t i = 0; i < catalog.num_items(); ++i) {
    const RangeItem& item = catalog.item(static_cast<int32_t>(i));
    if (item.attr == 0) {
      EXPECT_LE(catalog.item_count(static_cast<int32_t>(i)), 5u);
    }
  }
  EXPECT_GT(catalog.items_pruned_by_interest(), 0u);

  // With pruning disabled, larger items reappear.
  options.interest_item_prune = false;
  ItemCatalog no_prune = ItemCatalog::Build(table, options);
  EXPECT_GT(no_prune.num_items(), catalog.num_items());
  EXPECT_EQ(no_prune.items_pruned_by_interest(), 0u);
}

TEST(ItemCatalogTest, Lemma5DoesNotPruneCategorical) {
  // y=a has 60% support > 1/2; categorical items are exempt from Lemma 5.
  MinerOptions options;
  options.minsup = 0.3;
  options.max_support = 1.0;
  options.interest_level = 2.0;
  MappedTable table = SmallTable();
  ItemCatalog catalog = ItemCatalog::Build(table, options);
  EXPECT_TRUE(HasItem(catalog, RangeItem{1, 0, 0}));
}

TEST(ItemCatalogTest, DecodeIds) {
  MinerOptions options;
  options.minsup = 0.3;
  options.max_support = 0.5;
  MappedTable table = SmallTable();
  ItemCatalog catalog = ItemCatalog::Build(table, options);
  RangeItemset decoded = catalog.Decode({0, 1});
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0], catalog.item(0));
  EXPECT_EQ(decoded[1], catalog.item(1));
}

TEST(ItemCatalogTest, EmptyTable) {
  MappedTable table = MakeMappedTable({QuantAttr("x", 3)}, {});
  MinerOptions options;
  ItemCatalog catalog = ItemCatalog::Build(table, options);
  EXPECT_EQ(catalog.num_items(), 0u);
  EXPECT_EQ(catalog.num_records(), 0u);
}

TEST(ItemCatalogTest, ItemsSortedByAttrThenRange) {
  MinerOptions options;
  options.minsup = 0.1;
  options.max_support = 0.6;
  MappedTable table = SmallTable();
  ItemCatalog catalog = ItemCatalog::Build(table, options);
  for (size_t i = 1; i < catalog.num_items(); ++i) {
    EXPECT_TRUE(catalog.item(static_cast<int32_t>(i - 1)) <
                catalog.item(static_cast<int32_t>(i)));
  }
}

}  // namespace
}  // namespace qarm
