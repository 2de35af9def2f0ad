#include "core/item.h"

#include <gtest/gtest.h>

#include "testutil.h"

namespace qarm {
namespace {

using testutil::CatAttr;
using testutil::MakeMappedTable;
using testutil::QuantAttr;

TEST(RangeItemTest, OrderingAndEquality) {
  RangeItem a{0, 1, 5};
  RangeItem b{0, 1, 5};
  RangeItem c{0, 1, 6};
  RangeItem d{1, 0, 0};
  EXPECT_EQ(a, b);
  EXPECT_LT(a, c);
  EXPECT_LT(c, d);
  EXPECT_EQ(a.Width(), 5);
}

TEST(RangeItemTest, Generalizes) {
  RangeItem wide{0, 0, 10};
  RangeItem narrow{0, 3, 7};
  RangeItem other_attr{1, 3, 7};
  EXPECT_TRUE(wide.Generalizes(narrow));
  EXPECT_TRUE(wide.Generalizes(wide));
  EXPECT_FALSE(narrow.Generalizes(wide));
  EXPECT_FALSE(wide.Generalizes(other_attr));
}

TEST(ItemsetTest, AttributesOf) {
  RangeItemset itemset = {{0, 1, 2}, {2, 0, 0}, {5, 3, 3}};
  EXPECT_EQ(AttributesOf(itemset), (std::vector<int32_t>{0, 2, 5}));
}

TEST(ItemsetTest, GeneralizationPaperExample) {
  // {<Age: 30..39>, <Married: Yes>} generalizes
  // {<Age: 30..35>, <Married: Yes>}.
  RangeItemset general = {{0, 30, 39}, {1, 1, 1}};
  RangeItemset special = {{0, 30, 35}, {1, 1, 1}};
  EXPECT_TRUE(IsGeneralization(general, special));
  EXPECT_TRUE(IsStrictGeneralization(general, special));
  EXPECT_FALSE(IsStrictGeneralization(general, general));
  EXPECT_FALSE(IsGeneralization(special, general));
}

TEST(ItemsetTest, GeneralizationRequiresSameAttributes) {
  RangeItemset a = {{0, 0, 10}};
  RangeItemset b = {{1, 3, 7}};
  RangeItemset c = {{0, 3, 7}, {1, 0, 0}};
  EXPECT_FALSE(IsGeneralization(a, b));
  EXPECT_FALSE(IsGeneralization(a, c));
}

TEST(BoxDifferenceTest, UpperRemainder) {
  RangeItemset x = {{0, 0, 9}, {1, 1, 1}};
  RangeItemset spec = {{0, 0, 4}, {1, 1, 1}};
  RangeItemset diff;
  ASSERT_TRUE(BoxDifference(x, spec, &diff));
  EXPECT_EQ(diff[0], (RangeItem{0, 5, 9}));
  EXPECT_EQ(diff[1], (RangeItem{1, 1, 1}));
}

TEST(BoxDifferenceTest, LowerRemainder) {
  RangeItemset x = {{0, 0, 9}};
  RangeItemset spec = {{0, 6, 9}};
  RangeItemset diff;
  ASSERT_TRUE(BoxDifference(x, spec, &diff));
  EXPECT_EQ(diff[0], (RangeItem{0, 0, 5}));
}

TEST(BoxDifferenceTest, InteriorRangeRejected) {
  RangeItemset x = {{0, 0, 9}};
  RangeItemset spec = {{0, 3, 6}};
  RangeItemset diff;
  EXPECT_FALSE(BoxDifference(x, spec, &diff));
}

TEST(BoxDifferenceTest, TwoAttributesDifferRejected) {
  RangeItemset x = {{0, 0, 9}, {1, 0, 9}};
  RangeItemset spec = {{0, 0, 4}, {1, 0, 4}};
  RangeItemset diff;
  EXPECT_FALSE(BoxDifference(x, spec, &diff));
}

TEST(BoxDifferenceTest, EqualItemsetsRejected) {
  RangeItemset x = {{0, 0, 9}};
  RangeItemset diff;
  EXPECT_FALSE(BoxDifference(x, x, &diff));
}

TEST(BoxDifferenceTest, NonSpecializationRejected) {
  RangeItemset x = {{0, 0, 5}};
  RangeItemset other = {{0, 3, 9}};
  RangeItemset diff;
  EXPECT_FALSE(BoxDifference(x, other, &diff));
}

TEST(RecordSupportsTest, Basic) {
  RangeItemset itemset = {{0, 2, 5}, {2, 1, 1}};
  int32_t yes[] = {3, 99, 1};
  int32_t no_first[] = {6, 99, 1};
  int32_t no_second[] = {3, 99, 0};
  EXPECT_TRUE(RecordSupports(yes, itemset));
  EXPECT_FALSE(RecordSupports(no_first, itemset));
  EXPECT_FALSE(RecordSupports(no_second, itemset));
}

TEST(ItemToStringTest, RendersWithDecode) {
  MappedTable table = MakeMappedTable(
      {QuantAttr("Age", 5), CatAttr("Married", {"No", "Yes"})}, {});
  EXPECT_EQ(testutil::ItemsText({{0, 1, 3}}, table), "<Age: 1..3>");
  EXPECT_EQ(testutil::ItemsText({{1, 1, 1}}, table), "<Married: Yes>");
  RangeItemset itemset = {{0, 1, 3}, {1, 0, 0}};
  EXPECT_EQ(testutil::ItemsText(itemset, table),
            "<Age: 1..3> and <Married: No>");
}

}  // namespace
}  // namespace qarm
