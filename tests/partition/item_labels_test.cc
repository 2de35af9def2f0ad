#include "partition/item_labels.h"

#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "testutil.h"

namespace qarm {
namespace {

using testutil::CatAttr;

// A partitioned quantitative attribute, a categorical one whose labels need
// JSON escaping and CSV quoting, and one under a two-node taxonomy.
std::vector<MappedAttribute> Attrs() {
  MappedAttribute age;
  age.name = "Age";
  age.kind = AttributeKind::kQuantitative;
  age.partitioned = true;
  age.intervals = {{20, 29.5}, {30, 39}, {40, 49}};
  MappedAttribute drink = CatAttr("Drink", {"coffee", "tea", "soda"});
  drink.taxonomy_ranges = {{"hot", 0, 1}};
  return {age, CatAttr("City", {"Oslo, NO", "Back\\slash \"Q\""}), drink};
}

TEST(ItemLabelsTest, QuantitativeItemCarriesItsRawBounds) {
  const std::vector<MappedAttribute> attrs = Attrs();
  ItemLabels labels(&attrs);
  const ItemLabel& label = labels.Get(0, 0, 1);
  EXPECT_EQ(label.display, "20..39");
  EXPECT_EQ(label.text, "<Age: 20..39>");
  EXPECT_EQ(label.json,
            "{\"attribute\":\"Age\",\"kind\":\"quantitative\",\"lo\":20,"
            "\"hi\":39,\"display\":\"20..39\"}");
  EXPECT_FALSE(label.csv_quote);
  EXPECT_EQ(labels.Get(0, 0, 0).json,
            "{\"attribute\":\"Age\",\"kind\":\"quantitative\",\"lo\":20,"
            "\"hi\":29.5,\"display\":\"20..29.5\"}");
}

TEST(ItemLabelsTest, CategoricalLabelsAreEscapedAndFlaggedForCsv) {
  const std::vector<MappedAttribute> attrs = Attrs();
  ItemLabels labels(&attrs);
  const ItemLabel& comma = labels.Get(1, 0, 0);
  EXPECT_EQ(comma.text, "<City: Oslo, NO>");
  EXPECT_TRUE(comma.csv_quote);
  const ItemLabel& escaped = labels.Get(1, 1, 1);
  EXPECT_EQ(escaped.display, "Back\\slash \"Q\"");
  EXPECT_EQ(escaped.json,
            "{\"attribute\":\"City\",\"kind\":\"categorical\",\"value\":"
            "\"Back\\\\slash \\\"Q\\\"\",\"display\":\"Back\\\\slash "
            "\\\"Q\\\"\"}");
  EXPECT_TRUE(escaped.csv_quote);
}

TEST(ItemLabelsTest, TaxonomyRangesRenderTheirNodeOrLeaves) {
  const std::vector<MappedAttribute> attrs = Attrs();
  ItemLabels labels(&attrs);
  EXPECT_EQ(labels.Get(2, 0, 1).text, "<Drink: hot>");
  EXPECT_EQ(labels.Get(2, 1, 2).text, "<Drink: tea|soda>");
  EXPECT_EQ(labels.Get(2, 2, 2).json,
            "{\"attribute\":\"Drink\",\"kind\":\"categorical\",\"value\":"
            "\"soda\",\"display\":\"soda\"}");
}

// Each distinct item is built once; Find reads the same label.
TEST(ItemLabelsTest, EachItemIsBuiltOnce) {
  const std::vector<MappedAttribute> attrs = Attrs();
  ItemLabels labels(&attrs);
  const ItemLabel* first = &labels.Get(0, 1, 2);
  for (int i = 0; i < 3; ++i) labels.Get(1, 0, 0);
  for (int32_t hi = 0; hi < 3; ++hi) labels.Get(0, 0, hi);
  EXPECT_EQ(&labels.Get(0, 1, 2), first);
  EXPECT_EQ(&labels.Find(0, 1, 2), first);
  EXPECT_EQ(labels.size(), 5u);
}

// A filled table is read by many threads at once, as the serving threads
// read the rule catalog's.
TEST(ItemLabelsTest, ThreadsShareAFilledTable) {
  const std::vector<MappedAttribute> attrs = Attrs();
  ItemLabels labels(&attrs);
  for (int32_t lo = 0; lo < 3; ++lo) {
    for (int32_t hi = lo; hi < 3; ++hi) labels.Get(0, lo, hi);
  }
  const ItemLabels& shared = labels;
  std::vector<std::thread> threads;
  std::vector<size_t> bytes(4, 0);
  for (size_t t = 0; t < bytes.size(); ++t) {
    threads.emplace_back([&shared, &bytes, t] {
      for (int round = 0; round < 200; ++round) {
        for (int32_t lo = 0; lo < 3; ++lo) {
          for (int32_t hi = lo; hi < 3; ++hi) {
            bytes[t] += shared.Find(0, lo, hi).json.size();
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t t = 1; t < bytes.size(); ++t) EXPECT_EQ(bytes[t], bytes[0]);
}

}  // namespace
}  // namespace qarm
