// Mining with missing values: a record supports an itemset only if it
// carries every referenced attribute (Section 2's record model, R ⊆ I_V
// with each attribute at most once).
#include <gtest/gtest.h>

#include "common/random.h"
#include "core/miner.h"
#include "core/rules.h"
#include "partition/mapper.h"
#include "table/table.h"
#include "testutil.h"

namespace qarm {
namespace {

Table TableWithNulls(size_t n, double null_probability, uint64_t seed) {
  Schema schema =
      Schema::Make({{"x", AttributeKind::kQuantitative, ValueType::kInt64},
                    {"c", AttributeKind::kCategorical, ValueType::kString}})
          .value();
  Table table(schema);
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    int64_t x = rng.UniformInt(0, 9);
    std::vector<Value> row(2);
    row[0] = rng.Bernoulli(null_probability) ? Value::Null() : Value(x);
    row[1] = rng.Bernoulli(null_probability)
                 ? Value::Null()
                 : Value(x < 5 ? "lo" : "hi");
    table.AppendRowUnchecked(row);
  }
  return table;
}

TEST(MissingValuesTest, MappedAsSentinel) {
  Table data = TableWithNulls(200, 0.3, 1);
  MapOptions options;
  options.num_intervals_override = 5;
  auto mapped = MapTable(data, options);
  ASSERT_TRUE(mapped.ok());
  size_t missing = 0;
  for (size_t r = 0; r < mapped->num_rows(); ++r) {
    if (mapped->value(r, 0) == kMissingValue) ++missing;
    if (mapped->value(r, 0) != kMissingValue) {
      EXPECT_GE(mapped->value(r, 0), 0);
    }
  }
  EXPECT_NEAR(static_cast<double>(missing) / 200.0, 0.3, 0.1);
}

TEST(MissingValuesTest, RecordWithNullDoesNotSupport) {
  int32_t record[] = {kMissingValue, 1};
  RangeItemset wants_x = {{0, 0, 9}};
  RangeItemset wants_c = {{1, 1, 1}};
  EXPECT_FALSE(RecordSupports(record, wants_x));
  EXPECT_TRUE(RecordSupports(record, wants_c));
}

TEST(MissingValuesTest, MinedSupportsMatchBruteForce) {
  Table data = TableWithNulls(500, 0.25, 7);
  MinerOptions options;
  options.minsup = 0.05;
  options.minconf = 0.3;
  options.max_support = 0.6;
  options.num_intervals_override = 10;
  QuantitativeRuleMiner miner(options);
  auto result = miner.Mine(data);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_FALSE(result->frequent_itemsets.empty());
  for (const FrequentRangeItemset& f : result->frequent_itemsets) {
    EXPECT_EQ(f.count, testutil::BruteForceSupport(result->mapped, f.items));
  }
  for (const QuantRule& r : result->rules) {
    uint64_t full =
        testutil::BruteForceSupport(result->mapped, r.UnionItemset());
    EXPECT_EQ(r.count, full) << RuleToString(r, result->mapped);
  }
}

TEST(MissingValuesTest, SupportFractionsShrinkWithNulls) {
  // Nulling 40% of the categorical column must shrink its items' support
  // roughly proportionally (support is relative to ALL records).
  Table complete = TableWithNulls(4000, 0.0, 5);
  Table sparse = TableWithNulls(4000, 0.4, 5);
  MinerOptions options;
  options.minsup = 0.05;
  options.minconf = 0.3;
  options.num_intervals_override = 5;
  QuantitativeRuleMiner miner(options);
  auto full = miner.Mine(complete);
  auto part = miner.Mine(sparse);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(part.ok());
  auto support_of_lo = [](const MiningResult& result) {
    for (const FrequentRangeItemset& f : result.frequent_itemsets) {
      if (f.items.size() == 1 && f.items[0].attr == 1 &&
          testutil::ItemsText(f.items, result.mapped) == "<c: lo>") {
        return f.support;
      }
    }
    return 0.0;
  };
  double complete_support = support_of_lo(*full);
  double sparse_support = support_of_lo(*part);
  ASSERT_GT(complete_support, 0.0);
  ASSERT_GT(sparse_support, 0.0);
  EXPECT_NEAR(sparse_support, complete_support * 0.6, 0.05);
}

TEST(MissingValuesTest, AllNullColumnYieldsNoItems) {
  Schema schema =
      Schema::Make({{"x", AttributeKind::kQuantitative, ValueType::kInt64},
                    {"c", AttributeKind::kCategorical, ValueType::kString}})
          .value();
  Table table(schema);
  for (int i = 0; i < 50; ++i) {
    table.AppendRowUnchecked({Value::Null(), Value("a")});
  }
  MinerOptions options;
  options.minsup = 0.1;
  options.minconf = 0.5;
  QuantitativeRuleMiner miner(options);
  auto result = miner.Mine(table);
  ASSERT_TRUE(result.ok());
  for (const FrequentRangeItemset& f : result->frequent_itemsets) {
    for (const RangeItem& item : f.items) {
      EXPECT_NE(item.attr, 0);  // no items over the all-null attribute
    }
  }
}

}  // namespace
}  // namespace qarm
