// Property test: on small random tables, the miner's rule set must exactly
// equal the brute-force enumeration — every itemset over the frequent items
// with distinct attributes, every antecedent/consequent split, thresholded
// on support and confidence.
#include <algorithm>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/frequent_items.h"
#include "core/miner.h"
#include "core/rules.h"
#include "testutil.h"

namespace qarm {
namespace {

using testutil::BruteForceSupport;
using testutil::CatAttr;
using testutil::MakeMappedTable;
using testutil::QuantAttr;

// Canonical form of a rule for set comparison.
using RuleKey = std::pair<RangeItemset, RangeItemset>;

bool ItemsetLess(const RangeItemset& a, const RangeItemset& b) {
  return std::lexicographical_compare(
      a.begin(), a.end(), b.begin(), b.end(),
      [](const RangeItem& x, const RangeItem& y) { return x < y; });
}

struct RuleKeyLess {
  bool operator()(const RuleKey& a, const RuleKey& b) const {
    if (a.first != b.first) return ItemsetLess(a.first, b.first);
    return ItemsetLess(a.second, b.second);
  }
};

class RuleCompletenessTest : public ::testing::TestWithParam<int> {};

TEST_P(RuleCompletenessTest, MinerMatchesBruteForce) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 101 + 5);
  std::vector<std::vector<int32_t>> rows;
  for (int r = 0; r < 120; ++r) {
    int32_t a = static_cast<int32_t>(rng.UniformInt(0, 3));
    int32_t b = static_cast<int32_t>(rng.UniformInt(0, 2));
    // Correlate c with a so rules of every shape emerge.
    int32_t c = rng.Bernoulli(0.7) ? a % 2 : static_cast<int32_t>(
                                                 rng.UniformInt(0, 1));
    rows.push_back({a, b, c});
  }
  MappedTable table = MakeMappedTable(
      {QuantAttr("a", 4), QuantAttr("b", 3), CatAttr("c", {"x", "y"})}, rows);

  MinerOptions options;
  options.minsup = 0.15;
  options.minconf = 0.55;
  options.max_support = 0.75;
  QuantitativeRuleMiner miner(options);
  Result<MiningResult> mine_result =
      miner.MineMapped(table.Head(rows.size()));
  ASSERT_TRUE(mine_result.ok()) << mine_result.status().ToString();
  MiningResult& result = *mine_result;

  std::set<RuleKey, RuleKeyLess> mined;
  for (const QuantRule& r : result.rules) {
    mined.insert({r.antecedent, r.consequent});
    // Every reported rule's metrics are exact.
    uint64_t full = BruteForceSupport(table, r.UnionItemset());
    uint64_t ante = BruteForceSupport(table, r.antecedent);
    EXPECT_EQ(r.count, full);
    EXPECT_DOUBLE_EQ(r.support, static_cast<double>(full) / 120.0);
    EXPECT_DOUBLE_EQ(r.confidence,
                     static_cast<double>(full) / static_cast<double>(ante));
  }

  // Brute force over the catalog's items.
  ItemCatalog catalog = ItemCatalog::Build(table, options);
  const int32_t n = static_cast<int32_t>(catalog.num_items());
  const uint64_t min_count = static_cast<uint64_t>(0.15 * 120 + 0.999999);
  std::set<RuleKey, RuleKeyLess> expected;
  // Enumerate itemsets of sizes 2 and 3 (the table has 3 attributes).
  std::vector<std::vector<int32_t>> itemsets;
  for (int32_t i = 0; i < n; ++i) {
    for (int32_t j = i + 1; j < n; ++j) {
      if (catalog.item(i).attr == catalog.item(j).attr) continue;
      itemsets.push_back({i, j});
      for (int32_t k = j + 1; k < n; ++k) {
        if (catalog.item(k).attr == catalog.item(i).attr ||
            catalog.item(k).attr == catalog.item(j).attr) {
          continue;
        }
        itemsets.push_back({i, j, k});
      }
    }
  }
  for (const std::vector<int32_t>& ids : itemsets) {
    RangeItemset items = catalog.Decode(ids);
    uint64_t full = BruteForceSupport(table, items);
    if (full < min_count) continue;
    // All non-empty proper splits.
    const size_t size = ids.size();
    for (uint32_t mask = 1; mask + 1 < (1u << size); ++mask) {
      RangeItemset ante, cons;
      for (size_t p = 0; p < size; ++p) {
        if (mask & (1u << p)) {
          ante.push_back(items[p]);
        } else {
          cons.push_back(items[p]);
        }
      }
      uint64_t ante_count = BruteForceSupport(table, ante);
      double confidence =
          static_cast<double>(full) / static_cast<double>(ante_count);
      if (confidence + 1e-12 >= options.minconf) {
        expected.insert({ante, cons});
      }
    }
  }

  EXPECT_EQ(mined.size(), expected.size());
  for (const RuleKey& key : expected) {
    EXPECT_TRUE(mined.count(key) > 0)
        << "missing rule "
        << testutil::ItemsText(key.first, result.mapped) << " => "
        << testutil::ItemsText(key.second, result.mapped);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RuleCompletenessTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace qarm
