// End-to-end mining with taxonomies (the Section 1.1 / [SA95] extension):
// interior-node items rescue rules whose leaf values individually lack
// support, and the interest measure treats interior nodes as
// generalizations of their leaves.
#include <gtest/gtest.h>

#include "common/random.h"
#include "core/miner.h"
#include "core/rules.h"
#include "partition/taxonomy.h"
#include "table/table.h"
#include "testutil.h"

namespace qarm {
namespace {

Taxonomy DrinksTaxonomy() {
  return Taxonomy::Make({{"hot", "drinks"},
                         {"cold", "drinks"},
                         {"coffee", "hot"},
                         {"tea", "hot"},
                         {"soda", "cold"},
                         {"juice", "cold"}})
      .value();
}

// 20% hot-drink buyers (split evenly between coffee and tea, each 10% —
// below minsup) always buy pastry; everyone else rarely does.
Table HotDrinkTable(size_t n) {
  Schema schema =
      Schema::Make({{"drink", AttributeKind::kCategorical, ValueType::kString},
                    {"pastry", AttributeKind::kCategorical,
                     ValueType::kString}})
          .value();
  Table table(schema);
  Rng rng(99);
  for (size_t i = 0; i < n; ++i) {
    double u = rng.UniformDouble();
    std::string drink;
    std::string pastry;
    if (u < 0.10) {
      drink = "coffee";
      pastry = "yes";
    } else if (u < 0.20) {
      drink = "tea";
      pastry = "yes";
    } else if (u < 0.60) {
      drink = "soda";
      pastry = rng.Bernoulli(0.1) ? "yes" : "no";
    } else {
      drink = "juice";
      pastry = rng.Bernoulli(0.1) ? "yes" : "no";
    }
    table.AppendRowUnchecked({Value(std::move(drink)), Value(std::move(pastry))});
  }
  return table;
}

TEST(TaxonomyMiningTest, InteriorNodeRescuesRule) {
  Table data = HotDrinkTable(4000);
  MinerOptions options;
  options.minsup = 0.15;  // coffee (10%) and tea (10%) each fail; hot = 20%
  options.minconf = 0.8;
  options.max_support = 0.9;
  options.taxonomies.emplace_back("drink", DrinksTaxonomy());
  QuantitativeRuleMiner miner(options);
  auto result = miner.Mine(data);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  bool found_hot_rule = false;
  for (const QuantRule& r : result->rules) {
    std::string rendered = RuleToString(r, result->mapped);
    if (rendered.rfind("<drink: hot> => <pastry: yes>", 0) == 0) {
      found_hot_rule = true;
      EXPECT_GT(r.confidence, 0.95);
      EXPECT_NEAR(r.support, 0.20, 0.03);
    }
    // No leaf-level coffee/tea rule can exist: below minsup.
    EXPECT_EQ(rendered.find("<drink: coffee> =>"), std::string::npos);
    EXPECT_EQ(rendered.find("<drink: tea> =>"), std::string::npos);
  }
  EXPECT_TRUE(found_hot_rule);
}

TEST(TaxonomyMiningTest, WithoutTaxonomyRuleIsLost) {
  Table data = HotDrinkTable(4000);
  MinerOptions options;
  options.minsup = 0.15;
  options.minconf = 0.8;
  options.max_support = 0.9;
  // No taxonomy: categorical values cannot combine.
  QuantitativeRuleMiner miner(options);
  auto result = miner.Mine(data);
  ASSERT_TRUE(result.ok());
  for (const QuantRule& r : result->rules) {
    std::string rendered = RuleToString(r, result->mapped);
    EXPECT_EQ(rendered.find("=> <pastry: yes>"), std::string::npos)
        << rendered;
  }
}

TEST(TaxonomyMiningTest, InterestPrunesRedundantChildRule) {
  // Lower minsup so both hot (20%) and coffee/tea (10% each) are frequent;
  // the leaf rules behave exactly like the hot rule, so with an interest
  // level they are marked uninteresting while the hot rule survives.
  Table data = HotDrinkTable(6000);
  MinerOptions options;
  options.minsup = 0.05;
  options.minconf = 0.5;
  options.max_support = 0.9;
  options.interest_level = 1.3;
  options.interest_item_prune = false;
  options.taxonomies.emplace_back("drink", DrinksTaxonomy());
  QuantitativeRuleMiner miner(options);
  auto result = miner.Mine(data);
  ASSERT_TRUE(result.ok());

  const QuantRule* hot_rule = nullptr;
  const QuantRule* coffee_rule = nullptr;
  for (const QuantRule& r : result->rules) {
    std::string rendered = RuleToString(r, result->mapped);
    if (rendered.rfind("<drink: hot> => <pastry: yes>", 0) == 0) {
      hot_rule = &r;
    }
    if (rendered.rfind("<drink: coffee> => <pastry: yes>", 0) == 0) {
      coffee_rule = &r;
    }
  }
  ASSERT_NE(hot_rule, nullptr);
  ASSERT_NE(coffee_rule, nullptr);
  EXPECT_TRUE(hot_rule->interesting);
  // Coffee behaves exactly as its generalization predicts: pruned.
  EXPECT_FALSE(coffee_rule->interesting);
}

TEST(TaxonomyMiningTest, CountsMatchBruteForce) {
  Table data = HotDrinkTable(1000);
  MinerOptions options;
  options.minsup = 0.05;
  options.minconf = 0.5;
  options.max_support = 0.9;
  options.taxonomies.emplace_back("drink", DrinksTaxonomy());
  QuantitativeRuleMiner miner(options);
  auto result = miner.Mine(data);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->frequent_itemsets.empty());
  for (const FrequentRangeItemset& f : result->frequent_itemsets) {
    uint64_t expected = 0;
    for (size_t r = 0; r < result->mapped.num_rows(); ++r) {
      if (RecordSupports(testutil::RecordAt(result->mapped, r).data(),
                         f.items)) {
        ++expected;
      }
    }
    EXPECT_EQ(f.count, expected);
  }
}

}  // namespace
}  // namespace qarm
