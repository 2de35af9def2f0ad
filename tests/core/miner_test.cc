#include "core/miner.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "table/datagen.h"
#include "testutil.h"

namespace qarm {
namespace {

// Finds a frequent itemset by its rendered form.
const FrequentRangeItemset* FindItemset(const MiningResult& result,
                                        const std::string& rendered) {
  for (const FrequentRangeItemset& f : result.frequent_itemsets) {
    if (testutil::ItemsText(f.items, result.mapped) == rendered) return &f;
  }
  return nullptr;
}

const QuantRule* FindRule(const MiningResult& result,
                          const std::string& prefix) {
  for (const QuantRule& r : result.rules) {
    if (RuleToString(r, result.mapped).rfind(prefix, 0) == 0) return &r;
  }
  return nullptr;
}

// The full Figure 3 worked example: People table, Age in 4 equi-depth
// intervals, minsup 40%, minconf 50%.
TEST(MinerTest, Figure3Reproduction) {
  MinerOptions options;
  options.minsup = 0.40;
  options.minconf = 0.50;
  options.max_support = 1.0;  // the example applies no maximum support
  options.num_intervals_override = 4;
  QuantitativeRuleMiner miner(options);
  auto result = miner.Mine(MakePeopleTable());
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Figure 3f (sample frequent itemsets) — our equi-depth intervals are
  // [23], [25..29], [34], [38], so "Age: 20..29" decodes as "23..29".
  const FrequentRangeItemset* age_young = FindItemset(*result, "<Age: 23..29>");
  ASSERT_NE(age_young, nullptr);
  EXPECT_EQ(age_young->count, 3u);

  const FrequentRangeItemset* age_old = FindItemset(*result, "<Age: 34..38>");
  ASSERT_NE(age_old, nullptr);
  EXPECT_EQ(age_old->count, 2u);

  const FrequentRangeItemset* married_yes =
      FindItemset(*result, "<Married: Yes>");
  ASSERT_NE(married_yes, nullptr);
  EXPECT_EQ(married_yes->count, 3u);

  const FrequentRangeItemset* cars01 = FindItemset(*result, "<NumCars: 0..1>");
  ASSERT_NE(cars01, nullptr);
  EXPECT_EQ(cars01->count, 3u);

  const FrequentRangeItemset* pair =
      FindItemset(*result, "<Age: 34..38> and <Married: Yes>");
  ASSERT_NE(pair, nullptr);
  EXPECT_EQ(pair->count, 2u);

  // Figure 3g / Figure 1 rules.
  const QuantRule* rule1 =
      FindRule(*result, "<Age: 34..38> and <Married: Yes> => <NumCars: 2>");
  ASSERT_NE(rule1, nullptr);
  EXPECT_DOUBLE_EQ(rule1->support, 0.4);
  EXPECT_DOUBLE_EQ(rule1->confidence, 1.0);

  const QuantRule* rule2 = FindRule(*result, "<Age: 23..29> => <NumCars: 0..1>");
  ASSERT_NE(rule2, nullptr);
  EXPECT_DOUBLE_EQ(rule2->support, 0.6);
  EXPECT_GE(rule2->confidence, 2.0 / 3.0);

  // Figure 1's second rule: <NumCars: 0..1> => <Married: No>, 40%, 66.6%.
  const QuantRule* rule3 = FindRule(*result, "<NumCars: 0..1> => <Married: No>");
  ASSERT_NE(rule3, nullptr);
  EXPECT_DOUBLE_EQ(rule3->support, 0.4);
  EXPECT_NEAR(rule3->confidence, 2.0 / 3.0, 1e-9);
}

TEST(MinerTest, EveryRuleMeetsThresholds) {
  MinerOptions options;
  options.minsup = 0.20;
  options.minconf = 0.40;
  options.max_support = 0.40;
  options.partial_completeness = 3.0;
  QuantitativeRuleMiner miner(options);
  auto result = miner.Mine(MakeFinancialDataset(2000, 42));
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->rules.size(), 0u);
  for (const QuantRule& r : result->rules) {
    EXPECT_GE(r.support + 1e-12, options.minsup);
    EXPECT_GE(r.confidence + 1e-12, options.minconf);
    EXPECT_FALSE(r.antecedent.empty());
    EXPECT_FALSE(r.consequent.empty());
  }
}

TEST(MinerTest, RuleSupportsMatchBruteForce) {
  MinerOptions options;
  options.minsup = 0.20;
  options.minconf = 0.50;
  options.max_support = 0.45;
  options.partial_completeness = 3.0;
  QuantitativeRuleMiner miner(options);
  auto result = miner.Mine(MakeFinancialDataset(500, 9));
  ASSERT_TRUE(result.ok());
  for (const QuantRule& r : result->rules) {
    RangeItemset all = r.UnionItemset();
    uint64_t expected = testutil::BruteForceSupport(result->mapped, all);
    EXPECT_EQ(r.count, expected) << RuleToString(r, result->mapped);
  }
}

TEST(MinerTest, InterestLevelReducesRuleCount) {
  Table data = MakeFinancialDataset(2000, 5);
  MinerOptions base;
  base.minsup = 0.20;
  base.minconf = 0.30;
  base.max_support = 0.40;
  base.partial_completeness = 3.0;

  QuantitativeRuleMiner plain(base);
  auto plain_result = plain.Mine(data);
  ASSERT_TRUE(plain_result.ok());

  MinerOptions with_interest = base;
  with_interest.interest_level = 1.5;
  QuantitativeRuleMiner interesting(with_interest);
  auto interest_result = interesting.Mine(data);
  ASSERT_TRUE(interest_result.ok());

  size_t interesting_count = interest_result->stats.num_interesting_rules;
  EXPECT_LT(interesting_count, plain_result->rules.size());
  EXPECT_EQ(plain_result->stats.num_interesting_rules,
            plain_result->rules.size());
}

TEST(MinerTest, StatsArePopulated) {
  MinerOptions options;
  options.minsup = 0.2;
  options.minconf = 0.5;
  options.partial_completeness = 2.5;
  QuantitativeRuleMiner miner(options);
  auto result = miner.Mine(MakeFinancialDataset(1000, 3));
  ASSERT_TRUE(result.ok());
  const MiningStats& stats = result->stats;
  EXPECT_EQ(stats.num_records, 1000u);
  EXPECT_GT(stats.num_frequent_items, 0u);
  EXPECT_GE(stats.passes.size(), 1u);
  EXPECT_GT(stats.achieved_partial_completeness, 1.0);
  // The realized K should not exceed the requested level by much (equi-depth
  // may overshoot slightly on duplicated values).
  EXPECT_LT(stats.achieved_partial_completeness, 3.0);
  EXPECT_GE(stats.total_seconds, 0.0);
  EXPECT_EQ(stats.num_rules, result->rules.size());
}

TEST(MinerTest, OptionValidation) {
  MinerOptions options;
  options.minsup = 0.0;
  EXPECT_FALSE(QuantitativeRuleMiner(options).Mine(MakePeopleTable()).ok());

  options = MinerOptions{};
  options.minconf = 1.5;
  EXPECT_FALSE(QuantitativeRuleMiner(options).Mine(MakePeopleTable()).ok());

  options = MinerOptions{};
  options.max_support = 0.05;  // below minsup
  EXPECT_FALSE(QuantitativeRuleMiner(options).Mine(MakePeopleTable()).ok());

  options = MinerOptions{};
  options.partial_completeness = 0.5;
  EXPECT_FALSE(QuantitativeRuleMiner(options).Mine(MakePeopleTable()).ok());

  options = MinerOptions{};
  options.interest_level = -1.0;
  EXPECT_FALSE(QuantitativeRuleMiner(options).Mine(MakePeopleTable()).ok());
}

TEST(MinerTest, DeterministicAcrossRuns) {
  Table data = MakeFinancialDataset(800, 77);
  MinerOptions options;
  options.minsup = 0.2;
  options.minconf = 0.4;
  options.partial_completeness = 3.0;
  options.interest_level = 1.3;
  QuantitativeRuleMiner miner(options);
  auto a = miner.Mine(data);
  auto b = miner.Mine(data);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->rules.size(), b->rules.size());
  for (size_t i = 0; i < a->rules.size(); ++i) {
    EXPECT_EQ(RuleToString(a->rules[i], a->mapped),
              RuleToString(b->rules[i], b->mapped));
    EXPECT_EQ(a->rules[i].interesting, b->rules[i].interesting);
  }
}

TEST(MinerTest, InterestingRulesAccessor) {
  MinerOptions options;
  options.minsup = 0.20;
  options.minconf = 0.3;
  options.partial_completeness = 3.0;
  options.interest_level = 1.5;
  QuantitativeRuleMiner miner(options);
  auto result = miner.Mine(MakeFinancialDataset(1500, 8));
  ASSERT_TRUE(result.ok());
  auto interesting = result->InterestingRules();
  EXPECT_EQ(interesting.size(), result->stats.num_interesting_rules);
  for (const QuantRule& r : interesting) {
    EXPECT_TRUE(r.interesting);
  }
}

TEST(MinerTest, MaxItemsetSizeKeepsSmallerRulesUnchanged) {
  // A cap stops the level-wise loop early. Rules are emitted level by
  // level and a rule's interest flag depends only on rules and itemsets of
  // its own size, so a capped run must print exactly the uncapped run's
  // rules of at most `cap` items, in order, flags included.
  Table data = MakeFinancialDataset(1500, 21);
  MinerOptions options;
  options.minsup = 0.2;
  options.minconf = 0.4;
  options.partial_completeness = 3.0;
  options.interest_level = 1.2;
  auto full = QuantitativeRuleMiner(options).Mine(data);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  for (size_t cap : {1u, 2u}) {
    MinerOptions capped_options = options;
    capped_options.max_itemset_size = cap;
    auto capped = QuantitativeRuleMiner(capped_options).Mine(data);
    ASSERT_TRUE(capped.ok()) << capped.status().ToString();
    std::vector<const QuantRule*> expected;
    size_t wider = 0;
    for (const QuantRule& rule : full->rules) {
      if (rule.antecedent.size() + rule.consequent.size() <= cap) {
        expected.push_back(&rule);
      } else {
        ++wider;
      }
    }
    ASSERT_GT(wider, 0u) << "cap " << cap << " is not exercised";
    ASSERT_EQ(capped->rules.size(), expected.size()) << "cap " << cap;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(RuleToString(capped->rules[i], capped->mapped),
                RuleToString(*expected[i], full->mapped));
      EXPECT_EQ(capped->rules[i].interesting, expected[i]->interesting);
    }
    for (const FrequentRangeItemset& f : capped->frequent_itemsets) {
      EXPECT_LE(f.items.size(), cap);
    }
  }
}

}  // namespace
}  // namespace qarm
