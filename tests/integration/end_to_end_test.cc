// Cross-module integration tests: the quantitative miner against the
// boolean bridge, PS91, and the raw data.
#include <algorithm>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "core/miner.h"
#include "mining/bridge.h"
#include "mining/ps91.h"
#include "partition/mapper.h"
#include "table/csv.h"
#include "table/datagen.h"
#include "testutil.h"

namespace qarm {
namespace {

// When every attribute is categorical, the quantitative miner must agree
// exactly with boolean Apriori over the bridge encoding.
TEST(EndToEndTest, CategoricalOnlyMatchesBooleanApriori) {
  SyntheticConfig config;
  for (const char* name : {"c1", "c2", "c3"}) {
    SyntheticAttribute attr;
    attr.name = name;
    attr.kind = AttributeKind::kCategorical;
    attr.categories = {"a", "b", "c"};
    attr.weights = {0.5, 0.3, 0.2};
    config.attributes.push_back(attr);
  }
  ImplantedRule dep;
  dep.antecedent_attr = 0;
  dep.ante_category = 0;
  dep.consequent_attr = 1;
  dep.cons_category = 1;
  dep.probability = 0.8;
  config.rules.push_back(dep);
  Table data = GenerateSynthetic(config, 1000, 13);

  MapOptions map_options;
  map_options.minsup = 0.1;
  auto mapped = MapTable(data, map_options);
  ASSERT_TRUE(mapped.ok());

  // Quantitative miner.
  MinerOptions options;
  options.minsup = 0.1;
  options.minconf = 0.6;
  QuantitativeRuleMiner miner(options);
  Result<MiningResult> mine_result = miner.MineMapped(*mapped);
  ASSERT_TRUE(mine_result.ok()) << mine_result.status().ToString();
  MiningResult& result = *mine_result;

  // Boolean bridge.
  BridgeResult bridge = MineViaBooleanBridge(*mapped, 0.1, 0.6);

  // Compare frequent itemsets as (rendered, count) sets.
  std::set<std::pair<std::string, uint64_t>> quant_sets, bool_sets;
  for (const FrequentRangeItemset& f : result.frequent_itemsets) {
    quant_sets.insert({testutil::ItemsText(f.items, result.mapped), f.count});
  }
  BooleanEncoding encoding(*mapped);
  for (const FrequentItemset& f : bridge.itemsets) {
    RangeItemset decoded;
    for (int32_t item : f.items) {
      int32_t attr = static_cast<int32_t>(encoding.AttrOf(item));
      int32_t v = encoding.ValueOf(item);
      decoded.push_back(RangeItem{attr, v, v});
    }
    bool_sets.insert({testutil::ItemsText(decoded, result.mapped), f.count});
  }
  EXPECT_EQ(quant_sets, bool_sets);
  EXPECT_EQ(result.rules.size(), bridge.rules.size());
}

// Implanted quantitative dependencies must surface as high-confidence rules.
TEST(EndToEndTest, ImplantedRuleIsRecovered) {
  SyntheticConfig config;
  SyntheticAttribute x;
  x.name = "x";
  x.dist = SyntheticDist::kUniform;
  x.param0 = 0;
  x.param1 = 999;
  SyntheticAttribute y = x;
  y.name = "y";
  config.attributes = {x, y};
  ImplantedRule rule;
  rule.antecedent_attr = 0;
  rule.ante_lo = 0;
  rule.ante_hi = 299;        // ~30% of records
  rule.consequent_attr = 1;
  rule.cons_lo = 700;
  rule.cons_hi = 999;
  rule.probability = 0.95;
  config.rules.push_back(rule);
  Table data = GenerateSynthetic(config, 5000, 21);

  MinerOptions options;
  options.minsup = 0.15;
  options.minconf = 0.7;
  options.max_support = 0.5;
  options.partial_completeness = 1.5;
  QuantitativeRuleMiner miner(options);
  auto result = miner.Mine(data);
  ASSERT_TRUE(result.ok());

  // Look for a rule whose antecedent is an x-range inside [0, 330] and whose
  // consequent is a y-range inside [650, 999], with high confidence.
  bool found = false;
  for (const QuantRule& r : result->rules) {
    if (r.antecedent.size() != 1 || r.consequent.size() != 1) continue;
    if (r.antecedent[0].attr != 0 || r.consequent[0].attr != 1) continue;
    Interval ante = result->mapped.attribute(0).RawInterval(
        r.antecedent[0].lo, r.antecedent[0].hi);
    Interval cons = result->mapped.attribute(1).RawInterval(
        r.consequent[0].lo, r.consequent[0].hi);
    if (ante.lo >= 0 && ante.hi <= 330 && cons.lo >= 650 &&
        r.confidence > 0.8) {
      found = true;
      break;
    }
  }
  EXPECT_TRUE(found);
}

// PS91 rules are a strict subset of what the quantitative miner can express;
// on single-value antecedents/consequents with the same thresholds, every
// PS91 rule must correspond to a mined rule.
TEST(EndToEndTest, Ps91RulesAreSubsumed) {
  Table data = MakeFinancialDataset(1000, 4);
  MapOptions map_options;
  map_options.minsup = 0.2;
  map_options.partial_completeness = 2.0;
  auto mapped = MapTable(data, map_options);
  ASSERT_TRUE(mapped.ok());

  Ps91Options ps_options;
  ps_options.minsup = 0.2;
  ps_options.minconf = 0.5;
  auto ps_rules = Ps91MineAll(*mapped, ps_options);

  MinerOptions options;
  options.minsup = 0.2;
  options.minconf = 0.5;
  options.max_support = 0.4;
  options.partial_completeness = 2.0;
  QuantitativeRuleMiner miner(options);
  Result<MiningResult> mine_result = miner.MineMapped(*mapped);
  ASSERT_TRUE(mine_result.ok()) << mine_result.status().ToString();
  MiningResult& result = *mine_result;

  std::set<std::string> mined;
  for (const QuantRule& r : result.rules) {
    mined.insert(RuleToString(r, result.mapped));
  }
  for (const Ps91Rule& ps : ps_rules) {
    QuantRule as_quant;
    as_quant.antecedent = {RangeItem{
        static_cast<int32_t>(ps.antecedent_attr), ps.antecedent_value,
        ps.antecedent_value}};
    as_quant.consequent = {RangeItem{
        static_cast<int32_t>(ps.consequent_attr), ps.consequent_value,
        ps.consequent_value}};
    as_quant.support = ps.support;
    as_quant.confidence = ps.confidence;
    EXPECT_TRUE(mined.count(RuleToString(as_quant, result.mapped)) > 0)
        << Ps91RuleToString(ps, *mapped);
  }
}

// CSV round trip feeds the miner identically to the in-memory table.
TEST(EndToEndTest, CsvRoundTripMining) {
  Table data = MakeFinancialDataset(300, 6);
  std::string path = testing::TempDir() + "/qarm_e2e.csv";
  ASSERT_TRUE(WriteCsv(data, path).ok());
  auto loaded = ReadCsv(path, data.schema());
  ASSERT_TRUE(loaded.ok());

  MinerOptions options;
  options.minsup = 0.2;
  options.minconf = 0.5;
  options.partial_completeness = 3.0;
  QuantitativeRuleMiner miner(options);
  auto a = miner.Mine(data);
  auto b = miner.Mine(*loaded);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->rules.size(), b->rules.size());
  for (size_t i = 0; i < a->rules.size(); ++i) {
    EXPECT_EQ(RuleToString(a->rules[i], a->mapped),
              RuleToString(b->rules[i], b->mapped));
  }
  std::remove(path.c_str());
}

// Scale sanity: support fractions are invariant to dataset size (same
// generator, larger n) within sampling noise.
TEST(EndToEndTest, SupportsStableAcrossScale) {
  MinerOptions options;
  options.minsup = 0.25;
  options.minconf = 0.5;
  options.partial_completeness = 3.0;
  QuantitativeRuleMiner miner(options);

  auto small = miner.Mine(MakeFinancialDataset(1000, 99));
  auto large = miner.Mine(MakeFinancialDataset(4000, 99));
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());

  // The exact interval boundaries shift with the sample (equi-depth
  // quantiles), but the overall mining landscape must be stable: rule and
  // item counts within a factor of two, and the realized partial
  // completeness close to the requested level in both runs.
  ASSERT_GT(small->rules.size(), 0u);
  ASSERT_GT(large->rules.size(), 0u);
  double ratio = static_cast<double>(large->rules.size()) /
                 static_cast<double>(small->rules.size());
  EXPECT_GT(ratio, 0.5);
  EXPECT_LT(ratio, 2.0);
  double item_ratio = static_cast<double>(large->stats.num_frequent_items) /
                      static_cast<double>(small->stats.num_frequent_items);
  EXPECT_GT(item_ratio, 0.5);
  EXPECT_LT(item_ratio, 2.0);
}

}  // namespace
}  // namespace qarm
