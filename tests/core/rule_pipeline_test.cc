// Determinism of the parallel post-counting pipeline: candidate generation,
// rule generation (boolean and decoded), and interest evaluation must
// produce byte-identical output at any thread count — on tables with
// taxonomies and missing values. Two engine-independent oracles pin the
// output itself: interest flags recomputed from the Section 4 definitions
// (all-pairs close ancestors, a linear specialization scan), and the exact
// rule order ap-genrules emits, enumerated by brute force.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <set>
#include <vector>

#include "common/random.h"
#include "core/apriori_quant.h"
#include "core/candidate_gen.h"
#include "core/expectation.h"
#include "core/frequent_items.h"
#include "core/interest.h"
#include "core/miner.h"
#include "core/report.h"
#include "core/rules.h"
#include "core/support_counting.h"
#include "mining/rulegen.h"
#include "testutil.h"

namespace qarm {
namespace {

using testutil::CatAttr;
using testutil::MakeMappedTable;
using testutil::QuantAttr;

MappedAttribute TaxonomyAttr(const std::string& name,
                             std::vector<std::string> leaves,
                             std::vector<Taxonomy::NodeRange> ranges) {
  MappedAttribute attr = CatAttr(name, std::move(leaves));
  attr.taxonomy_ranges = std::move(ranges);
  return attr;
}

// Rows over {quant(12), taxonomized cat(4), plain cat(3), quant(9),
// plain cat(2)} with a sprinkle of missing values in every attribute —
// the same shape the parallel-counting tests use, so the pipeline sees
// taxonomies, ranges, and missing values at once.
MappedTable MixedTable(uint64_t seed, size_t num_rows) {
  Rng rng(seed);
  std::vector<std::vector<int32_t>> rows;
  for (size_t r = 0; r < num_rows; ++r) {
    std::vector<int32_t> row = {
        static_cast<int32_t>(rng.UniformInt(0, 11)),
        static_cast<int32_t>(rng.UniformInt(0, 3)),
        static_cast<int32_t>(rng.UniformInt(0, 2)),
        static_cast<int32_t>(rng.UniformInt(0, 8)),
        static_cast<int32_t>(rng.UniformInt(0, 1))};
    for (size_t a = 0; a < row.size(); ++a) {
      if (rng.UniformInt(0, 19) == 0) row[a] = kMissingValue;
    }
    rows.push_back(std::move(row));
  }
  return MakeMappedTable(
      {QuantAttr("balance", 12),
       TaxonomyAttr("region", {"north", "south", "east", "west"},
                    {{"any", 0, 3}, {"vertical", 0, 1}}),
       CatAttr("status", {"single", "married", "divorced"}),
       QuantAttr("age", 9), CatAttr("employed", {"yes", "no"})},
      rows);
}

// Wide quantitative domains at a permissive support range: the catalog emits
// hundreds of range items, enough to push candidate generation past its
// serial cutoff.
MappedTable WideQuantTable(uint64_t seed, size_t num_rows) {
  Rng rng(seed);
  std::vector<std::vector<int32_t>> rows;
  for (size_t r = 0; r < num_rows; ++r) {
    rows.push_back({static_cast<int32_t>(rng.UniformInt(0, 15)),
                    static_cast<int32_t>(rng.UniformInt(0, 15)),
                    static_cast<int32_t>(rng.UniformInt(0, 15))});
  }
  return MakeMappedTable(
      {QuantAttr("x", 16), QuantAttr("y", 16), QuantAttr("z", 16)}, rows);
}

std::vector<std::vector<int32_t>> ToVectors(const ItemsetSet& set) {
  std::vector<std::vector<int32_t>> out;
  out.reserve(set.size());
  for (size_t i = 0; i < set.size(); ++i) out.push_back(set.itemset_vector(i));
  return out;
}

class RulePipelineTest : public ::testing::TestWithParam<int> {};

TEST_P(RulePipelineTest, CandidatesMatchSerialEveryLevel) {
  const size_t num_threads = static_cast<size_t>(GetParam());
  MappedTable table = MixedTable(/*seed=*/17, /*num_rows=*/1200);
  MinerOptions options;
  options.minsup = 0.08;
  options.max_support = 0.7;
  options.num_threads = 1;
  ItemCatalog catalog = ItemCatalog::Build(table, options);
  FrequentItemsetResult mined = MineFrequentItemsets(table, catalog, options);

  // Rebuild L_{k-1} per level from the mined itemsets and compare the next
  // level's candidates serial vs parallel (prune included for k >= 3).
  std::map<size_t, ItemsetSet> levels;
  for (const FrequentItemset& f : mined.itemsets) {
    levels.try_emplace(f.items.size(), f.items.size())
        .first->second.AppendVector(f.items);
  }
  ASSERT_GE(levels.size(), 2u);
  for (const auto& [k, frequent] : levels) {
    ItemsetSet serial = GenerateCandidates(catalog, frequent, 1);
    CandidateGenStats stats;
    ItemsetSet parallel =
        GenerateCandidates(catalog, frequent, num_threads, &stats);
    EXPECT_EQ(ToVectors(parallel), ToVectors(serial)) << "level " << k + 1;
    EXPECT_GT(stats.seconds, 0.0);
  }
}

TEST_P(RulePipelineTest, LargeJoinTakesParallelPathAndMatchesSerial) {
  const size_t num_threads = static_cast<size_t>(GetParam());
  MappedTable table = WideQuantTable(/*seed=*/29, /*num_rows=*/800);
  MinerOptions options;
  options.minsup = 0.02;
  options.max_support = 0.5;
  ItemCatalog catalog = ItemCatalog::Build(table, options);
  ItemsetSet l1(1);
  for (size_t i = 0; i < catalog.num_items(); ++i) {
    l1.AppendVector({static_cast<int32_t>(i)});
  }
  ASSERT_GE(l1.size(), 256u);  // past the serial cutoff

  CandidateGenStats serial_stats;
  ItemsetSet serial = GenerateCandidates(catalog, l1, 1, &serial_stats);
  EXPECT_EQ(serial_stats.threads_used, 1u);

  CandidateGenStats parallel_stats;
  ItemsetSet parallel =
      GenerateCandidates(catalog, l1, num_threads, &parallel_stats);
  EXPECT_EQ(parallel_stats.threads_used, num_threads);
  EXPECT_EQ(parallel_stats.join_candidates, serial_stats.join_candidates);
  EXPECT_EQ(ToVectors(parallel), ToVectors(serial));
}

TEST_P(RulePipelineTest, RulesMatchSerial) {
  const size_t num_threads = static_cast<size_t>(GetParam());
  MappedTable table = MixedTable(/*seed=*/43, /*num_rows=*/1500);
  MinerOptions options;
  options.minsup = 0.05;
  options.max_support = 0.7;
  ItemCatalog catalog = ItemCatalog::Build(table, options);
  FrequentItemsetResult mined = MineFrequentItemsets(table, catalog, options);
  ASSERT_GE(mined.itemsets.size(), 128u);  // past the serial cutoff

  size_t serial_threads = 0;
  std::vector<BooleanRule> serial = GenerateRules(
      mined.itemsets, table.num_rows(), /*minconf=*/0.3, 1, &serial_threads);
  EXPECT_EQ(serial_threads, 1u);
  ASSERT_FALSE(serial.empty());

  size_t parallel_threads = 0;
  std::vector<BooleanRule> parallel =
      GenerateRules(mined.itemsets, table.num_rows(), /*minconf=*/0.3,
                    num_threads, &parallel_threads);
  EXPECT_EQ(parallel_threads, num_threads);
  ASSERT_EQ(parallel.size(), serial.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(parallel[i].antecedent, serial[i].antecedent) << "rule " << i;
    EXPECT_EQ(parallel[i].consequent, serial[i].consequent) << "rule " << i;
    EXPECT_EQ(parallel[i].count, serial[i].count) << "rule " << i;
    EXPECT_EQ(parallel[i].support, serial[i].support) << "rule " << i;
    EXPECT_EQ(parallel[i].confidence, serial[i].confidence) << "rule " << i;
  }

  // The decoded quantitative rules must be byte-identical as well.
  std::vector<QuantRule> serial_quant = GenerateQuantRules(
      mined.itemsets, catalog, table.num_rows(), /*minconf=*/0.3, 1);
  std::vector<QuantRule> parallel_quant =
      GenerateQuantRules(mined.itemsets, catalog, table.num_rows(),
                         /*minconf=*/0.3, num_threads);
  ASSERT_EQ(parallel_quant.size(), serial_quant.size());
  for (size_t i = 0; i < serial_quant.size(); ++i) {
    EXPECT_EQ(RuleToJson(parallel_quant[i], table),
              RuleToJson(serial_quant[i], table));
  }
}

TEST_P(RulePipelineTest, InterestFlagsMatchSerial) {
  const size_t num_threads = static_cast<size_t>(GetParam());
  MappedTable table = MixedTable(/*seed=*/61, /*num_rows=*/1500);
  MinerOptions options;
  options.minsup = 0.05;
  options.max_support = 0.7;
  ItemCatalog catalog = ItemCatalog::Build(table, options);
  FrequentItemsetResult mined = MineFrequentItemsets(table, catalog, options);
  std::vector<QuantRule> rules = GenerateQuantRules(
      mined.itemsets, catalog, table.num_rows(), /*minconf=*/0.25);
  ASSERT_GE(rules.size(), 64u);  // past the serial cutoff

  // Enough independent attribute-split groups that the pool is actually
  // populated at every tested width.
  std::set<std::vector<int32_t>> splits;
  for (const QuantRule& rule : rules) {
    std::vector<int32_t> key = AttributesOf(rule.antecedent);
    key.push_back(-1);
    const std::vector<int32_t> cons = AttributesOf(rule.consequent);
    key.insert(key.end(), cons.begin(), cons.end());
    splits.insert(std::move(key));
  }
  ASSERT_GE(splits.size(), num_threads);

  InterestEvaluator evaluator(&catalog, &mined.itemsets,
                              /*interest_level=*/1.1,
                              InterestMode::kSupportOrConfidence);
  std::vector<QuantRule> serial = rules;
  size_t serial_threads = 0;
  evaluator.EvaluateRules(&serial, 1, &serial_threads);
  EXPECT_EQ(serial_threads, 1u);

  std::vector<QuantRule> parallel = rules;
  size_t parallel_threads = 0;
  evaluator.EvaluateRules(&parallel, num_threads, &parallel_threads);
  EXPECT_EQ(parallel_threads, num_threads);
  for (size_t i = 0; i < rules.size(); ++i) {
    EXPECT_EQ(parallel[i].interesting, serial[i].interesting) << "rule " << i;
  }
}

TEST_P(RulePipelineTest, EndToEndMinerMatchesSerial) {
  const size_t num_threads = static_cast<size_t>(GetParam());
  MappedTable table = MixedTable(/*seed=*/83, /*num_rows=*/1200);
  MinerOptions serial_options;
  serial_options.minsup = 0.07;
  serial_options.max_support = 0.7;
  serial_options.minconf = 0.3;
  serial_options.interest_level = 1.1;
  serial_options.num_threads = 1;
  Result<MiningResult> serial_result =
      QuantitativeRuleMiner(serial_options).MineMapped(table);
  ASSERT_TRUE(serial_result.ok()) << serial_result.status().ToString();
  MiningResult& serial = *serial_result;

  MinerOptions parallel_options = serial_options;
  parallel_options.num_threads = num_threads;
  Result<MiningResult> parallel_result =
      QuantitativeRuleMiner(parallel_options).MineMapped(table);
  ASSERT_TRUE(parallel_result.ok()) << parallel_result.status().ToString();
  MiningResult& parallel = *parallel_result;

  ASSERT_EQ(parallel.frequent_itemsets.size(),
            serial.frequent_itemsets.size());
  for (size_t i = 0; i < serial.frequent_itemsets.size(); ++i) {
    EXPECT_EQ(parallel.frequent_itemsets[i].items,
              serial.frequent_itemsets[i].items);
    EXPECT_EQ(parallel.frequent_itemsets[i].count,
              serial.frequent_itemsets[i].count);
  }
  ASSERT_EQ(parallel.rules.size(), serial.rules.size());
  for (size_t i = 0; i < serial.rules.size(); ++i) {
    EXPECT_EQ(RuleToJson(parallel.rules[i], parallel.mapped),
              RuleToJson(serial.rules[i], serial.mapped));
  }
  EXPECT_EQ(parallel.stats.num_interesting_rules,
            serial.stats.num_interesting_rules);
}

INSTANTIATE_TEST_SUITE_P(Threads, RulePipelineTest,
                         ::testing::Values(2, 4, 8));

TEST(RulePipelineTest, StatsJsonCarriesPhaseFields) {
  MappedTable table = MixedTable(/*seed=*/97, /*num_rows=*/600);
  MinerOptions options;
  options.minsup = 0.1;
  options.max_support = 0.7;
  options.minconf = 0.3;
  options.interest_level = 1.1;
  options.num_threads = 2;
  Result<MiningResult> mine_result =
      QuantitativeRuleMiner(options).MineMapped(table);
  ASSERT_TRUE(mine_result.ok()) << mine_result.status().ToString();
  MiningResult& result = *mine_result;
  const std::string json = StatsToJson(result.stats);
  for (const char* field :
       {"\"candgen_seconds\":", "\"rulegen_seconds\":",
        "\"interest_seconds\":", "\"candgen_threads_used\":",
        "\"rulegen_threads_used\":", "\"interest_threads_used\":",
        "\"candgen\":{\"threads_used\":"}) {
    EXPECT_NE(json.find(field), std::string::npos) << field;
  }
}

TEST(RulePipelineTest, BooleanAprioriMatchesSerial) {
  // The boolean Apriori pass counting shards transactions the same way; the
  // mined itemsets must be identical at any thread count.
  Rng rng(101);
  std::vector<Transaction> transactions;
  for (size_t t = 0; t < 2000; ++t) {
    std::set<int32_t> items;
    const size_t len = 2 + rng.UniformInt(0, 5);
    for (size_t i = 0; i < len; ++i) {
      items.insert(static_cast<int32_t>(rng.UniformInt(0, 24)));
    }
    transactions.emplace_back(items.begin(), items.end());
  }
  AprioriOptions options;
  options.minsup = 0.05;
  options.num_threads = 1;
  const std::vector<FrequentItemset> serial =
      AprioriMine(transactions, options);
  ASSERT_FALSE(serial.empty());
  for (size_t threads : {2u, 4u, 8u}) {
    options.num_threads = threads;
    EXPECT_EQ(AprioriMine(transactions, options), serial)
        << "threads " << threads;
  }
}

// --- Engine-independent oracles ---------------------------------------------

// Rows over a quantitative attribute and two taxonomized categoricals whose
// interior nodes generalize their leaves, with y correlated to x's low
// values and to the "warm" leaves — so interest has ancestors to compare
// against on both range and taxonomy items.
MappedTable TaxonomyTable(uint64_t seed, size_t num_rows) {
  Rng rng(seed);
  std::vector<std::vector<int32_t>> rows;
  for (size_t r = 0; r < num_rows; ++r) {
    const int32_t x = static_cast<int32_t>(rng.UniformInt(0, 9));
    const int32_t climate = static_cast<int32_t>(rng.UniformInt(0, 3));
    const int32_t drink = static_cast<int32_t>(rng.UniformInt(0, 3));
    const bool likely = x < 3 || climate < 2;
    const int32_t y = rng.UniformInt(0, 9) < (likely ? 8 : 3) ? 1 : 0;
    std::vector<int32_t> row = {x, climate, drink, y};
    if (rng.UniformInt(0, 29) == 0) row[2] = kMissingValue;
    rows.push_back(std::move(row));
  }
  return MakeMappedTable(
      {QuantAttr("x", 10),
       TaxonomyAttr("climate", {"hot", "warm", "cool", "cold"},
                    {{"any", 0, 3}, {"mild", 1, 2}, {"warmish", 0, 1}}),
       TaxonomyAttr("drink", {"coffee", "tea", "soda", "juice"},
                    {{"hot", 0, 1}, {"cold", 2, 3}}),
       CatAttr("y", {"no", "yes"})},
      rows);
}

// Ordering helpers shared by the oracles below.
bool OracleRuleGeneralizes(const QuantRule& a, const QuantRule& b) {
  // a is a strict generalization of b (as a rule).
  if (!IsGeneralization(a.antecedent, b.antecedent)) return false;
  if (!IsGeneralization(a.consequent, b.consequent)) return false;
  return a.antecedent != b.antecedent || a.consequent != b.consequent;
}

double OracleVolume(const QuantRule& rule) {
  double v = 1.0;
  for (const RangeItem& item : rule.antecedent) {
    v *= static_cast<double>(item.Width());
  }
  for (const RangeItem& item : rule.consequent) {
    v *= static_cast<double>(item.Width());
  }
  return v;
}

// The Section 4 interest flags computed straight from the definitions, with
// no part of the evaluator: close ancestors from all pairs, the support /
// confidence test through ExpectedSupport / ExpectedConfidence, and the
// specialization-difference test as a linear scan over every frequent
// itemset with BoxDifference. The tolerance matches the evaluator's, so
// the flags must agree exactly.
class ReferenceInterest {
 public:
  ReferenceInterest(const ItemCatalog& catalog,
                    const FrequentItemsetResult& mined, double level,
                    InterestMode mode)
      : catalog_(catalog),
        level_(level),
        mode_(mode),
        n_(static_cast<double>(catalog.num_records())) {
    for (const FrequentItemset& f : mined.itemsets) {
      frequent_.push_back({catalog.Decode(f.items), f.count});
    }
  }

  std::vector<bool> Flags(const std::vector<QuantRule>& rules) const {
    std::map<std::vector<int32_t>, std::vector<size_t>> groups;
    for (size_t i = 0; i < rules.size(); ++i) {
      std::vector<int32_t> key = AttributesOf(rules[i].antecedent);
      key.push_back(-1);
      const std::vector<int32_t> cons = AttributesOf(rules[i].consequent);
      key.insert(key.end(), cons.begin(), cons.end());
      groups[std::move(key)].push_back(i);
    }
    std::vector<bool> flags(rules.size(), true);
    for (const auto& [key, members] : groups) {
      // Most general first: a strict generalization has a strictly larger
      // volume, so every ancestor is decided before its descendants.
      std::vector<size_t> order = members;
      std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        const double va = OracleVolume(rules[a]);
        const double vb = OracleVolume(rules[b]);
        if (va != vb) return va > vb;
        return a < b;
      });
      std::vector<size_t> interesting_so_far;
      for (size_t index : order) {
        std::vector<size_t> ancestors;
        for (size_t candidate : interesting_so_far) {
          if (OracleRuleGeneralizes(rules[candidate], rules[index])) {
            ancestors.push_back(candidate);
          }
        }
        bool interesting = true;
        for (size_t i = 0; i < ancestors.size() && interesting; ++i) {
          bool has_closer = false;
          for (size_t j = 0; j < ancestors.size(); ++j) {
            if (i != j && OracleRuleGeneralizes(rules[ancestors[i]],
                                                rules[ancestors[j]])) {
              has_closer = true;
              break;
            }
          }
          if (has_closer) continue;
          if (!RuleInterestingWrt(rules[index], rules[ancestors[i]])) {
            interesting = false;
          }
        }
        flags[index] = interesting;
        if (interesting) interesting_so_far.push_back(index);
      }
    }
    return flags;
  }

 private:
  static constexpr double kEps = 1e-9;

  bool RuleInterestingWrt(const QuantRule& rule,
                          const QuantRule& ancestor) const {
    const RangeItemset z = rule.UnionItemset();
    const RangeItemset z_hat = ancestor.UnionItemset();
    const bool support_ok =
        rule.support + kEps >=
        level_ * ExpectedSupport(z, z_hat, ancestor.support, catalog_);
    const bool confidence_ok =
        rule.confidence + kEps >=
        level_ * ExpectedConfidence(rule.consequent, ancestor.consequent,
                                    ancestor.confidence, catalog_);
    const bool rule_ok = mode_ == InterestMode::kSupportOrConfidence
                             ? (support_ok || confidence_ok)
                             : (support_ok && confidence_ok);
    return rule_ok && ItemsetInteresting(z, rule.count, z_hat,
                                         ancestor.count);
  }

  bool ItemsetInteresting(const RangeItemset& z, uint64_t z_count,
                          const RangeItemset& z_hat,
                          uint64_t z_hat_count) const {
    const double sup_z = static_cast<double>(z_count) / n_;
    const double sup_z_hat = static_cast<double>(z_hat_count) / n_;
    if (sup_z + kEps <
        level_ * ExpectedSupport(z, z_hat, sup_z_hat, catalog_)) {
      return false;
    }
    RangeItemset difference;
    for (const auto& [items, count] : frequent_) {
      if (!BoxDifference(z, items, &difference)) continue;
      const double sup_diff = static_cast<double>(z_count - count) / n_;
      if (sup_diff + kEps <
          level_ * ExpectedSupport(difference, z_hat, sup_z_hat, catalog_)) {
        return false;
      }
    }
    return true;
  }

  const ItemCatalog& catalog_;
  double level_;
  InterestMode mode_;
  double n_;
  std::vector<std::pair<RangeItemset, uint64_t>> frequent_;
};

struct OracleCase {
  const char* name;
  MappedTable table;
  double minsup;
};

std::vector<OracleCase> OracleTables() {
  std::vector<OracleCase> cases;
  for (uint64_t seed : {11u, 13u, 19u}) {
    cases.push_back({"mixed", MixedTable(seed, /*num_rows=*/1000), 0.06});
  }
  for (uint64_t seed : {3u, 7u}) {
    cases.push_back({"taxonomy", TaxonomyTable(seed, /*num_rows=*/1200), 0.05});
  }
  return cases;
}

TEST(CloseAncestorTest, DominanceFilterMatchesBruteForce) {
  for (uint64_t seed : {11u, 13u, 19u}) {
    MappedTable table = MixedTable(seed, /*num_rows=*/1000);
    MinerOptions options;
    options.minsup = 0.06;
    options.max_support = 0.7;
    ItemCatalog catalog = ItemCatalog::Build(table, options);
    FrequentItemsetResult mined =
        MineFrequentItemsets(table, catalog, options);
    std::vector<QuantRule> rules = GenerateQuantRules(
        mined.itemsets, catalog, table.num_rows(), /*minconf=*/0.25);
    ASSERT_FALSE(rules.empty());

    for (double level : {1.05, 1.5}) {
      InterestEvaluator evaluator(&catalog, &mined.itemsets, level,
                                  InterestMode::kSupportOrConfidence);
      const std::vector<bool> expected =
          ReferenceInterest(catalog, mined, level,
                            InterestMode::kSupportOrConfidence)
              .Flags(rules);
      // Some rules must actually have close ancestors for the comparison to
      // bite; the combined quant ranges and the taxonomy guarantee that.
      EXPECT_NE(std::count(expected.begin(), expected.end(), false), 0)
          << "seed " << seed << " level " << level;

      for (size_t threads : {1u, 4u}) {
        std::vector<QuantRule> got = rules;
        evaluator.EvaluateRules(&got, threads);
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].interesting, expected[i])
              << "seed " << seed << " level " << level << " threads "
              << threads << " rule " << i;
        }
      }
    }
  }
}

// Every interest mode and level against the reference, on range and
// taxonomy tables, serial and on a pool.
TEST(InterestOracleTest, FlagsMatchReferenceEveryModeAndLevel) {
  for (const OracleCase& c : OracleTables()) {
    MinerOptions options;
    options.minsup = c.minsup;
    options.max_support = 0.7;
    options.interest_item_prune = false;  // keep wide ranges as ancestors
    ItemCatalog catalog = ItemCatalog::Build(c.table, options);
    FrequentItemsetResult mined =
        MineFrequentItemsets(c.table, catalog, options);
    const std::vector<QuantRule> rules = GenerateQuantRules(
        mined.itemsets, catalog, c.table.num_rows(), /*minconf=*/0.2);
    ASSERT_FALSE(rules.empty()) << c.name;

    for (InterestMode mode : {InterestMode::kSupportOrConfidence,
                              InterestMode::kSupportAndConfidence}) {
      for (double level : {1.05, 1.5, 3.0}) {
        const std::vector<bool> expected =
            ReferenceInterest(catalog, mined, level, mode).Flags(rules);
        const size_t boring =
            std::count(expected.begin(), expected.end(), false);
        // Both outcomes must occur, or the comparison proves nothing.
        EXPECT_GT(boring, 0u) << c.name << " R=" << level;
        EXPECT_LT(boring, rules.size()) << c.name << " R=" << level;
        InterestEvaluator evaluator(&catalog, &mined.itemsets, level, mode);
        for (size_t threads : {1u, 4u}) {
          std::vector<QuantRule> got = rules;
          evaluator.EvaluateRules(&got, threads);
          for (size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(got[i].interesting, expected[i])
                << c.name << " mode " << static_cast<int>(mode) << " R="
                << level << " threads " << threads << " rule " << i;
          }
        }
      }
    }
  }
}

// The exact rule sequence ap-genrules emits, derived by brute force:
// frequent itemsets in generation order (by size, then lexicographically);
// within one itemset every non-empty proper subset as a consequent, kept
// when it passes minconf, ordered by consequent size and then
// lexicographically by item id; count, support and confidence from the
// mined supports.
std::vector<QuantRule> ReferenceRules(const ItemCatalog& catalog,
                                      const FrequentItemsetResult& mined,
                                      size_t num_records, double minconf) {
  std::map<std::vector<int32_t>, uint64_t> support;
  for (const FrequentItemset& f : mined.itemsets) support[f.items] = f.count;
  const double n = static_cast<double>(num_records);
  std::vector<QuantRule> rules;
  for (const FrequentItemset& f : mined.itemsets) {
    const size_t k = f.items.size();
    if (k < 2) continue;
    std::vector<std::vector<int32_t>> consequents;
    for (uint32_t mask = 1; mask + 1 < (1u << k); ++mask) {
      std::vector<int32_t> consequent;
      for (size_t i = 0; i < k; ++i) {
        if (mask & (1u << i)) consequent.push_back(f.items[i]);
      }
      consequents.push_back(std::move(consequent));
    }
    std::sort(consequents.begin(), consequents.end(),
              [](const std::vector<int32_t>& a, const std::vector<int32_t>& b) {
                if (a.size() != b.size()) return a.size() < b.size();
                return a < b;
              });
    for (const std::vector<int32_t>& consequent : consequents) {
      std::vector<int32_t> antecedent;
      std::set_difference(f.items.begin(), f.items.end(), consequent.begin(),
                          consequent.end(), std::back_inserter(antecedent));
      const auto it = support.find(antecedent);
      EXPECT_NE(it, support.end()) << "subset of a frequent itemset missing";
      if (it == support.end()) continue;
      const double confidence =
          static_cast<double>(f.count) / static_cast<double>(it->second);
      if (confidence + 1e-12 < minconf) continue;
      QuantRule rule;
      rule.antecedent = catalog.Decode(antecedent);
      rule.consequent = catalog.Decode(consequent);
      rule.count = f.count;
      rule.support = static_cast<double>(f.count) / n;
      rule.confidence = confidence;
      rules.push_back(std::move(rule));
    }
  }
  return rules;
}

TEST(RuleOrderOracleTest, GeneratedRulesMatchBruteForceOrder) {
  for (uint64_t seed : {5u, 23u, 47u}) {
    MappedTable table = MixedTable(seed, /*num_rows=*/1200);
    MinerOptions options;
    options.minsup = 0.05;
    options.max_support = 0.7;
    ItemCatalog catalog = ItemCatalog::Build(table, options);
    FrequentItemsetResult mined =
        MineFrequentItemsets(table, catalog, options);

    // Generation order is by size, then lexicographic by item id.
    std::vector<int32_t> previous;
    size_t levels = 0;
    for (const FrequentItemset& f : mined.itemsets) {
      if (f.items.size() != previous.size()) {
        ASSERT_GT(f.items.size(), previous.size()) << "seed " << seed;
        ++levels;
      } else {
        ASSERT_LT(previous, f.items) << "seed " << seed;
      }
      previous = f.items;
    }
    ASSERT_GE(levels, 3u) << "seed " << seed;

    for (double minconf : {0.25, 0.6}) {
      const std::vector<QuantRule> expected = ReferenceRules(
          catalog, mined, table.num_rows(), minconf);
      ASSERT_FALSE(expected.empty());
      for (size_t threads : {1u, 4u}) {
        const std::vector<QuantRule> got = GenerateQuantRules(
            mined.itemsets, catalog, table.num_rows(), minconf, threads);
        ASSERT_EQ(got.size(), expected.size())
            << "seed " << seed << " minconf " << minconf << " threads "
            << threads;
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].antecedent, expected[i].antecedent) << i;
          EXPECT_EQ(got[i].consequent, expected[i].consequent) << i;
          EXPECT_EQ(got[i].count, expected[i].count) << i;
          EXPECT_EQ(got[i].support, expected[i].support) << i;
          EXPECT_EQ(got[i].confidence, expected[i].confidence) << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace qarm
