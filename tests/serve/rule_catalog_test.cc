// RuleCatalog: matching edge cases (boundary endpoints, single-point
// intervals, categorical equality, missing values), brute-force oracle
// equality over randomized rule sets on both index shapes (grid and
// sorted-scan fallback), top-K ordering, browsing, and record parsing.
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serve/rule_catalog.h"
#include "serve/serve_testutil.h"

namespace qarm {
namespace {

using servetest::BruteForceMatch;
using servetest::MakeRuleSet;
using servetest::RandomRecord;
using servetest::RandomRuleSet;

std::shared_ptr<const RuleCatalog> MustBuild(
    StoredRuleSet set, const RuleCatalogOptions& options = {}) {
  auto catalog = RuleCatalog::Build(std::move(set), options);
  EXPECT_TRUE(catalog.ok()) << catalog.status().ToString();
  return *catalog;
}

std::vector<uint32_t> Match(const RuleCatalog& catalog,
                            const std::vector<int32_t>& record,
                            MatchMode mode) {
  MatchScratch scratch;
  std::vector<uint32_t> out;
  catalog.MatchRules(record, mode, &scratch, &out);
  return out;
}

// Attribute layout of MakeRuleSet(): 0=married{no,yes}, 1=cars 0..3,
// 2=age with 5 base intervals.
TEST(RuleCatalogTest, BoundaryEndpointsAreInclusive) {
  auto catalog = MustBuild(MakeRuleSet());
  // Rule 1 is age[1..3] => married=yes; both interval endpoints match.
  EXPECT_EQ(Match(*catalog, {1, kMissingValue, 1}, MatchMode::kRule),
            (std::vector<uint32_t>{1}));
  EXPECT_EQ(Match(*catalog, {1, kMissingValue, 3}, MatchMode::kRule),
            (std::vector<uint32_t>{1}));
  // One past either end does not.
  EXPECT_TRUE(Match(*catalog, {1, kMissingValue, 0}, MatchMode::kRule)
                  .empty());
  EXPECT_TRUE(Match(*catalog, {1, kMissingValue, 4}, MatchMode::kRule)
                  .empty());
}

TEST(RuleCatalogTest, SinglePointIntervalsMatchExactly) {
  auto catalog = MustBuild(MakeRuleSet());
  // Rule 2: cars[2..2] AND age[0..0] => married=no.
  EXPECT_EQ(Match(*catalog, {0, 2, 0}, MatchMode::kRule),
            (std::vector<uint32_t>{2}));
  EXPECT_TRUE(Match(*catalog, {0, 3, 0}, MatchMode::kRule).empty());
  EXPECT_TRUE(Match(*catalog, {0, 2, 1}, MatchMode::kRule).empty());
}

TEST(RuleCatalogTest, CategoricalEquality) {
  auto catalog = MustBuild(MakeRuleSet());
  // Rule 0: married=yes => cars[0..1].
  EXPECT_EQ(Match(*catalog, {1, 0, kMissingValue}, MatchMode::kRule),
            (std::vector<uint32_t>{0}));
  EXPECT_TRUE(Match(*catalog, {0, 0, kMissingValue}, MatchMode::kRule)
                  .empty());
}

TEST(RuleCatalogTest, MissingValuesSupportNothing) {
  auto catalog = MustBuild(MakeRuleSet());
  // All-missing record matches no rule in either mode.
  const std::vector<int32_t> missing(3, kMissingValue);
  EXPECT_TRUE(Match(*catalog, missing, MatchMode::kRule).empty());
  EXPECT_TRUE(Match(*catalog, missing, MatchMode::kAntecedent).empty());
  // married=yes, cars missing: rule 0 fires (antecedent mode) but cannot
  // fully match (rule mode needs the consequent's cars value).
  EXPECT_TRUE(Match(*catalog, {1, kMissingValue, kMissingValue},
                    MatchMode::kRule)
                  .empty());
  EXPECT_EQ(Match(*catalog, {1, kMissingValue, kMissingValue},
                  MatchMode::kAntecedent),
            (std::vector<uint32_t>{0}));
}

TEST(RuleCatalogTest, AntecedentModeIsSupersetOfRuleMode) {
  std::mt19937_64 rng(7);
  const StoredRuleSet set = RandomRuleSet(rng, 5, 60);
  auto catalog = MustBuild(set);
  for (int i = 0; i < 200; ++i) {
    const std::vector<int32_t> record = RandomRecord(rng, set.attributes);
    const auto full = Match(*catalog, record, MatchMode::kRule);
    const auto fired = Match(*catalog, record, MatchMode::kAntecedent);
    for (uint32_t id : full) {
      EXPECT_TRUE(std::find(fired.begin(), fired.end(), id) != fired.end())
          << "rule " << id << " matched fully but did not fire";
    }
  }
}

// The core acceptance property: the indexed match equals the brute-force
// oracle on randomized rule sets, on both index shapes.
TEST(RuleCatalogTest, OracleEqualityOnRandomizedSets) {
  std::mt19937_64 rng(20260809);
  for (int round = 0; round < 8; ++round) {
    const StoredRuleSet set =
        RandomRuleSet(rng, 2 + round % 6, 10 + round * 25);
    RuleCatalogOptions options;
    if (round % 2 == 1) options.max_grid_cells_per_attr = 0;  // force scan
    auto catalog = MustBuild(set, options);
    if (round % 2 == 1) {
      EXPECT_EQ(catalog->stats().grid_attributes, 0u);
    } else {
      EXPECT_EQ(catalog->stats().scan_attributes, 0u);
    }
    MatchScratch scratch;  // reused across records: zeroing must hold
    for (int i = 0; i < 300; ++i) {
      const std::vector<int32_t> record = RandomRecord(rng, set.attributes);
      for (MatchMode mode : {MatchMode::kRule, MatchMode::kAntecedent}) {
        std::vector<uint32_t> got;
        catalog->MatchRules(record, mode, &scratch, &got);
        EXPECT_EQ(got, BruteForceMatch(set, record, mode))
            << "round " << round << " record " << i << " mode "
            << static_cast<int>(mode);
      }
    }
  }
}

TEST(RuleCatalogTest, GridAndScanAgree) {
  std::mt19937_64 rng(99);
  const StoredRuleSet set = RandomRuleSet(rng, 4, 80);
  auto grid = MustBuild(set);
  RuleCatalogOptions scan_options;
  scan_options.max_grid_cells_per_attr = 0;
  auto scan = MustBuild(set, scan_options);
  for (int i = 0; i < 200; ++i) {
    const std::vector<int32_t> record = RandomRecord(rng, set.attributes);
    EXPECT_EQ(Match(*grid, record, MatchMode::kRule),
              Match(*scan, record, MatchMode::kRule));
  }
}

TEST(RuleCatalogTest, TopKOrdersByMeasureThenId) {
  const StoredRuleSet set = MakeRuleSet();
  auto catalog = MustBuild(set);
  for (RankMeasure measure :
       {RankMeasure::kConfidence, RankMeasure::kSupport,
        RankMeasure::kLift}) {
    const auto top =
        catalog->TopK(measure, -1, set.rules.size() + 10, false);
    ASSERT_EQ(top.size(), set.rules.size());
    for (size_t i = 1; i < top.size(); ++i) {
      const double prev = catalog->Measure(top[i - 1], measure);
      const double cur = catalog->Measure(top[i], measure);
      EXPECT_TRUE(prev > cur || (prev == cur && top[i - 1] < top[i]))
          << RankMeasureName(measure) << " at " << i;
    }
  }
  // k truncates; interesting_only filters.
  EXPECT_EQ(catalog->TopK(RankMeasure::kConfidence, -1, 2, false).size(),
            2u);
  for (uint32_t id :
       catalog->TopK(RankMeasure::kConfidence, -1, 10, true)) {
    EXPECT_TRUE(set.rules[id].interesting);
  }
}

TEST(RuleCatalogTest, PerAttributeTopKMentionsTheAttribute) {
  const StoredRuleSet set = MakeRuleSet();
  auto catalog = MustBuild(set);
  // Attribute 2 (age) appears in rules 1, 2, 3.
  const auto top = catalog->TopK(RankMeasure::kSupport, 2, 10, false);
  EXPECT_EQ(top.size(), 3u);
  for (uint32_t id : top) {
    bool mentions = false;
    for (const StoredItem& item : set.rules[id].antecedent) {
      mentions |= item.attr == 2;
    }
    for (const StoredItem& item : set.rules[id].consequent) {
      mentions |= item.attr == 2;
    }
    EXPECT_TRUE(mentions) << "rule " << id;
  }
}

TEST(RuleCatalogTest, BrowseFiltersAndPages) {
  const StoredRuleSet set = MakeRuleSet();
  auto catalog = MustBuild(set);
  size_t total = 0;
  // No filter: everything, id order.
  EXPECT_EQ(catalog->Browse({}, 0, 100, &total),
            (std::vector<uint32_t>{0, 1, 2, 3}));
  EXPECT_EQ(total, 4u);
  // Paging.
  EXPECT_EQ(catalog->Browse({}, 1, 2, &total),
            (std::vector<uint32_t>{1, 2}));
  EXPECT_EQ(total, 4u);
  // Confidence filter: rules 0 (.75) and 2 (.80).
  BrowseFilter conf;
  conf.min_confidence = 0.7;
  EXPECT_EQ(catalog->Browse(conf, 0, 100, &total),
            (std::vector<uint32_t>{0, 2}));
  // Attribute filter: married (attr 0) is in every rule; cars (attr 1)
  // is in rules 0, 2, 3.
  BrowseFilter cars;
  cars.attr = 1;
  EXPECT_EQ(catalog->Browse(cars, 0, 100, &total),
            (std::vector<uint32_t>{0, 2, 3}));
  // Interesting only: rules 0 and 2.
  BrowseFilter interesting;
  interesting.interesting_only = true;
  EXPECT_EQ(catalog->Browse(interesting, 0, 100, &total),
            (std::vector<uint32_t>{0, 2}));
}

TEST(RuleCatalogTest, MapValueAndParseRecord) {
  auto catalog = MustBuild(MakeRuleSet());
  // Categorical: label -> id; unknown label -> missing (matches nothing).
  EXPECT_EQ(*catalog->MapValue(0, "yes"), 1);
  EXPECT_EQ(*catalog->MapValue(0, "no"), 0);
  EXPECT_EQ(*catalog->MapValue(0, "divorced"), kMissingValue);
  // Quantitative single-value intervals: value -> its interval id.
  EXPECT_EQ(*catalog->MapValue(1, "2"), 2);
  EXPECT_EQ(*catalog->MapValue(1, "9"), kMissingValue);  // out of range
  EXPECT_EQ(*catalog->MapValue(1, "1.5"), kMissingValue);  // between 1 and 2
  // Partitioned: 25 lands in [20..39] = id 1; boundary values stick to
  // their interval.
  EXPECT_EQ(*catalog->MapValue(2, "25"), 1);
  EXPECT_EQ(*catalog->MapValue(2, "20"), 1);
  EXPECT_EQ(*catalog->MapValue(2, "39"), 1);
  EXPECT_EQ(*catalog->MapValue(2, "99"), 4);
  EXPECT_EQ(*catalog->MapValue(2, "250"), kMissingValue);
  // Below the first interval, and in the gap between [0..19] and [20..39].
  EXPECT_EQ(*catalog->MapValue(2, "-5"), kMissingValue);
  EXPECT_EQ(*catalog->MapValue(2, "19.5"), kMissingValue);
  // Type error: non-numeric text for a quantitative attribute.
  EXPECT_FALSE(catalog->MapValue(2, "old").ok());

  auto record = catalog->ParseRecord({{"married", "yes"}, {"age", "25"}});
  ASSERT_TRUE(record.ok()) << record.status().ToString();
  EXPECT_EQ(*record, (std::vector<int32_t>{1, kMissingValue, 1}));
  EXPECT_FALSE(catalog->ParseRecord({{"nope", "1"}}).ok());
}

TEST(RuleCatalogTest, StatsAccounting) {
  const StoredRuleSet set = MakeRuleSet();
  auto catalog = MustBuild(set);
  const RuleCatalogStats& stats = catalog->stats();
  EXPECT_EQ(stats.num_rules, 4u);
  EXPECT_EQ(stats.num_attributes, 3u);
  // 4 rules with 2, 2, 3, 3 items = 10 (rule, side) entries.
  EXPECT_EQ(stats.interval_entries, 10u);
  EXPECT_EQ(stats.grid_attributes, 3u);
  EXPECT_EQ(stats.scan_attributes, 0u);
  EXPECT_GT(stats.index_bytes, 0u);
  EXPECT_GE(stats.build_seconds, 0.0);
}

TEST(RuleCatalogTest, ParseRankMeasureNames) {
  EXPECT_EQ(*ParseRankMeasure("confidence"), RankMeasure::kConfidence);
  EXPECT_EQ(*ParseRankMeasure("support"), RankMeasure::kSupport);
  EXPECT_EQ(*ParseRankMeasure("lift"), RankMeasure::kLift);
  EXPECT_FALSE(ParseRankMeasure("coolness").ok());
  EXPECT_STREQ(RankMeasureName(RankMeasure::kLift), "lift");
}

}  // namespace
}  // namespace qarm
