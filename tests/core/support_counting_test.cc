#include "core/support_counting.h"

#include <unistd.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "common/cpu_dispatch.h"
#include "common/random.h"
#include "storage/qbt_writer.h"
#include "storage/record_source.h"
#include "testutil.h"

namespace qarm {
namespace {

using testutil::BruteForceSupport;
using testutil::CatAttr;
using testutil::MakeMappedTable;
using testutil::QuantAttr;

MappedTable RandomTable(uint64_t seed, size_t rows_count) {
  Rng rng(seed);
  std::vector<std::vector<int32_t>> rows;
  for (size_t r = 0; r < rows_count; ++r) {
    rows.push_back({static_cast<int32_t>(rng.UniformInt(0, 7)),
                    static_cast<int32_t>(rng.UniformInt(0, 1)),
                    static_cast<int32_t>(rng.UniformInt(0, 5)),
                    static_cast<int32_t>(rng.UniformInt(0, 2))});
  }
  return MakeMappedTable(
      {QuantAttr("q1", 8), CatAttr("c1", {"a", "b"}), QuantAttr("q2", 6),
       CatAttr("c2", {"x", "y", "z"})},
      rows);
}

class SupportCountingTest : public ::testing::TestWithParam<int> {};

TEST_P(SupportCountingTest, MatchesBruteForceAcrossLevels) {
  MappedTable table = RandomTable(static_cast<uint64_t>(GetParam()), 300);
  MinerOptions options;
  options.minsup = 0.1;
  options.max_support = 0.6;
  ItemCatalog catalog = ItemCatalog::Build(table, options);
  ASSERT_GT(catalog.num_items(), 0u);

  // Level 2 candidates: all cross-attribute pairs.
  ItemsetSet l1(1);
  for (size_t i = 0; i < catalog.num_items(); ++i) {
    l1.AppendVector({static_cast<int32_t>(i)});
  }
  ItemsetSet c2 = GenerateCandidates(catalog, l1);
  CountingStats stats;
  std::vector<uint32_t> counts =
      CountSupports(table, catalog, c2, options, &stats);
  ASSERT_EQ(counts.size(), c2.size());
  EXPECT_GT(stats.num_super_candidates, 0u);

  for (size_t c = 0; c < c2.size(); ++c) {
    RangeItemset itemset = catalog.Decode(c2.itemset_vector(c));
    EXPECT_EQ(counts[c], BruteForceSupport(table, itemset))
        << "candidate " << c;
  }

  // Level 3 from the actually frequent pairs.
  uint64_t min_count = static_cast<uint64_t>(options.minsup * 300);
  ItemsetSet l2(2);
  for (size_t c = 0; c < c2.size(); ++c) {
    if (counts[c] >= min_count) l2.Append(c2.itemset(c));
  }
  ItemsetSet c3 = GenerateCandidates(catalog, l2);
  if (!c3.empty()) {
    std::vector<uint32_t> counts3 =
        CountSupports(table, catalog, c3, options, nullptr);
    for (size_t c = 0; c < c3.size(); ++c) {
      RangeItemset itemset = catalog.Decode(c3.itemset_vector(c));
      EXPECT_EQ(counts3[c], BruteForceSupport(table, itemset));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SupportCountingTest,
                         ::testing::Values(11, 22, 33, 44));

TEST(SupportCountingTest, PurelyCategoricalCandidates) {
  MappedTable table = RandomTable(5, 200);
  MinerOptions options;
  options.minsup = 0.05;
  options.max_support = 1.0;
  ItemCatalog catalog = ItemCatalog::Build(table, options);

  // Candidates pairing the two categorical attributes only.
  ItemsetSet c2(2);
  std::vector<std::pair<int32_t, int32_t>> kept;
  for (size_t i = 0; i < catalog.num_items(); ++i) {
    for (size_t j = i + 1; j < catalog.num_items(); ++j) {
      const RangeItem& a = catalog.item(static_cast<int32_t>(i));
      const RangeItem& b = catalog.item(static_cast<int32_t>(j));
      if (a.attr == 1 && b.attr == 3) {
        c2.AppendVector(
            {static_cast<int32_t>(i), static_cast<int32_t>(j)});
      }
    }
  }
  ASSERT_GT(c2.size(), 0u);
  // The miner never repeats a candidate, but a distributed worker counts
  // whatever its peer sends: a repeat gets the same count, not an abort.
  c2.AppendVector(c2.itemset_vector(0));
  CountingStats stats;
  std::vector<uint32_t> counts =
      CountSupports(table, catalog, c2, options, &stats);
  EXPECT_EQ(stats.num_direct, stats.num_super_candidates);
  EXPECT_EQ(counts.back(), counts.front());
  for (size_t c = 0; c < c2.size(); ++c) {
    EXPECT_EQ(counts[c],
              BruteForceSupport(table, catalog.Decode(c2.itemset_vector(c))));
  }
}

// A table with wide quantitative domains, so that a handful of candidate
// pairs makes the dense grid bigger than the member scan's state (the
// regime where a tight memory budget must switch counters).
struct WideDomainFixture {
  MappedTable table;
  ItemCatalog catalog;
  ItemsetSet candidates{2};

  static WideDomainFixture Make(uint64_t seed) {
    Rng rng(seed);
    std::vector<std::vector<int32_t>> rows;
    for (size_t r = 0; r < 400; ++r) {
      rows.push_back({static_cast<int32_t>(rng.UniformInt(0, 39)),
                      static_cast<int32_t>(rng.UniformInt(0, 39))});
    }
    MappedTable table = MakeMappedTable(
        {QuantAttr("q1", 40), QuantAttr("q2", 40)}, rows);
    MinerOptions options;
    options.minsup = 0.05;
    options.max_support = 0.30;
    ItemCatalog catalog = ItemCatalog::Build(table, options);
    WideDomainFixture f{std::move(table), std::move(catalog), ItemsetSet(2)};
    // A handful of cross-attribute pairs: few enough that their counts and
    // item ids undercut the 40x40 grid.
    std::vector<int32_t> q1_items, q2_items;
    for (size_t i = 0; i < f.catalog.num_items(); ++i) {
      (f.catalog.item(static_cast<int32_t>(i)).attr == 0 ? q1_items
                                                         : q2_items)
          .push_back(static_cast<int32_t>(i));
    }
    for (size_t i = 0; i < q1_items.size() && i < 5; ++i) {
      for (size_t j = 0; j < q2_items.size() && j < 4; ++j) {
        f.candidates.AppendVector({q1_items[i * q1_items.size() / 5],
                                   q2_items[j * q2_items.size() / 4]});
      }
    }
    return f;
  }
};

TEST(SupportCountingTest, MemberScanUnderTightBudget) {
  WideDomainFixture f = WideDomainFixture::Make(6);
  ASSERT_GT(f.candidates.size(), 0u);
  MinerOptions options;
  options.minsup = 0.05;
  options.counter_memory_budget_bytes = 1;  // the grid never fits
  CountingStats stats;
  std::vector<uint32_t> counts =
      CountSupports(f.table, f.catalog, f.candidates, options, &stats);
  EXPECT_GT(stats.num_member_counters, 0u);
  EXPECT_EQ(stats.num_array_counters, 0u);
  for (size_t c = 0; c < f.candidates.size(); ++c) {
    EXPECT_EQ(counts[c],
              BruteForceSupport(f.table,
                                f.catalog.Decode(
                                    f.candidates.itemset_vector(c))));
  }
}

TEST(SupportCountingTest, ArrayAndMemberScanAgree) {
  WideDomainFixture f = WideDomainFixture::Make(7);
  MinerOptions array_options;
  array_options.minsup = 0.05;  // default budget: grid fits
  MinerOptions member_options = array_options;
  member_options.counter_memory_budget_bytes = 1;
  CountingStats array_stats, member_stats;
  auto array_counts =
      CountSupports(f.table, f.catalog, f.candidates, array_options,
                    &array_stats);
  auto member_counts = CountSupports(f.table, f.catalog, f.candidates,
                                     member_options, &member_stats);
  EXPECT_GT(array_stats.num_array_counters, 0u);
  EXPECT_GT(member_stats.num_member_counters, 0u);
  EXPECT_EQ(array_counts, member_counts);
}

// Groups whose grid does not fit the counter budget are counted by member
// scans: slower per row, but bit-identical counts, and a counter_bytes
// that charges each member its count and item ids.
TEST(SupportCountingTest, MemberGroupsMatchBruteForce) {
  // Three wide-domain attributes: every attribute pair forms its own
  // super-candidate whose 40x40 grid (6.4 KB) is larger than a handful of
  // members' counts and item ids, so at a 1-byte budget all three groups
  // are member scans, and members of a group share items.
  Rng rng(13);
  std::vector<std::vector<int32_t>> rows;
  for (size_t r = 0; r < 300; ++r) {
    rows.push_back({static_cast<int32_t>(rng.UniformInt(0, 39)),
                    static_cast<int32_t>(rng.UniformInt(0, 39)),
                    static_cast<int32_t>(rng.UniformInt(0, 39))});
  }
  MappedTable table = MakeMappedTable(
      {QuantAttr("q1", 40), QuantAttr("q2", 40), QuantAttr("q3", 40)}, rows);
  MinerOptions options;
  options.minsup = 0.05;
  options.max_support = 0.30;
  options.counter_memory_budget_bytes = 1;  // grids never fit
  ItemCatalog catalog = ItemCatalog::Build(table, options);
  std::vector<std::vector<int32_t>> by_attr(3);
  for (size_t i = 0; i < catalog.num_items(); ++i) {
    by_attr[static_cast<size_t>(catalog.item(static_cast<int32_t>(i)).attr)]
        .push_back(static_cast<int32_t>(i));
  }
  ItemsetSet c2(2);
  for (size_t a = 0; a < 3; ++a) {
    const std::vector<int32_t>& first = by_attr[a];
    const std::vector<int32_t>& second = by_attr[(a + 1) % 3];
    ASSERT_FALSE(first.empty());
    ASSERT_FALSE(second.empty());
    for (size_t i = 0; i < first.size() && i < 3; ++i) {
      for (size_t j = 0; j < second.size() && j < 3; ++j) {
        // Itemsets are sorted by item id.
        if (first[i] < second[j]) {
          c2.AppendVector({first[i], second[j]});
        } else {
          c2.AppendVector({second[j], first[i]});
        }
      }
    }
  }
  ASSERT_GT(c2.size(), 0u);

  CountingStats stats;
  std::vector<uint32_t> counts =
      CountSupports(table, catalog, c2, options, &stats);
  // Every group is a member scan, charged a uint32 count and two int32 item
  // ids per member.
  EXPECT_EQ(stats.num_member_counters, 3u);
  EXPECT_EQ(stats.num_array_counters, 0u);
  EXPECT_EQ(stats.counter_bytes, c2.size() * (4 + 4 * 2));
  for (size_t c = 0; c < c2.size(); ++c) {
    EXPECT_EQ(counts[c],
              BruteForceSupport(table, catalog.Decode(c2.itemset_vector(c))))
        << "candidate " << c;
  }

  // The sharded parallel scan adds the member counters of its shards.
  MinerOptions parallel_options = options;
  parallel_options.num_threads = 4;
  CountingStats parallel_stats;
  std::vector<uint32_t> parallel_counts =
      CountSupports(table, catalog, c2, parallel_options, &parallel_stats);
  EXPECT_EQ(parallel_stats.num_member_counters, 3u);
  EXPECT_EQ(parallel_counts, counts);

  // An unconstrained budget produces the same counts from grids alone.
  MinerOptions roomy = options;
  roomy.counter_memory_budget_bytes = MinerOptions().counter_memory_budget_bytes;
  CountingStats roomy_stats;
  std::vector<uint32_t> roomy_counts =
      CountSupports(table, catalog, c2, roomy, &roomy_stats);
  EXPECT_EQ(roomy_stats.num_member_counters, 0u);
  EXPECT_EQ(roomy_counts, counts);
}

// Candidates spanning 16 quantitative attributes and 17. Neither counter
// is limited in dimensions: a group takes the grid when it fits and the
// member scan otherwise, so both widths must count exactly — serially and
// sharded, at the default budget and at one that rules every grid out.
TEST(SupportCountingTest, CandidateAtMaxDimsCounts) {
  for (size_t dims : {size_t{16}, size_t{17}}) {
    SCOPED_TRACE("dims=" + std::to_string(dims));
    Rng rng(17);
    std::vector<std::vector<int32_t>> rows;
    for (size_t r = 0; r < 200; ++r) {
      std::vector<int32_t> row;
      for (size_t a = 0; a < dims; ++a) {
        row.push_back(static_cast<int32_t>(rng.UniformInt(0, 1)));
      }
      rows.push_back(std::move(row));
    }
    std::vector<MappedAttribute> attrs;
    for (size_t a = 0; a < dims; ++a) {
      std::string name = "q";  // GCC 12 -Wrestrict misfires on "q" + to_string
      name += std::to_string(a);
      attrs.push_back(QuantAttr(name, 2));
    }
    MappedTable table = MakeMappedTable(attrs, rows);
    MinerOptions options;
    options.minsup = 0.0001;  // a 16-way conjunction is rare by construction
    options.max_support = 0.6;
    ItemCatalog catalog = ItemCatalog::Build(table, options);

    // One item per attribute, lowest item id first (itemsets are id-sorted).
    std::vector<int32_t> member;
    std::vector<bool> taken(dims, false);
    for (size_t i = 0; i < catalog.num_items(); ++i) {
      size_t attr =
          static_cast<size_t>(catalog.item(static_cast<int32_t>(i)).attr);
      if (!taken[attr]) {
        taken[attr] = true;
        member.push_back(static_cast<int32_t>(i));
      }
    }
    ASSERT_EQ(member.size(), dims);
    std::sort(member.begin(), member.end());
    ItemsetSet candidates(dims);
    candidates.AppendVector(member);
    const uint64_t expected = BruteForceSupport(
        table, catalog.Decode(candidates.itemset_vector(0)));

    for (uint64_t budget :
         {MinerOptions().counter_memory_budget_bytes, uint64_t{1}}) {
      SCOPED_TRACE("budget=" + std::to_string(budget));
      MinerOptions run = options;
      run.counter_memory_budget_bytes = budget;
      CountingStats stats;
      std::vector<uint32_t> counts =
          CountSupports(table, catalog, candidates, run, &stats);
      ASSERT_EQ(counts.size(), 1u);
      EXPECT_EQ(counts[0], expected);
      if (budget == 1) {
        // No grid fits: both widths count by member scan.
        EXPECT_EQ(stats.num_member_counters, 1u);
        EXPECT_EQ(stats.num_array_counters, 0u);
      } else {
        EXPECT_EQ(stats.num_array_counters, 1u);
      }

      run.num_threads = 4;
      std::vector<uint32_t> parallel_counts =
          CountSupports(table, catalog, candidates, run, nullptr);
      EXPECT_EQ(parallel_counts, counts);
    }
  }
}

TEST(SupportCountingTest, EmptyCandidates) {
  MappedTable table = RandomTable(8, 50);
  MinerOptions options;
  ItemCatalog catalog = ItemCatalog::Build(table, options);
  ItemsetSet empty(2);
  CountingStats stats;
  auto counts = CountSupports(table, catalog, empty, options, &stats);
  EXPECT_TRUE(counts.empty());
}

// --- Brute-force oracle sweep. ---
// Generated schemas that steer the counting pass into each of its regimes,
// checked candidate by candidate against BruteForceSupport under every
// kernel table the CPU supports, at 1 and 4 threads, over the in-memory
// table and over the same rows written to a QBT file.
struct OracleScenario {
  std::string name;
  std::function<MappedTable()> make_table;
  double minsup = 0.05;
  double max_support = 0.5;
  uint64_t counter_budget = MinerOptions().counter_memory_budget_bytes;
  size_t max_level = 3;
  // Keep every stride-th candidate of each level (1 = all): sparse groups
  // have few members, which is what makes the member scan smaller than the
  // grid.
  size_t candidate_stride = 1;
  // Checked on the serial level-2 pass, so each scenario provably reaches
  // the regime it is named for.
  std::function<void(const CountingStats&)> check_level2;
};

// A categorical attribute generalized by a taxonomy: its interior nodes are
// contiguous leaf ranges, which makes it a ranged attribute — a rectangle
// dimension of the counting pass instead of a per-value item.
MappedAttribute TaxonomyAttr(const std::string& name,
                             std::vector<std::string> labels,
                             std::vector<Taxonomy::NodeRange> ranges) {
  MappedAttribute attr = CatAttr(name, std::move(labels));
  attr.taxonomy_ranges = std::move(ranges);
  return attr;
}

std::vector<std::string> Labels(size_t n) {
  std::vector<std::string> labels;
  for (size_t v = 0; v < n; ++v) {
    std::string label = "v";
    label += std::to_string(v);
    labels.push_back(std::move(label));
  }
  return labels;
}

// Rows drawn uniformly from each attribute's domain; each value is missing
// with probability 1/missing_one_in (0 = never).
MappedTable UniformTable(uint64_t seed, size_t num_rows,
                         std::vector<MappedAttribute> attrs,
                         int64_t missing_one_in) {
  Rng rng(seed);
  std::vector<std::vector<int32_t>> rows;
  for (size_t r = 0; r < num_rows; ++r) {
    std::vector<int32_t> row;
    for (const MappedAttribute& attr : attrs) {
      int32_t v = static_cast<int32_t>(rng.UniformInt(
          0, static_cast<int64_t>(attr.domain_size()) - 1));
      if (missing_one_in > 0 && rng.UniformInt(0, missing_one_in - 1) == 0) {
        v = kMissingValue;
      }
      row.push_back(v);
    }
    rows.push_back(std::move(row));
  }
  return MakeMappedTable(std::move(attrs), rows);
}

std::vector<OracleScenario> OracleScenarios() {
  std::vector<OracleScenario> scenarios;
  {
    // Four categorical attributes x 12 values: 6 x 144 = 864 purely
    // categorical pair groups, well past the group counts where per-group
    // column sweeps would stop paying, plus categorical x quantitative
    // groups whose masks AND an item with a dimension.
    OracleScenario s;
    s.name = "WideCategorical";
    s.make_table = [] {
      return UniformTable(
          101, 1200,
          {CatAttr("c1", Labels(12)), CatAttr("c2", Labels(12)),
           QuantAttr("q1", 8), CatAttr("c3", Labels(12)),
           CatAttr("c4", Labels(12)), QuantAttr("q2", 6)},
          /*missing_one_in=*/0);
    };
    s.minsup = 0.004;
    s.max_support = 0.2;
    s.check_level2 = [](const CountingStats& stats) {
      EXPECT_GT(stats.num_direct, 512u);
      EXPECT_GT(stats.num_array_counters, 0u);
    };
    scenarios.push_back(std::move(s));
  }
  {
    // A taxonomy (a ranged categorical attribute) beside quantitative and
    // plain categorical ones, with missing values in every attribute.
    OracleScenario s;
    s.name = "TaxonomyAndMissing";
    s.make_table = [] {
      return UniformTable(
          202, 900,
          {QuantAttr("balance", 12),
           TaxonomyAttr("region", {"north", "south", "east", "west"},
                        {{"any", 0, 3}, {"vertical", 0, 1}}),
           CatAttr("status", {"single", "married", "divorced"}),
           QuantAttr("age", 9), CatAttr("employed", {"yes", "no"})},
          /*missing_one_in=*/15);
    };
    s.minsup = 0.05;
    s.max_support = 0.6;
    s.check_level2 = [](const CountingStats& stats) {
      EXPECT_GT(stats.num_direct, 0u);
      EXPECT_GT(stats.num_array_counters, 0u);
    };
    scenarios.push_back(std::move(s));
  }
  // Wide quantitative domains with a categorical attribute and missing
  // values; sampled candidates leave each group few members, so a small
  // counter budget counts groups by member scan. With a small stride the
  // members of a group share items, and so share their range masks.
  auto wide_quant = [] {
    return UniformTable(
        303, 600,
        {QuantAttr("q1", 40), CatAttr("c", {"a", "b", "c"}),
         QuantAttr("q2", 40), QuantAttr("q3", 36)},
        /*missing_one_in=*/20);
  };
  {
    OracleScenario s;
    s.name = "MemberBudget";
    s.make_table = wide_quant;
    s.minsup = 0.02;
    s.max_support = 0.12;
    s.counter_budget = 4 << 10;  // no 40 x 40 grid fits
    s.candidate_stride = 97;
    s.check_level2 = [](const CountingStats& stats) {
      EXPECT_GT(stats.num_member_counters, 0u);
    };
    scenarios.push_back(std::move(s));
  }
  {
    OracleScenario s;
    s.name = "DegradedBudget";
    s.make_table = wide_quant;
    s.minsup = 0.02;
    s.max_support = 0.12;
    s.counter_budget = 1;
    s.candidate_stride = 211;
    s.check_level2 = [](const CountingStats& stats) {
      EXPECT_GT(stats.num_member_counters, 0u);
    };
    scenarios.push_back(std::move(s));
  }
  {
    // Small domains and every candidate kept: each grid is smaller than
    // its many members' counts and item ids, so a 1-byte budget still
    // counts every group on a dense grid.
    OracleScenario s;
    s.name = "ArrayOverBudget";
    s.make_table = [] {
      return UniformTable(
          404, 500,
          {QuantAttr("q1", 5), CatAttr("c", {"a", "b"}), QuantAttr("q2", 4),
           QuantAttr("q3", 4)},
          /*missing_one_in=*/0);
    };
    s.minsup = 0.05;
    s.max_support = 0.5;
    s.counter_budget = 1;
    s.check_level2 = [](const CountingStats& stats) {
      EXPECT_GT(stats.num_array_counters, 0u);
      EXPECT_EQ(stats.num_member_counters, 0u);
    };
    scenarios.push_back(std::move(s));
  }
  return scenarios;
}

void PrintTo(const OracleScenario& scenario, std::ostream* os) {
  *os << scenario.name;
}

ItemsetSet EveryStride(const ItemsetSet& candidates, size_t stride) {
  ItemsetSet kept(candidates.k());
  for (size_t c = 0; c < candidates.size(); c += stride) {
    kept.Append(candidates.itemset(c));
  }
  return kept;
}

class SupportCountingOracleTest
    : public ::testing::TestWithParam<OracleScenario> {
 protected:
  void TearDown() override { ClearIsaForTest(); }
};

TEST_P(SupportCountingOracleTest, MatchesBruteForceEverywhere) {
  const OracleScenario& scenario = GetParam();
  const MappedTable table = scenario.make_table();
  MinerOptions options;
  options.minsup = scenario.minsup;
  options.max_support = scenario.max_support;
  options.counter_memory_budget_bytes = scenario.counter_budget;
  const ItemCatalog catalog = ItemCatalog::Build(table, options);
  ASSERT_GT(catalog.num_items(), 0u);

  // pid-unique: counting_forced_scalar reruns this suite concurrently with
  // the per-test ctest processes, and WriteQbt rewrites under a peer's mmap.
  const std::string qbt_path = ::testing::TempDir() + "/oracle_" +
                               scenario.name + "_" +
                               std::to_string(::getpid()) + ".qbt";
  QbtWriteOptions write_options;
  write_options.rows_per_block = 128;  // several blocks per scan shard
  ASSERT_TRUE(WriteQbt(table, qbt_path, write_options).ok());
  auto qbt = QbtFileSource::Open(qbt_path);
  ASSERT_TRUE(qbt.ok()) << qbt.status().ToString();

  const SimdIsa detected = DetectCpuIsa();
  const uint64_t min_count = static_cast<uint64_t>(
      scenario.minsup * static_cast<double>(table.num_rows()));
  ItemsetSet l1(1);
  for (size_t i = 0; i < catalog.num_items(); ++i) {
    l1.AppendVector({static_cast<int32_t>(i)});
  }
  ItemsetSet candidates =
      EveryStride(GenerateCandidates(catalog, l1), scenario.candidate_stride);
  for (size_t level = 2; level <= scenario.max_level && !candidates.empty();
       ++level) {
    SCOPED_TRACE("level " + std::to_string(level));
    std::vector<uint32_t> oracle(candidates.size());
    for (size_t c = 0; c < candidates.size(); ++c) {
      oracle[c] = static_cast<uint32_t>(BruteForceSupport(
          table, catalog.Decode(candidates.itemset_vector(c))));
    }

    for (SimdIsa isa : {SimdIsa::kScalar, SimdIsa::kAvx2}) {
      if (static_cast<int>(isa) > static_cast<int>(detected)) continue;
      SetIsaForTest(isa);
      for (size_t threads : {size_t{1}, size_t{4}}) {
        SCOPED_TRACE(std::string(IsaName(isa)) +
                     " threads=" + std::to_string(threads));
        MinerOptions run = options;
        run.num_threads = threads;
        CountingStats stats;
        EXPECT_EQ(CountSupports(table, catalog, candidates, run, &stats),
                  oracle)
            << "in-memory";
        EXPECT_EQ(stats.isa, isa);
        if (level == 2 && threads == 1) scenario.check_level2(stats);

        Result<std::vector<uint32_t>> streamed =
            CountSupports(**qbt, catalog, candidates, run, nullptr);
        ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
        EXPECT_EQ(*streamed, oracle) << "QBT";
      }
    }

    ItemsetSet frequent(level);
    for (size_t c = 0; c < candidates.size(); ++c) {
      if (oracle[c] >= min_count) frequent.Append(candidates.itemset(c));
    }
    candidates = EveryStride(GenerateCandidates(catalog, frequent),
                             scenario.candidate_stride);
  }
}

INSTANTIATE_TEST_SUITE_P(Schemas, SupportCountingOracleTest,
                         ::testing::ValuesIn(OracleScenarios()));

}  // namespace
}  // namespace qarm
