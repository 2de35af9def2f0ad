// Determinism of the parallel sharded counting paths: with any thread
// count, CountSupports and ItemCatalog::Build must produce counts identical
// to the serial path — on tables with missing values, taxonomies, and
// super-candidates counted through all three engines (dense grid, shared
// atomic grid, R*-tree).
#include <gtest/gtest.h>

#include <set>

#include "common/hash.h"
#include "common/random.h"
#include "core/apriori_quant.h"
#include "core/candidate_gen.h"
#include "core/frequent_items.h"
#include "core/miner.h"
#include "core/report.h"
#include "core/support_counting.h"
#include "table/datagen.h"
#include "testutil.h"

namespace qarm {
namespace {

using testutil::BruteForceSupport;
using testutil::CatAttr;
using testutil::MakeMappedTable;
using testutil::QuantAttr;

// A categorical attribute generalized by a taxonomy: interior nodes cover
// contiguous leaf ranges, which makes the attribute "ranged" and therefore
// a rectangle dimension in the counting pass.
MappedAttribute TaxonomyAttr(const std::string& name,
                             std::vector<std::string> leaves,
                             std::vector<Taxonomy::NodeRange> ranges) {
  MappedAttribute attr = CatAttr(name, std::move(leaves));
  attr.taxonomy_ranges = std::move(ranges);
  return attr;
}

// Rows over {quant(12), taxonomized cat(4), plain cat(3), quant(9),
// plain cat(2)} with a sprinkle of missing values in every attribute. The
// two plain categorical attributes guarantee purely-categorical (direct)
// super-candidates alongside the grid ones.
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

// Candidates for level 2 over everything the catalog produced.
ItemsetSet MakeLevel2Candidates(const ItemCatalog& catalog) {
  ItemsetSet l1(1);
  for (size_t i = 0; i < catalog.num_items(); ++i) {
    l1.AppendVector({static_cast<int32_t>(i)});
  }
  return GenerateCandidates(catalog, l1);
}

class ParallelCountingTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelCountingTest, ThreadedCountsMatchSerial) {
  const size_t num_threads = static_cast<size_t>(GetParam());
  MappedTable table = MixedTable(/*seed=*/17, /*num_rows=*/1200);
  MinerOptions serial_options;
  serial_options.minsup = 0.08;
  serial_options.max_support = 0.7;
  serial_options.num_threads = 1;
  ItemCatalog catalog = ItemCatalog::Build(table, serial_options);
  ItemsetSet c2 = MakeLevel2Candidates(catalog);
  ASSERT_GT(c2.size(), 0u);

  CountingStats serial_stats;
  std::vector<uint32_t> serial_counts =
      CountSupports(table, catalog, c2, serial_options, &serial_stats);
  EXPECT_EQ(serial_stats.threads_used, 1u);
  EXPECT_EQ(serial_stats.num_atomic_shared, 0u);

  MinerOptions parallel_options = serial_options;
  parallel_options.num_threads = num_threads;
  CountingStats parallel_stats;
  std::vector<uint32_t> parallel_counts =
      CountSupports(table, catalog, c2, parallel_options, &parallel_stats);
  EXPECT_EQ(parallel_stats.threads_used, num_threads);
  EXPECT_EQ(parallel_counts, serial_counts);

  // Mixed engines were actually exercised: the taxonomy and the quant
  // attributes produce grid groups, the plain categorical pairs direct ones.
  EXPECT_GT(parallel_stats.num_array_counters, 0u);
  EXPECT_GT(parallel_stats.num_direct, 0u);

  // Spot-check against brute force as well (the serial path is itself under
  // test elsewhere, but this pins the parallel path to ground truth).
  for (size_t c = 0; c < c2.size(); c += 7) {
    EXPECT_EQ(parallel_counts[c],
              BruteForceSupport(table, catalog.Decode(c2.itemset_vector(c))))
        << "candidate " << c;
  }
}

TEST_P(ParallelCountingTest, TreeEngineMatchesSerial) {
  const size_t num_threads = static_cast<size_t>(GetParam());
  // Wide quantitative domains with missing values: a handful of candidate
  // pairs makes the 48x44 grid dwarf the R*-tree estimate, so a tight budget
  // routes the group through the tree engine.
  Rng rng(23);
  std::vector<std::vector<int32_t>> rows;
  for (size_t r = 0; r < 900; ++r) {
    std::vector<int32_t> row = {static_cast<int32_t>(rng.UniformInt(0, 47)),
                                static_cast<int32_t>(rng.UniformInt(0, 43))};
    for (size_t a = 0; a < row.size(); ++a) {
      if (rng.UniformInt(0, 19) == 0) row[a] = kMissingValue;
    }
    rows.push_back(std::move(row));
  }
  MappedTable table =
      MakeMappedTable({QuantAttr("q1", 48), QuantAttr("q2", 44)}, rows);
  MinerOptions options;
  options.minsup = 0.05;
  options.max_support = 0.30;
  options.counter_memory_budget_bytes = 1;  // grids only when <= tree bytes
  options.num_threads = 1;
  ItemCatalog catalog = ItemCatalog::Build(table, options);
  std::vector<int32_t> q1_items, q2_items;
  for (size_t i = 0; i < catalog.num_items(); ++i) {
    (catalog.item(static_cast<int32_t>(i)).attr == 0 ? q1_items : q2_items)
        .push_back(static_cast<int32_t>(i));
  }
  ASSERT_GT(q1_items.size(), 0u);
  ASSERT_GT(q2_items.size(), 0u);
  ItemsetSet c2(2);
  for (size_t i = 0; i < q1_items.size() && i < 5; ++i) {
    for (size_t j = 0; j < q2_items.size() && j < 4; ++j) {
      c2.AppendVector({q1_items[i * q1_items.size() / 5],
                       q2_items[j * q2_items.size() / 4]});
    }
  }
  ASSERT_GT(c2.size(), 0u);

  CountingStats serial_stats;
  std::vector<uint32_t> serial_counts =
      CountSupports(table, catalog, c2, options, &serial_stats);
  EXPECT_GT(serial_stats.num_tree_counters, 0u);

  options.num_threads = num_threads;
  CountingStats parallel_stats;
  std::vector<uint32_t> parallel_counts =
      CountSupports(table, catalog, c2, options, &parallel_stats);
  EXPECT_GT(parallel_stats.num_tree_counters, 0u);
  EXPECT_EQ(parallel_counts, serial_counts);
}

TEST_P(ParallelCountingTest, AtomicSharedGridsMatchSerial) {
  const size_t num_threads = static_cast<size_t>(GetParam());
  MappedTable table = MixedTable(/*seed=*/31, /*num_rows=*/1000);
  MinerOptions options;
  options.minsup = 0.08;
  options.max_support = 0.7;
  options.num_threads = 1;
  ItemCatalog catalog = ItemCatalog::Build(table, options);
  ItemsetSet c2 = MakeLevel2Candidates(catalog);
  ASSERT_GT(c2.size(), 0u);
  std::vector<uint32_t> serial_counts =
      CountSupports(table, catalog, c2, options, nullptr);

  // No replication budget: every grid group must fall back to the shared
  // atomic mode, and the counts must still be exact.
  options.num_threads = num_threads;
  options.parallel_replication_budget_bytes = 0;
  CountingStats stats;
  std::vector<uint32_t> parallel_counts =
      CountSupports(table, catalog, c2, options, &stats);
  if (num_threads > 1) {
    EXPECT_GT(stats.num_atomic_shared, 0u);
    EXPECT_EQ(stats.num_atomic_shared, stats.num_array_counters);
    EXPECT_EQ(stats.replicated_bytes, 0u);
  }
  EXPECT_EQ(parallel_counts, serial_counts);
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelCountingTest,
                         ::testing::Values(2, 4, 8));

TEST(ParallelCountingTest, CumulativeBudgetBoundsGridMemory) {
  MappedTable table = MixedTable(/*seed=*/41, /*num_rows=*/600);
  MinerOptions options;
  options.minsup = 0.05;
  options.max_support = 0.8;
  ItemCatalog catalog = ItemCatalog::Build(table, options);
  ItemsetSet c2 = MakeLevel2Candidates(catalog);
  ASSERT_GT(c2.size(), 0u);

  CountingStats stats;
  CountSupports(table, catalog, c2, options, &stats);
  // The pass records how much counter memory it used, and under the default
  // budget the dense grids must respect it cumulatively.
  EXPECT_GT(stats.counter_bytes, 0u);
  EXPECT_LE(stats.counter_bytes, options.counter_memory_budget_bytes);
}

TEST(ParallelCountingTest, CatalogBuildMatchesSerial) {
  MappedTable table = MixedTable(/*seed=*/53, /*num_rows=*/1500);
  MinerOptions serial_options;
  serial_options.minsup = 0.06;
  serial_options.num_threads = 1;
  ItemCatalog serial = ItemCatalog::Build(table, serial_options);

  for (size_t threads : {2u, 4u, 8u}) {
    MinerOptions options = serial_options;
    options.num_threads = threads;
    ItemCatalog parallel = ItemCatalog::Build(table, options);
    ASSERT_EQ(parallel.num_items(), serial.num_items());
    for (size_t i = 0; i < serial.num_items(); ++i) {
      const int32_t id = static_cast<int32_t>(i);
      EXPECT_EQ(parallel.item(id), serial.item(id));
      EXPECT_EQ(parallel.item_count(id), serial.item_count(id));
    }
    for (size_t a = 0; a < table.num_attributes(); ++a) {
      EXPECT_EQ(parallel.value_counts(a), serial.value_counts(a));
    }
  }
}

TEST(ParallelCountingTest, EndToEndMinerMatchesSerial) {
  Table data = MakeFinancialDataset(3000, /*seed=*/9);
  MinerOptions serial_options;
  serial_options.minsup = 0.15;
  serial_options.minconf = 0.3;
  serial_options.partial_completeness = 2.5;
  serial_options.num_threads = 1;
  QuantitativeRuleMiner serial_miner(serial_options);
  Result<MiningResult> serial = serial_miner.Mine(data);
  ASSERT_TRUE(serial.ok());

  MinerOptions parallel_options = serial_options;
  parallel_options.num_threads = 4;
  QuantitativeRuleMiner parallel_miner(parallel_options);
  Result<MiningResult> parallel = parallel_miner.Mine(data);
  ASSERT_TRUE(parallel.ok());

  ASSERT_EQ(parallel->frequent_itemsets.size(),
            serial->frequent_itemsets.size());
  for (size_t i = 0; i < serial->frequent_itemsets.size(); ++i) {
    EXPECT_EQ(parallel->frequent_itemsets[i].count,
              serial->frequent_itemsets[i].count);
  }
  ASSERT_EQ(parallel->rules.size(), serial->rules.size());
  for (size_t i = 0; i < serial->rules.size(); ++i) {
    EXPECT_EQ(RuleToJson(parallel->rules[i], parallel->mapped),
              RuleToJson(serial->rules[i], serial->mapped));
  }
  EXPECT_EQ(parallel->stats.num_threads, 4u);
}

// --- Group-key hash ----------------------------------------------------------

// Super-candidate group keys live in a PackedKeyTable, which hashes them
// with HashInt32Words and masks the hash with its power-of-two slot count.
size_t GroupKeyHash(const std::vector<int32_t>& key) {
  return static_cast<size_t>(HashInt32Words(key.data(), key.size()));
}

TEST(GroupKeyHashTest, QuantAttrAndCategoricalIdKeysDiffer) {
  const auto hash = GroupKeyHash;
  // {a, -1} encodes "quantitative attribute a, no categorical items";
  // {-1, a} encodes "no quantitative attributes, categorical item id a".
  // These denote different super-candidates for every a and must not
  // collide structurally.
  for (int32_t a = 0; a < 512; ++a) {
    EXPECT_NE(hash({a, -1}), hash({-1, a})) << "a=" << a;
  }
}

TEST(GroupKeyHashTest, NoCollisionsAcrossRealisticKeys) {
  const auto hash = GroupKeyHash;
  std::set<size_t> hashes;
  size_t num_keys = 0;
  // Keys shaped like real group keys: one or two small attr indices, the
  // separator, zero or two small item ids — the regime where attr indices
  // and item ids draw from the same handful of small integers.
  for (int32_t a = 0; a < 12; ++a) {
    for (int32_t b = a + 1; b < 12; ++b) {
      hashes.insert(hash({a, b, -1}));
      ++num_keys;
      for (int32_t x = 0; x < 12; ++x) {
        hashes.insert(hash({a, -1, b * 12 + x}));
        hashes.insert(hash({-1, a, b * 12 + x}));
        num_keys += 2;
      }
    }
  }
  EXPECT_EQ(hashes.size(), num_keys);
}

TEST(GroupKeyHashTest, LowBitsAreMixed) {
  // The table masks the hash with its slot count, so the *low* bits
  // must already be well distributed. Bucket 1024 sequential single-attr
  // keys by their lowest 6 bits and require every bucket to be hit (a
  // uniform hash misses a given bucket with probability (63/64)^1024,
  // i.e. never in practice; raw FNV-1a without the finalizer fails this).
  const auto hash = GroupKeyHash;
  std::vector<int> buckets(64, 0);
  for (int32_t a = 0; a < 1024; ++a) {
    ++buckets[hash({a, -1}) & 63];
  }
  for (int b = 0; b < 64; ++b) {
    EXPECT_GT(buckets[b], 0) << "bucket " << b << " never hit";
  }
}

}  // namespace
}  // namespace qarm
