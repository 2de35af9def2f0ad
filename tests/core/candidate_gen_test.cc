#include "core/candidate_gen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "testutil.h"

namespace qarm {
namespace {

using testutil::CatAttr;
using testutil::MakeMappedTable;
using testutil::QuantAttr;

// Builds a catalog over a small table designed so the frequent items are
// predictable: married (2 values), age over 4 values, cars over 3 values.
struct Fixture {
  MappedTable table;
  ItemCatalog catalog;

  static Fixture Make() {
    // Rows chosen so every single value has >= 20% support.
    std::vector<std::vector<int32_t>> rows = {
        {0, 0, 0}, {0, 0, 1}, {1, 1, 1}, {1, 1, 2},
        {2, 0, 0}, {2, 1, 1}, {3, 0, 2}, {3, 1, 0},
        {0, 0, 0}, {3, 1, 2},
    };
    MappedTable table = MakeMappedTable(
        {QuantAttr("age", 4), CatAttr("married", {"no", "yes"}),
         QuantAttr("cars", 3)},
        rows);
    MinerOptions options;
    options.minsup = 0.2;
    options.max_support = 0.5;
    ItemCatalog catalog = ItemCatalog::Build(table, options);
    return Fixture{std::move(table), std::move(catalog)};
  }
};

TEST(ItemsetSetTest, FlatStorage) {
  ItemsetSet set(2);
  set.AppendVector({1, 5});
  set.AppendVector({2, 3});
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(set.itemset_vector(1), (std::vector<int32_t>{2, 3}));
  EXPECT_FALSE(set.empty());
}

TEST(CandidateGenTest, PairsSkipSameAttribute) {
  Fixture f = Fixture::Make();
  ItemsetSet l1(1);
  for (size_t i = 0; i < f.catalog.num_items(); ++i) {
    l1.AppendVector({static_cast<int32_t>(i)});
  }
  ItemsetSet c2 = GenerateCandidates(f.catalog, l1);
  EXPECT_GT(c2.size(), 0u);
  for (size_t c = 0; c < c2.size(); ++c) {
    const int32_t* ids = c2.itemset(c);
    EXPECT_LT(ids[0], ids[1]);
    EXPECT_NE(f.catalog.item(ids[0]).attr, f.catalog.item(ids[1]).attr);
  }
  // Every cross-attribute pair must be present: count them.
  size_t expected = 0;
  for (size_t i = 0; i < f.catalog.num_items(); ++i) {
    for (size_t j = i + 1; j < f.catalog.num_items(); ++j) {
      if (f.catalog.item(static_cast<int32_t>(i)).attr !=
          f.catalog.item(static_cast<int32_t>(j)).attr) {
        ++expected;
      }
    }
  }
  EXPECT_EQ(c2.size(), expected);
}

TEST(CandidateGenTest, PaperJoinExample) {
  // Section 5.1's example, transcribed to ids. Frequent 2-itemsets:
  //   {Married:Yes, Age:20..24}, {Married:Yes, Age:20..29},
  //   {Married:Yes, Cars:0..1}, {Age:20..29, Cars:0..1}.
  // Join gives {Married:Yes, Age:20..24, Cars:0..1} and
  // {Married:Yes, Age:20..29, Cars:0..1}; the first is pruned because
  // {Age:20..24, Cars:0..1} is not frequent.
  //
  // We emulate with a catalog where:
  //   item ids by attribute: age(0): 20..24 -> a1, 20..29 -> a2;
  //   married(1): yes -> m; cars(2): 0..1 -> c.
  // Build a tiny table so these exact items exist.
  std::vector<std::vector<int32_t>> rows = {
      {0, 1, 0}, {1, 1, 1}, {0, 1, 1}, {1, 0, 2}, {0, 0, 0},
  };
  MappedTable table = MakeMappedTable(
      {QuantAttr("age", 2), CatAttr("married", {"no", "yes"}),
       QuantAttr("cars", 3)},
      rows);
  MinerOptions options;
  options.minsup = 0.2;
  options.max_support = 1.0;
  ItemCatalog catalog = ItemCatalog::Build(table, options);

  auto id_of = [&](int32_t attr, int32_t lo, int32_t hi) {
    for (size_t i = 0; i < catalog.num_items(); ++i) {
      const RangeItem& item = catalog.item(static_cast<int32_t>(i));
      if (item.attr == attr && item.lo == lo && item.hi == hi) {
        return static_cast<int32_t>(i);
      }
    }
    ADD_FAILURE() << "item not found: " << attr << " " << lo << " " << hi;
    return -1;
  };
  int32_t a1 = id_of(0, 0, 0);   // age 20..24
  int32_t a2 = id_of(0, 0, 1);   // age 20..29
  int32_t m = id_of(1, 1, 1);    // married yes
  int32_t c = id_of(2, 0, 1);    // cars 0..1

  // L2 in lexicographic id order (ids: age < married < cars by attr).
  ItemsetSet l2(2);
  std::vector<std::vector<int32_t>> sets = {
      {a1, m}, {a2, m}, {m, c}, {a2, c}};
  for (auto& s : sets) std::sort(s.begin(), s.end());
  std::sort(sets.begin(), sets.end());
  for (const auto& s : sets) l2.AppendVector(s);

  ItemsetSet c3 = GenerateCandidates(catalog, l2);
  ASSERT_EQ(c3.size(), 1u);
  std::vector<int32_t> expected = {a2, m, c};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(c3.itemset_vector(0), expected);
}

// apriori-gen by brute force, independent of the engine's run index: join
// every pair of L_{k-1} that shares its (k-2)-prefix and whose last items'
// attributes differ, keep the candidates whose every (k-1)-subset is in
// L_{k-1}, and sort them.
std::vector<std::vector<int32_t>> BruteForceAprioriGen(
    const ItemCatalog& catalog, const ItemsetSet& frequent) {
  const size_t km1 = frequent.k();
  std::set<std::vector<int32_t>> level;
  for (size_t i = 0; i < frequent.size(); ++i) {
    level.insert(frequent.itemset_vector(i));
  }
  std::vector<std::vector<int32_t>> out;
  for (const std::vector<int32_t>& a : level) {
    for (const std::vector<int32_t>& b : level) {
      if (!(a < b) || !std::equal(a.begin(), a.end() - 1, b.begin()) ||
          catalog.item(a.back()).attr == catalog.item(b.back()).attr) {
        continue;
      }
      std::vector<int32_t> candidate = a;
      candidate.push_back(b.back());
      bool all_frequent = true;
      for (size_t skip = 0; all_frequent && skip <= km1; ++skip) {
        std::vector<int32_t> subset = candidate;
        subset.erase(subset.begin() + static_cast<std::ptrdiff_t>(skip));
        all_frequent = level.count(subset) > 0;
      }
      if (all_frequent) out.push_back(std::move(candidate));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Random attribute-sorted levels L_{k-1} for k = 3..6 over 7 categorical
// attributes of 3 values each: every (k-1)-itemset with one item per
// attribute is drawn with probability `density`, and about one prefix run
// in five is cut to its first itemset, so the level has single-itemset
// runs and joined candidates whose subsets' prefix runs are missing. The
// engine must return the oracle's candidates in its order at 1 and 4
// threads.
TEST(CandidateGenTest, MatchesBruteForceOracle) {
  constexpr int32_t kAttrs = 7;
  constexpr int32_t kValues = 3;
  std::vector<MappedAttribute> attrs;
  for (int32_t a = 0; a < kAttrs; ++a) {
    attrs.push_back(CatAttr(std::string(1, static_cast<char>('a' + a)),
                            {"x", "y", "z"}));
  }
  std::vector<std::vector<int32_t>> rows;
  for (int32_t v = 0; v < kValues; ++v) {
    rows.push_back(std::vector<int32_t>(kAttrs, v));
  }
  MinerOptions options;
  options.minsup = 0.2;
  options.max_support = 1.0;
  const ItemCatalog catalog =
      ItemCatalog::Build(MakeMappedTable(attrs, rows), options);
  ASSERT_EQ(catalog.num_items(), static_cast<size_t>(kAttrs * kValues));
  std::vector<std::vector<int32_t>> items_of(kAttrs);
  for (size_t id = 0; id < catalog.num_items(); ++id) {
    items_of[static_cast<size_t>(catalog.item(static_cast<int32_t>(id)).attr)]
        .push_back(static_cast<int32_t>(id));
  }

  for (size_t k = 3; k <= 6; ++k) {
    for (double density : {0.35, 0.8}) {
      Rng rng(k * 100 + static_cast<uint64_t>(density * 10));
      // Every attribute subset of size k-1 and every item choice on it.
      std::vector<std::vector<int32_t>> level;
      for (uint32_t attr_mask = 0; attr_mask < (1u << kAttrs); ++attr_mask) {
        if (static_cast<size_t>(__builtin_popcount(attr_mask)) != k - 1) {
          continue;
        }
        std::vector<size_t> chosen;
        for (int32_t a = 0; a < kAttrs; ++a) {
          if (attr_mask & (1u << a)) chosen.push_back(static_cast<size_t>(a));
        }
        std::vector<size_t> digit(k - 1, 0);
        while (true) {
          if (rng.Bernoulli(density)) {
            std::vector<int32_t> itemset;
            for (size_t p = 0; p < k - 1; ++p) {
              itemset.push_back(items_of[chosen[p]][digit[p]]);
            }
            level.push_back(std::move(itemset));
          }
          size_t p = k - 1;
          while (p > 0 && ++digit[p - 1] == static_cast<size_t>(kValues)) {
            digit[--p] = 0;
          }
          if (p == 0) break;
        }
      }
      std::sort(level.begin(), level.end());
      // Cut about one prefix run in five down to its first itemset.
      std::vector<std::vector<int32_t>> cut;
      for (size_t i = 0; i < level.size();) {
        size_t end = i + 1;
        while (end < level.size() &&
               std::equal(level[i].begin(), level[i].end() - 1,
                          level[end].begin())) {
          ++end;
        }
        const size_t keep = rng.Bernoulli(0.2) ? i + 1 : end;
        cut.insert(cut.end(), level.begin() + i, level.begin() + keep);
        i = end;
      }
      level = std::move(cut);
      ItemsetSet frequent(k - 1);
      for (const auto& itemset : level) frequent.AppendVector(itemset);

      // The level exercises the edge cases named above.
      size_t single_runs = 0;
      for (size_t i = 0; i < level.size(); ++i) {
        auto same_prefix = [&](size_t j) {
          return std::equal(level[i].begin(), level[i].end() - 1,
                            level[j].begin());
        };
        if ((i == 0 || !same_prefix(i - 1)) &&
            (i + 1 == level.size() || !same_prefix(i + 1))) {
          ++single_runs;
        }
      }
      std::set<std::vector<int32_t>> prefixes;
      for (const auto& itemset : level) {
        prefixes.emplace(itemset.begin(), itemset.end() - 1);
      }
      // Prefixes "itemset without position s" (s < k-2) that no run has.
      size_t missing_prefixes = 0;
      for (const auto& itemset : level) {
        for (size_t skip = 0; skip + 1 < itemset.size(); ++skip) {
          std::vector<int32_t> prefix = itemset;
          prefix.erase(prefix.begin() + static_cast<std::ptrdiff_t>(skip));
          missing_prefixes += prefixes.count(prefix) == 0 ? 1 : 0;
        }
      }
      EXPECT_GT(single_runs, 0u) << "k=" << k << " density=" << density;
      EXPECT_GT(missing_prefixes, 0u) << "k=" << k << " density=" << density;

      const std::vector<std::vector<int32_t>> want =
          BruteForceAprioriGen(catalog, frequent);
      EXPECT_GT(want.size(), 0u) << "k=" << k << " density=" << density;
      for (size_t threads : {size_t{1}, size_t{4}}) {
        CandidateGenStats stats;
        const ItemsetSet got =
            GenerateCandidates(catalog, frequent, threads, &stats);
        ASSERT_EQ(got.size(), want.size())
            << "k=" << k << " density=" << density << " threads=" << threads;
        for (size_t c = 0; c < got.size(); ++c) {
          ASSERT_EQ(got.itemset_vector(c), want[c])
              << "candidate " << c << " at k=" << k << " threads=" << threads;
        }
        EXPECT_EQ(stats.peak_materialized, want.size());
        EXPECT_GT(stats.join_candidates, want.size());
      }
    }
  }
}

TEST(CandidateGenTest, EmptyInput) {
  Fixture f = Fixture::Make();
  ItemsetSet empty(2);
  EXPECT_TRUE(GenerateCandidates(f.catalog, empty).empty());
}

TEST(CandidateGenTest, CandidatesAreSorted) {
  Fixture f = Fixture::Make();
  ItemsetSet l1(1);
  for (size_t i = 0; i < f.catalog.num_items(); ++i) {
    l1.AppendVector({static_cast<int32_t>(i)});
  }
  ItemsetSet c2 = GenerateCandidates(f.catalog, l1);
  for (size_t c = 1; c < c2.size(); ++c) {
    EXPECT_TRUE(c2.itemset_vector(c - 1) < c2.itemset_vector(c));
  }
}

}  // namespace
}  // namespace qarm
