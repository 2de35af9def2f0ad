#include "index/hash_tree.h"

#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace qarm {
namespace {

std::vector<int32_t> FoundSubsets(const HashTree& tree,
                                  const std::vector<int32_t>& transaction) {
  std::vector<int32_t> found;
  tree.ForEachSubset(transaction, [&](int32_t id) { found.push_back(id); });
  std::sort(found.begin(), found.end());
  return found;
}

TEST(HashTreeTest, SingleItemset) {
  HashTree tree;
  tree.Insert(std::vector<int32_t>{1, 3, 5}, 0);
  EXPECT_EQ(FoundSubsets(tree, {1, 2, 3, 4, 5}), (std::vector<int32_t>{0}));
  EXPECT_EQ(FoundSubsets(tree, {1, 3}), (std::vector<int32_t>{}));
  EXPECT_EQ(FoundSubsets(tree, {1, 3, 5}), (std::vector<int32_t>{0}));
}

TEST(HashTreeTest, EmptyItemsetMatchesEverything) {
  HashTree tree;
  tree.Insert(std::vector<int32_t>{}, 0);
  EXPECT_EQ(FoundSubsets(tree, {}), (std::vector<int32_t>{0}));
  EXPECT_EQ(FoundSubsets(tree, {4, 9}), (std::vector<int32_t>{0}));
}

TEST(HashTreeTest, DuplicateItemsetsDistinctIds) {
  HashTree tree;
  tree.Insert(std::vector<int32_t>{2, 4}, 0);
  tree.Insert(std::vector<int32_t>{2, 4}, 1);
  EXPECT_EQ(FoundSubsets(tree, {1, 2, 3, 4}), (std::vector<int32_t>{0, 1}));
}

TEST(HashTreeTest, NoDoubleReporting) {
  // A transaction with many items can reach the same leaf through several
  // paths; each contained itemset must be reported exactly once.
  HashTree tree(/*leaf_capacity=*/1, /*fanout=*/2);
  tree.Insert(std::vector<int32_t>{1, 2}, 0);
  tree.Insert(std::vector<int32_t>{1, 3}, 1);
  tree.Insert(std::vector<int32_t>{2, 3}, 2);
  std::vector<int32_t> count_per_id(3, 0);
  tree.ForEachSubset(std::vector<int32_t>{1, 2, 3, 4, 5, 6},
                     [&](int32_t id) { ++count_per_id[id]; });
  EXPECT_EQ(count_per_id, (std::vector<int32_t>{1, 1, 1}));
}

TEST(HashTreeTest, VariableLengthItemsets) {
  HashTree tree(/*leaf_capacity=*/2, /*fanout=*/4);
  tree.Insert(std::vector<int32_t>{7}, 0);
  tree.Insert(std::vector<int32_t>{7, 8}, 1);
  tree.Insert(std::vector<int32_t>{7, 8, 9}, 2);
  tree.Insert(std::vector<int32_t>{1}, 3);
  EXPECT_EQ(FoundSubsets(tree, {7, 8}), (std::vector<int32_t>{0, 1}));
  EXPECT_EQ(FoundSubsets(tree, {7, 8, 9}), (std::vector<int32_t>{0, 1, 2}));
  EXPECT_EQ(FoundSubsets(tree, {1, 7}), (std::vector<int32_t>{0, 3}));
}

TEST(HashTreeTest, SplittingPreservesResults) {
  // Force many splits with a tiny leaf capacity.
  HashTree tree(/*leaf_capacity=*/1, /*fanout=*/3);
  std::vector<std::vector<int32_t>> itemsets;
  for (int32_t a = 0; a < 6; ++a) {
    for (int32_t b = a + 1; b < 6; ++b) {
      itemsets.push_back({a, b});
    }
  }
  for (size_t i = 0; i < itemsets.size(); ++i) {
    tree.Insert(itemsets[i], static_cast<int32_t>(i));
  }
  // Transaction {0,2,4}: subsets are {0,2},{0,4},{2,4}.
  std::vector<int32_t> expected;
  for (size_t i = 0; i < itemsets.size(); ++i) {
    const auto& s = itemsets[i];
    std::vector<int32_t> t = {0, 2, 4};
    if (std::includes(t.begin(), t.end(), s.begin(), s.end())) {
      expected.push_back(static_cast<int32_t>(i));
    }
  }
  EXPECT_EQ(FoundSubsets(tree, {0, 2, 4}), expected);
}

class HashTreeRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(HashTreeRandomTest, MatchesBruteForce) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  const int32_t universe = 30;
  HashTree tree(/*leaf_capacity=*/3, /*fanout=*/5);

  // Random itemsets of sizes 1..4.
  std::vector<std::vector<int32_t>> itemsets;
  for (int i = 0; i < 60; ++i) {
    std::set<int32_t> s;
    size_t size = static_cast<size_t>(rng.UniformInt(1, 4));
    while (s.size() < size) {
      s.insert(static_cast<int32_t>(rng.UniformInt(0, universe - 1)));
    }
    itemsets.emplace_back(s.begin(), s.end());
  }
  for (size_t i = 0; i < itemsets.size(); ++i) {
    tree.Insert(itemsets[i], static_cast<int32_t>(i));
  }

  for (int t = 0; t < 50; ++t) {
    std::set<int32_t> txn_set;
    size_t size = static_cast<size_t>(rng.UniformInt(0, 12));
    while (txn_set.size() < size) {
      txn_set.insert(static_cast<int32_t>(rng.UniformInt(0, universe - 1)));
    }
    std::vector<int32_t> txn(txn_set.begin(), txn_set.end());

    std::vector<int32_t> expected;
    for (size_t i = 0; i < itemsets.size(); ++i) {
      if (std::includes(txn.begin(), txn.end(), itemsets[i].begin(),
                        itemsets[i].end())) {
        expected.push_back(static_cast<int32_t>(i));
      }
    }
    EXPECT_EQ(FoundSubsets(tree, txn), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HashTreeRandomTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// The caller-owned-scratch overload is the one concurrent probers use (the
// sharded Apriori scan gives each worker its own scratch). One scratch
// reused across many probes must report exactly what the internal-scratch
// overload reports: its generation stamps may never leak between probes.
TEST_P(HashTreeRandomTest, CallerScratchMatchesInternal) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 100 + 7);
  const int32_t universe = 24;
  HashTree tree(/*leaf_capacity=*/2, /*fanout=*/3);
  for (int i = 0; i < 50; ++i) {
    std::set<int32_t> s;
    size_t size = static_cast<size_t>(rng.UniformInt(1, 4));
    while (s.size() < size) {
      s.insert(static_cast<int32_t>(rng.UniformInt(0, universe - 1)));
    }
    tree.Insert(std::vector<int32_t>(s.begin(), s.end()),
                static_cast<int32_t>(i));
  }

  HashTree::SubsetScratch scratch;
  for (int t = 0; t < 40; ++t) {
    std::set<int32_t> txn_set;
    size_t size = static_cast<size_t>(rng.UniformInt(0, 10));
    while (txn_set.size() < size) {
      txn_set.insert(static_cast<int32_t>(rng.UniformInt(0, universe - 1)));
    }
    std::vector<int32_t> txn(txn_set.begin(), txn_set.end());
    std::vector<int32_t> found;
    tree.ForEachSubset(
        txn, [&](int32_t id) { found.push_back(id); }, &scratch);
    std::sort(found.begin(), found.end());
    EXPECT_EQ(found, FoundSubsets(tree, txn));
  }
}

}  // namespace
}  // namespace qarm
