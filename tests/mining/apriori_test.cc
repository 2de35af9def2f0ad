#include "mining/apriori.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "mining/basket_gen.h"
#include "testutil.h"

namespace qarm {
namespace {

using testutil::BruteForceFrequent;
using testutil::Sorted;

TEST(MinSupportCountTest, RoundsUpWithToleranceAndAtLeastOne) {
  EXPECT_EQ(MinSupportCount(0.07, 100), 7u);  // 0.07 * 100 is 7.000000000000001
  EXPECT_EQ(MinSupportCount(0.25, 10), 3u);
  EXPECT_EQ(MinSupportCount(1.0, 7), 7u);
  EXPECT_EQ(MinSupportCount(0.0, 100), 1u);
  EXPECT_EQ(MinSupportCount(0.5, 0), 1u);
}

TEST(AprioriGenTest, JoinAndPrune) {
  // L2 = {1,2},{1,3},{1,4},{2,3}: join gives {1,2,3},{1,2,4},{1,3,4};
  // {1,2,4} is pruned ({2,4} not frequent), {1,3,4} pruned ({3,4} missing).
  std::vector<std::vector<int32_t>> l2 = {{1, 2}, {1, 3}, {1, 4}, {2, 3}};
  auto c3 = AprioriGen(l2);
  EXPECT_EQ(c3, (std::vector<std::vector<int32_t>>{{1, 2, 3}}));
}

TEST(AprioriGenTest, EmptyInput) {
  EXPECT_TRUE(AprioriGen({}).empty());
}

TEST(AprioriGenTest, SingleItems) {
  // L1 join: all pairs.
  std::vector<std::vector<int32_t>> l1 = {{1}, {2}, {5}};
  auto c2 = AprioriGen(l1);
  EXPECT_EQ(c2,
            (std::vector<std::vector<int32_t>>{{1, 2}, {1, 5}, {2, 5}}));
}

TEST(AprioriGenTest, NoJoinPartnersAcrossPrefixes) {
  std::vector<std::vector<int32_t>> l2 = {{1, 2}, {3, 4}};
  EXPECT_TRUE(AprioriGen(l2).empty());
}

TEST(AprioriMineTest, TextbookExample) {
  // Transactions from the AS94 running example.
  std::vector<Transaction> txns = {
      {1, 3, 4}, {2, 3, 5}, {1, 2, 3, 5}, {2, 5}};
  AprioriOptions options;
  options.minsup = 0.5;  // min count 2
  auto frequent = Sorted(AprioriMine(txns, options));

  std::vector<FrequentItemset> expected = {
      {{1}, 2}, {{2}, 3}, {{3}, 3}, {{5}, 3},
      {{1, 3}, 2}, {{2, 3}, 2}, {{2, 5}, 3}, {{3, 5}, 2},
      {{2, 3, 5}, 2}};
  EXPECT_EQ(frequent, Sorted(expected));
}

TEST(AprioriMineTest, EmptyTransactions) {
  EXPECT_TRUE(AprioriMine({}, AprioriOptions{}).empty());
}

TEST(AprioriMineTest, MinsupOneHundredPercent) {
  std::vector<Transaction> txns = {{1, 2}, {1, 2}, {1, 2, 3}};
  AprioriOptions options;
  options.minsup = 1.0;
  auto frequent = Sorted(AprioriMine(txns, options));
  std::vector<FrequentItemset> expected = {{{1}, 3}, {{2}, 3}, {{1, 2}, 3}};
  EXPECT_EQ(frequent, Sorted(expected));
}

TEST(AprioriMineTest, SupportCountsAreExact) {
  std::vector<Transaction> txns;
  for (int i = 0; i < 10; ++i) txns.push_back({1, 2});
  for (int i = 0; i < 5; ++i) txns.push_back({1});
  for (int i = 0; i < 5; ++i) txns.push_back({3});
  AprioriOptions options;
  options.minsup = 0.25;
  auto frequent = Sorted(AprioriMine(txns, options));
  std::vector<FrequentItemset> expected = {
      {{1}, 15}, {{2}, 10}, {{3}, 5}, {{1, 2}, 10}};
  EXPECT_EQ(frequent, Sorted(expected));
}

class AprioriRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(AprioriRandomTest, MatchesBruteForce) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 31 + 7);
  std::vector<Transaction> txns;
  for (int t = 0; t < 150; ++t) {
    Transaction txn;
    for (int32_t item = 0; item < 12; ++item) {
      if (rng.Bernoulli(0.3)) txn.push_back(item);
    }
    txns.push_back(std::move(txn));
  }
  AprioriOptions options;
  options.minsup = 0.15;
  options.leaf_capacity = 2;  // stress the hash tree
  options.fanout = 3;
  auto mined = Sorted(AprioriMine(txns, options));
  auto expected = BruteForceFrequent(txns, options.minsup, 12);
  EXPECT_EQ(mined, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AprioriRandomTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(BasketGenTest, RespectsConfig) {
  BasketConfig config;
  config.num_transactions = 500;
  config.num_items = 50;
  config.avg_transaction_size = 6;
  auto txns = MakeBasketData(config);
  EXPECT_EQ(txns.size(), 500u);
  double total = 0;
  for (const Transaction& t : txns) {
    EXPECT_FALSE(t.empty());
    for (size_t i = 1; i < t.size(); ++i) EXPECT_LT(t[i - 1], t[i]);
    for (int32_t item : t) {
      EXPECT_GE(item, 0);
      EXPECT_LT(item, 50);
    }
    total += static_cast<double>(t.size());
  }
  // Duplicates are removed, so sizes land a bit under the configured mean.
  EXPECT_GT(total / 500.0, 2.0);
  EXPECT_LT(total / 500.0, 12.0);
}

TEST(BasketGenTest, Deterministic) {
  BasketConfig config;
  config.num_transactions = 100;
  auto a = MakeBasketData(config);
  auto b = MakeBasketData(config);
  EXPECT_EQ(a, b);
}

TEST(BasketGenTest, PatternsCreateFrequentItemsets) {
  BasketConfig config;
  config.num_transactions = 2000;
  config.num_items = 200;
  config.num_patterns = 5;
  config.pattern_probability = 0.8;
  auto txns = MakeBasketData(config);
  AprioriOptions options;
  options.minsup = 0.05;
  auto frequent = AprioriMine(txns, options);
  size_t pairs_or_larger = 0;
  for (const FrequentItemset& f : frequent) {
    if (f.items.size() >= 2) ++pairs_or_larger;
  }
  EXPECT_GT(pairs_or_larger, 0u);
}

}  // namespace
}  // namespace qarm
