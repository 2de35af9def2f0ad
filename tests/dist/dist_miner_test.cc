// The distributed acceptance gate: MineDistributedQbt must emit rules
// byte-identical to the single-process streamed miner at every worker and
// thread count — on the financial corpus, with taxonomies, and with
// missing values. Worker processes fork from the test binary, so any
// divergence in the shard/merge path fails here as a rule diff, not a
// statistical anomaly. (The TCP transport runs the same matrix in
// tcp_miner_test.cc; the corpora live in dist_corpora.h.)
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/macros.h"
#include "core/miner.h"
#include "dist/dist_miner.h"
#include "dist/dist_corpora.h"

namespace qarm {
namespace {

using disttest::DistCorpus;
using disttest::FinancialCorpus;
using disttest::kTinyCounterBudget;
using disttest::MissingValuesCorpus;
using disttest::MustMineStreamed;
using disttest::TaxonomyCorpus;
using testutil::SameRules;

MiningResult MustMineDistributed(const DistCorpus& corpus, size_t workers,
                                 size_t threads) {
  MinerOptions options = corpus.options;
  options.num_workers = workers;
  options.num_threads = threads;
  auto result = MineDistributedQbt(corpus.qbt_path, options);
  QARM_CHECK(result.ok());
  return std::move(result).value();
}

// The full matrix for one corpus: every worker x thread combination must
// reproduce the single-process rules bit for bit, without respawns.
void ExpectMatrixMatchesBaseline(const DistCorpus& corpus) {
  ASSERT_GE(corpus.num_blocks, 4u) << "fixture too small to shard";
  const MiningResult baseline = MustMineStreamed(corpus, /*threads=*/1);
  ASSERT_FALSE(baseline.rules.empty());

  for (size_t workers : {size_t{1}, size_t{2}, size_t{4}}) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " threads=" + std::to_string(threads));
      const MiningResult got = MustMineDistributed(corpus, workers, threads);
      EXPECT_TRUE(SameRules(got, baseline));
      ASSERT_EQ(got.frequent_itemsets.size(),
                baseline.frequent_itemsets.size());
      for (size_t i = 0; i < baseline.frequent_itemsets.size(); ++i) {
        EXPECT_EQ(got.frequent_itemsets[i].count,
                  baseline.frequent_itemsets[i].count)
            << "itemset " << i;
      }
      if (workers > 1) {
        EXPECT_EQ(got.stats.dist.num_workers, workers);
        EXPECT_EQ(got.stats.dist.workers_respawned, 0u);
        // Every mined pass exchanged real bytes with the shards.
        ASSERT_FALSE(got.stats.dist.passes.empty());
        for (const DistPassStats& pass : got.stats.dist.passes) {
          EXPECT_GT(pass.bytes_sent, 0u) << "pass k=" << pass.k;
          EXPECT_GT(pass.bytes_received, 0u) << "pass k=" << pass.k;
        }
      } else {
        // workers=1 short-circuits to the in-process path.
        EXPECT_EQ(got.stats.dist.num_workers, 0u);
      }
    }
  }
}

TEST(DistMinerTest, FinancialMatrixByteIdentical) {
  ExpectMatrixMatchesBaseline(FinancialCorpus());
}

TEST(DistMinerTest, TaxonomyMatrixByteIdentical) {
  ExpectMatrixMatchesBaseline(TaxonomyCorpus());
}

TEST(DistMinerTest, MissingValuesMatrixByteIdentical) {
  ExpectMatrixMatchesBaseline(MissingValuesCorpus());
}

// More workers than blocks: the pool clamps to one worker per block rather
// than forking idle processes, and the rules still match.
TEST(DistMinerTest, WorkerCountClampsToBlockCount) {
  const DistCorpus& corpus = MissingValuesCorpus();
  const MiningResult baseline = MustMineStreamed(corpus, 1);
  const MiningResult got =
      MustMineDistributed(corpus, /*workers=*/64, /*threads=*/1);
  EXPECT_TRUE(SameRules(got, baseline));
  EXPECT_EQ(got.stats.dist.num_workers, corpus.num_blocks);
}

// A count request carries the pass's plan, not its candidates: on the
// financial corpus every pass's request stays under 1 KB per worker however
// many candidates the pass counts, and far below the counters coming back.
TEST(DistMinerTest, CountRequestsStaySmall) {
  const MiningResult got =
      MustMineDistributed(FinancialCorpus(), /*workers=*/2, /*threads=*/1);
  size_t counting_passes = 0;
  for (const DistPassStats& pass : got.stats.dist.passes) {
    if (pass.k < 2) continue;  // pass 1 and the catalog broadcast
    ++counting_passes;
    // Both workers get the same request.
    EXPECT_LT(pass.bytes_sent / 2, 1024u) << "pass k=" << pass.k;
  }
  EXPECT_GE(counting_passes, 2u);
  for (const PassStats& pass : got.stats.passes) {
    if (pass.k == 2) {
      EXPECT_GT(pass.num_candidates, 1000u);
    }
  }
}

// A counter budget too small for the pass's grids makes the plan count
// groups by member scan, whose member item ids travel in the plan. The
// rules stay byte-identical to the in-process miner under the same budget.
TEST(DistMinerTest, TinyCounterBudgetMatrixByteIdentical) {
  DistCorpus corpus = FinancialCorpus();
  corpus.options.counter_memory_budget_bytes = kTinyCounterBudget;
  const MiningResult baseline = MustMineStreamed(corpus, /*threads=*/1);
  ASSERT_FALSE(baseline.rules.empty());
  for (size_t workers : {size_t{2}, size_t{4}}) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " threads=" + std::to_string(threads));
      const MiningResult got = MustMineDistributed(corpus, workers, threads);
      EXPECT_TRUE(SameRules(got, baseline));
      size_t members = 0;
      for (const PassStats& pass : got.stats.passes) {
        members += pass.counting.num_member_counters;
      }
      EXPECT_GT(members, 0u);
    }
  }
}

// Pass 1's I/O is the sum of the shards' I/O, checksum time included: the
// workers together read every block exactly once, as one process does.
TEST(DistMinerTest, Pass1IoSumsTheShards) {
  const DistCorpus& corpus = FinancialCorpus();
  const ScanIoStats want =
      MustMineStreamed(corpus, /*threads=*/1).stats.pass1_io;
  const ScanIoStats got =
      MustMineDistributed(corpus, /*workers=*/2, /*threads=*/1).stats.pass1_io;
  EXPECT_EQ(got.blocks_read, corpus.num_blocks);
  EXPECT_EQ(got.blocks_read, want.blocks_read);
  EXPECT_EQ(got.bytes_read, want.bytes_read);
  EXPECT_GT(got.checksum_seconds, 0.0);
}

}  // namespace
}  // namespace qarm
