// MineIncremental: append-mode runs leave a complete v2 checkpoint behind
// (full per-candidate counts, base block range + index CRC, options
// fingerprint); a later run over the appended file merges exact delta
// counts into it and must produce rules byte-identical to a from-scratch
// mine of the grown file. The corpus cycles values with fixed periods, so
// base and delta have identical item proportions and the catalog (and the
// frequent frontier) provably survive the append — the merge path really
// runs, instead of silently falling back to full rescans.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "common/macros.h"
#include "core/incremental_miner.h"
#include "core/miner.h"
#include "core/mining_checkpoint.h"
#include "partition/mapped_table.h"
#include "storage/checkpoint_format.h"
#include "storage/qbt_writer.h"
#include "storage/record_source.h"
#include "testutil.h"

namespace qarm {
namespace {

using testutil::MakeCyclingTable;
using testutil::SameRules;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

MinerOptions BaseOptions() {
  MinerOptions options;
  // Every single ~1/3..1/2, pair ~1/6..1/9, triple ~1/18: all far above
  // minsup, far below max_support — no itemset sits near a threshold.
  options.minsup = 0.03;
  options.minconf = 0.30;
  options.max_support = 0.95;
  options.interest_level = 0.0;
  return options;
}

MiningResult FullMine(const std::string& qbt_path, const MinerOptions& base) {
  MinerOptions options = base;
  options.checkpoint_path.clear();
  options.append_mode = false;
  auto source = QbtFileSource::Open(qbt_path);
  QARM_CHECK(source.ok());
  auto result = QuantitativeRuleMiner(options).MineStreamed(**source);
  QARM_CHECK(result.ok());
  return std::move(result).value();
}

struct IncrementalRun {
  MiningResult result;
  IncrementalDecision decision;
};

IncrementalRun RunIncremental(const std::string& qbt_path,
                              const MinerOptions& options) {
  IncrementalDecision decision;
  auto result = MineIncremental(qbt_path, options, &decision);
  QARM_CHECK(result.ok());
  return {std::move(result).value(), std::move(decision)};
}

TEST(IncrementalMinerTest, MergesAppendedBlocksByteIdentically) {
  const std::string qbt = TempPath("incremental_merge.qbt");
  const std::string qcp = TempPath("incremental_merge.qcp");
  std::remove(qcp.c_str());
  ASSERT_TRUE(WriteQbt(MakeCyclingTable(18 * 40), qbt,
                       {/*rows_per_block=*/64})
                  .ok());
  MinerOptions options = BaseOptions();
  options.checkpoint_path = qcp;

  // First run: no checkpoint yet — a logged full mine that seeds the base.
  IncrementalRun first = RunIncremental(qbt, options);
  EXPECT_FALSE(first.decision.incremental);
  EXPECT_NE(first.decision.reason.find("no checkpoint"), std::string::npos)
      << first.decision.reason;
  EXPECT_TRUE(SameRules(first.result, FullMine(qbt, options)));

  // Append ~10% more rows with the same proportions.
  ASSERT_TRUE(AppendQbt(MakeCyclingTable(18 * 4), qbt).ok());

  // Second run: the checkpoint serves as the incremental base and every
  // counting pass merges base + delta instead of rescanning.
  IncrementalRun second = RunIncremental(qbt, options);
  EXPECT_TRUE(second.decision.incremental) << second.decision.reason;
  EXPECT_EQ(second.decision.base_rows, 18u * 40);
  EXPECT_EQ(second.decision.delta_rows, 18u * 4);
  EXPECT_GT(second.decision.delta_blocks, 0u);
  EXPECT_GT(second.decision.passes_merged, 0u);
  EXPECT_EQ(second.decision.passes_rescanned, 0u);
  // The signature guarantee: byte-identical to mining the grown file flat.
  EXPECT_TRUE(SameRules(second.result, FullMine(qbt, options)));

  // Third run, nothing appended: a zero-delta merge, still byte-identical.
  IncrementalRun third = RunIncremental(qbt, options);
  EXPECT_TRUE(third.decision.incremental) << third.decision.reason;
  EXPECT_EQ(third.decision.delta_rows, 0u);
  EXPECT_TRUE(SameRules(third.result, second.result));
}

TEST(IncrementalMinerTest, ChangedOptionsFallBackToFullMineWithReason) {
  const std::string qbt = TempPath("incremental_fallback.qbt");
  const std::string qcp = TempPath("incremental_fallback.qcp");
  std::remove(qcp.c_str());
  ASSERT_TRUE(WriteQbt(MakeCyclingTable(18 * 20), qbt,
                       {/*rows_per_block=*/64})
                  .ok());
  MinerOptions options = BaseOptions();
  options.checkpoint_path = qcp;
  RunIncremental(qbt, options);
  ASSERT_TRUE(AppendQbt(MakeCyclingTable(18 * 2), qbt).ok());

  // A different minsup changes the run identity: the checkpoint must not
  // be merged (its counts gate a different frontier), and the fallback
  // must still match a from-scratch mine under the new options.
  MinerOptions changed = options;
  changed.minsup = 0.10;
  IncrementalRun run = RunIncremental(qbt, changed);
  EXPECT_FALSE(run.decision.incremental);
  EXPECT_FALSE(run.decision.reason.empty());
  EXPECT_TRUE(SameRules(run.result, FullMine(qbt, changed)));

  // The fallback rewrote the checkpoint for the new options: the next run
  // under them is incremental again (zero delta here).
  IncrementalRun again = RunIncremental(qbt, changed);
  EXPECT_TRUE(again.decision.incremental) << again.decision.reason;
  EXPECT_TRUE(SameRules(again.result, run.result));
}

TEST(IncrementalMinerTest, CompleteCheckpointCarriesV2BaseIdentity) {
  const std::string qbt = TempPath("incremental_v2.qbt");
  const std::string qcp = TempPath("incremental_v2.qcp");
  std::remove(qcp.c_str());
  ASSERT_TRUE(WriteQbt(MakeCyclingTable(18 * 10), qbt,
                       {/*rows_per_block=*/32})
                  .ok());
  MinerOptions options = BaseOptions();
  options.checkpoint_path = qcp;
  options.append_mode = true;
  RunIncremental(qbt, options);

  std::ifstream in(qcp, std::ios::binary);
  ASSERT_TRUE(in.good()) << "append-mode run left no checkpoint";
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  auto state = ParseCheckpoint(
      reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size());
  ASSERT_TRUE(state.ok()) << state.status().ToString();

  EXPECT_TRUE(state->flags & kCheckpointFlagComplete);
  auto source = QbtFileSource::Open(qbt);
  ASSERT_TRUE(source.ok());
  EXPECT_EQ(state->num_rows, (*source)->num_rows());
  EXPECT_EQ(state->base_num_blocks, (*source)->num_blocks());
  EXPECT_EQ(state->base_index_crc,
            (*source)->reader().IndexPrefixCrc((*source)->num_blocks()));
  EXPECT_EQ(state->options_fingerprint,
            ComputeMiningOptionsFingerprint(options, **source));
  EXPECT_EQ(state->fingerprint, ComputeMiningFingerprint(options, **source));

  // Every counting pass (k >= 2) carries its FULL per-candidate counts —
  // that is what a later incremental run adds delta counts into. Pass 1
  // stores none: its merge rides the catalog's per-value counts instead.
  ASSERT_FALSE(state->passes.empty());
  size_t counting_passes = 0;
  for (const CheckpointPass& pass : state->passes) {
    if (pass.k < 2) {
      EXPECT_TRUE(pass.candidate_counts.empty()) << "pass k=" << pass.k;
      continue;
    }
    ++counting_passes;
    EXPECT_EQ(pass.candidate_counts.size(), pass.num_candidates)
        << "pass k=" << pass.k;
  }
  EXPECT_GT(counting_passes, 0u);
}

}  // namespace
}  // namespace qarm
