// Checkpoint/resume across worker counts: the QCP fingerprint deliberately
// excludes num_workers (an execution knob, like num_threads), so a run
// interrupted at --workers=4 resumes at --workers=1 and vice versa, with
// rules byte-identical to an uninterrupted single-process run.
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "common/macros.h"
#include "core/miner.h"
#include "core/mining_checkpoint.h"
#include "dist/dist_miner.h"
#include "partition/mapper.h"
#include "storage/qbt_writer.h"
#include "storage/record_source.h"
#include "table/datagen.h"
#include "testutil.h"

namespace qarm {
namespace {

bool FileExists(const std::string& path) {
  return std::ifstream(path).good();
}

struct CheckpointCorpus {
  std::string qbt_path;
  MinerOptions options;

  CheckpointCorpus() {
    options.minsup = 0.20;
    options.minconf = 0.40;
    options.max_support = 0.45;
    options.partial_completeness = 3.0;
    options.interest_level = 1.2;
    Table raw = MakeFinancialDataset(1500, 42);
    MapOptions map_options;
    map_options.partial_completeness = options.partial_completeness;
    map_options.minsup = options.minsup;
    auto mapped = MapTable(raw, map_options);
    QARM_CHECK(mapped.ok());
    // pid-unique: each gtest TEST runs as its own concurrent ctest
    // process, and WriteQbt rewrites in place under a peer's mmap.
    qbt_path = ::testing::TempDir() + "/dist_checkpoint_" +
               std::to_string(::getpid()) + ".qbt";
    QbtWriteOptions write_options;
    write_options.rows_per_block = 128;
    QARM_CHECK(WriteQbt(*mapped, qbt_path, write_options).ok());
  }
};

const CheckpointCorpus& Corpus() {
  static const CheckpointCorpus* corpus = new CheckpointCorpus();
  return *corpus;
}

MiningResult Baseline() {
  auto source = QbtFileSource::Open(Corpus().qbt_path);
  QARM_CHECK(source.ok());
  auto result = QuantitativeRuleMiner(Corpus().options).MineStreamed(**source);
  QARM_CHECK(result.ok());
  return std::move(result).value();
}

// Interrupt at `interrupt_workers` after pass 2, resume at `resume_workers`:
// the checkpoint must be accepted (not treated as stale) and the resumed
// rules must match the uninterrupted baseline bit for bit.
void ExpectResumeAcrossWorkerCounts(size_t interrupt_workers,
                                    size_t resume_workers,
                                    uint64_t counter_budget = 0) {
  const std::string tag = std::to_string(interrupt_workers) + "to" +
                          std::to_string(resume_workers) + "b" +
                          std::to_string(counter_budget);
  const std::string path =
      ::testing::TempDir() + "/dist_resume_" + tag + ".qcp";
  std::remove(path.c_str());
  MinerOptions options = Corpus().options;
  if (counter_budget > 0) options.counter_memory_budget_bytes = counter_budget;

  MinerOptions interrupted = options;
  interrupted.num_workers = interrupt_workers;
  interrupted.checkpoint_path = path;
  interrupted.stop_after_pass = 2;
  Result<MiningResult> killed =
      MineDistributedQbt(Corpus().qbt_path, interrupted);
  ASSERT_FALSE(killed.ok()) << tag;
  EXPECT_EQ(killed.status().code(), StatusCode::kCancelled) << tag;
  ASSERT_TRUE(FileExists(path)) << tag;

  MinerOptions resume = options;
  resume.num_workers = resume_workers;
  resume.checkpoint_path = path;
  Result<MiningResult> resumed =
      MineDistributedQbt(Corpus().qbt_path, resume);
  ASSERT_TRUE(resumed.ok()) << tag << ": " << resumed.status().ToString();
  EXPECT_TRUE(resumed->stats.checkpoint.resumed) << tag;
  EXPECT_EQ(resumed->stats.checkpoint.resumed_passes, 2u) << tag;
  EXPECT_TRUE(testutil::SameRules(*resumed, Baseline())) << tag;
  // The completed resume cleans the checkpoint up.
  EXPECT_FALSE(FileExists(path)) << tag;
}

TEST(DistCheckpointTest, InterruptAtFourWorkersResumeAtOne) {
  ExpectResumeAcrossWorkerCounts(/*interrupt_workers=*/4,
                                 /*resume_workers=*/1);
}

TEST(DistCheckpointTest, InterruptAtOneWorkerResumeAtFour) {
  ExpectResumeAcrossWorkerCounts(/*interrupt_workers=*/1,
                                 /*resume_workers=*/4);
}

TEST(DistCheckpointTest, InterruptAtTwoWorkersResumeAtThree) {
  ExpectResumeAcrossWorkerCounts(/*interrupt_workers=*/2,
                                 /*resume_workers=*/3);
}

// A counter budget too small for the grids: the passes after the resume
// count through member groups, whose member item ids the plan ships, at
// another worker count than the interrupted run.
TEST(DistCheckpointTest, TinyCounterBudgetInterruptAtTwoWorkersResumeAtFour) {
  ExpectResumeAcrossWorkerCounts(/*interrupt_workers=*/2,
                                 /*resume_workers=*/4,
                                 /*counter_budget=*/256);
}

// The invariant behind the resumes above, checked directly: the mining
// fingerprint is a pure function of the result-defining parameters, so
// num_workers (like num_threads) must not perturb it.
TEST(DistCheckpointTest, FingerprintIgnoresExecutionKnobs) {
  auto source = QbtFileSource::Open(Corpus().qbt_path);
  ASSERT_TRUE(source.ok());
  MinerOptions options = Corpus().options;
  const uint64_t base = ComputeMiningFingerprint(options, **source);

  for (size_t workers : {size_t{2}, size_t{4}, size_t{64}}) {
    options.num_workers = workers;
    EXPECT_EQ(ComputeMiningFingerprint(options, **source), base)
        << "workers=" << workers;
  }
  options.num_threads = 8;
  EXPECT_EQ(ComputeMiningFingerprint(options, **source), base);
  options.inject_faults_spec = "seed=9,rate=1,kinds=kill";
  EXPECT_EQ(ComputeMiningFingerprint(options, **source), base);

  // And a result-defining knob must perturb it.
  options.minsup = 0.25;
  EXPECT_NE(ComputeMiningFingerprint(options, **source), base);
}

}  // namespace
}  // namespace qarm
