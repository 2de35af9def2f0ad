// Checkpoint/resume equivalence: a run killed at ANY pass boundary and
// restarted with the same flags must emit bit-identical rules to an
// uninterrupted run — at 1 and 4 threads, over in-memory and QBT-streamed
// sources, with taxonomies and with missing values. The kill is simulated
// with MinerOptions::stop_after_pass, which checkpoints pass k and then
// stops with kCancelled exactly where a crash after the checkpoint write
// would leave the process.
#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/miner.h"
#include "partition/mapper.h"
#include "partition/taxonomy.h"
#include "storage/qbt_writer.h"
#include "storage/record_source.h"
#include "table/datagen.h"
#include "table/table.h"
#include "testutil.h"

namespace qarm {
namespace {

using testutil::SameRules;

MinerOptions BaseOptions() {
  MinerOptions options;
  options.minsup = 0.20;
  options.minconf = 0.40;
  options.max_support = 0.45;
  options.partial_completeness = 3.0;
  options.interest_level = 1.2;
  return options;
}

bool FileExists(const std::string& path) {
  return std::ifstream(path).good();
}

// Runs the miner over `table`, expecting success.
MiningResult MustMine(const MinerOptions& options, const Table& table) {
  Result<MiningResult> result = QuantitativeRuleMiner(options).Mine(table);
  QARM_CHECK(result.ok());
  return std::move(result).value();
}

// The whole interrupt-at-every-boundary matrix for an in-memory table:
// baseline once, then for each pass k stop there (expect kCancelled plus a
// checkpoint on disk) and rerun to completion, comparing rules and itemset
// counts bit for bit.
void ExpectResumeMatchesBaseline(MinerOptions options, const Table& table,
                                 const std::string& tag) {
  const MiningResult baseline = MustMine(options, table);
  const size_t num_passes = baseline.stats.passes.size();
  ASSERT_GE(num_passes, 2u) << tag << ": fixture too small to interrupt";

  const std::string path = ::testing::TempDir() + "/resume_" + tag + ".qcp";
  for (size_t stop = 1; stop <= num_passes; ++stop) {
    std::remove(path.c_str());
    MinerOptions interrupted = options;
    interrupted.checkpoint_path = path;
    interrupted.stop_after_pass = stop;
    Result<MiningResult> killed =
        QuantitativeRuleMiner(interrupted).Mine(table);
    ASSERT_FALSE(killed.ok()) << tag << " stop=" << stop;
    EXPECT_EQ(killed.status().code(), StatusCode::kCancelled);
    ASSERT_TRUE(FileExists(path)) << tag << " stop=" << stop;

    MinerOptions resume = options;
    resume.checkpoint_path = path;
    Result<MiningResult> resumed =
        QuantitativeRuleMiner(resume).Mine(table);
    ASSERT_TRUE(resumed.ok())
        << tag << " stop=" << stop << ": " << resumed.status().ToString();
    EXPECT_TRUE(resumed->stats.checkpoint.resumed);
    EXPECT_EQ(resumed->stats.checkpoint.resumed_passes, stop);
    EXPECT_TRUE(SameRules(*resumed, baseline)) << tag << " stop=" << stop;
    ASSERT_EQ(resumed->frequent_itemsets.size(),
              baseline.frequent_itemsets.size());
    for (size_t i = 0; i < baseline.frequent_itemsets.size(); ++i) {
      EXPECT_EQ(resumed->frequent_itemsets[i].count,
                baseline.frequent_itemsets[i].count);
    }
    // The completed run cleans its checkpoint up: a later identical run
    // must mine fresh data, not "resume" into a no-op.
    EXPECT_FALSE(FileExists(path)) << tag << " stop=" << stop;
  }
}

TEST(CheckpointResumeTest, EveryPassBoundarySingleThread) {
  MinerOptions options = BaseOptions();
  options.num_threads = 1;
  ExpectResumeMatchesBaseline(options, MakeFinancialDataset(1500, 42),
                              "mem_t1");
}

TEST(CheckpointResumeTest, EveryPassBoundaryFourThreads) {
  MinerOptions options = BaseOptions();
  options.num_threads = 4;
  ExpectResumeMatchesBaseline(options, MakeFinancialDataset(1500, 42),
                              "mem_t4");
}

// The checkpoint's fingerprint deliberately excludes execution knobs, so a
// run interrupted at 1 thread resumes at 4 (and vice versa) with identical
// output.
TEST(CheckpointResumeTest, ResumeAcrossThreadCounts) {
  const Table table = MakeFinancialDataset(1500, 42);
  MinerOptions options = BaseOptions();
  options.num_threads = 1;
  const MiningResult baseline = MustMine(options, table);
  const std::string path = ::testing::TempDir() + "/resume_cross.qcp";

  std::remove(path.c_str());
  MinerOptions interrupted = options;
  interrupted.checkpoint_path = path;
  interrupted.stop_after_pass = 2;
  ASSERT_EQ(QuantitativeRuleMiner(interrupted).Mine(table).status().code(),
            StatusCode::kCancelled);

  MinerOptions resume = options;
  resume.checkpoint_path = path;
  resume.num_threads = 4;
  Result<MiningResult> resumed = QuantitativeRuleMiner(resume).Mine(table);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(resumed->stats.checkpoint.resumed);
  EXPECT_TRUE(SameRules(*resumed, baseline));
}

// Same matrix over the out-of-core path: the checkpoint logic lives in
// MineWithSource, so a streamed QBT run interrupts and resumes exactly like
// the in-memory one.
void ExpectStreamedResumeMatchesBaseline(size_t num_threads) {
  Table raw = MakeFinancialDataset(1500, 42);
  MinerOptions options = BaseOptions();
  options.num_threads = num_threads;

  MapOptions map_options;
  map_options.partial_completeness = options.partial_completeness;
  map_options.minsup = options.minsup;
  Result<MappedTable> mapped = MapTable(raw, map_options);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  const std::string qbt = ::testing::TempDir() + "/resume_stream_" +
                          std::to_string(num_threads) + ".qbt";
  QbtWriteOptions write_options;
  write_options.rows_per_block = 256;
  ASSERT_TRUE(WriteQbt(*mapped, qbt, write_options).ok());

  QuantitativeRuleMiner miner(options);
  Result<std::unique_ptr<QbtFileSource>> source = QbtFileSource::Open(qbt);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  Result<MiningResult> baseline_result = miner.MineStreamed(**source);
  ASSERT_TRUE(baseline_result.ok()) << baseline_result.status().ToString();
  const MiningResult& baseline = *baseline_result;
  const size_t num_passes = baseline.stats.passes.size();
  ASSERT_GE(num_passes, 2u);

  const std::string path = ::testing::TempDir() + "/resume_stream_t" +
                           std::to_string(num_threads) + ".qcp";
  for (size_t stop = 1; stop <= num_passes; ++stop) {
    std::remove(path.c_str());
    MinerOptions interrupted = options;
    interrupted.checkpoint_path = path;
    interrupted.stop_after_pass = stop;
    Result<MiningResult> killed =
        QuantitativeRuleMiner(interrupted).MineStreamed(**source);
    ASSERT_FALSE(killed.ok()) << "stop=" << stop;
    EXPECT_EQ(killed.status().code(), StatusCode::kCancelled);
    ASSERT_TRUE(FileExists(path)) << "stop=" << stop;

    MinerOptions resume = options;
    resume.checkpoint_path = path;
    Result<MiningResult> resumed =
        QuantitativeRuleMiner(resume).MineStreamed(**source);
    ASSERT_TRUE(resumed.ok())
        << "stop=" << stop << ": " << resumed.status().ToString();
    EXPECT_TRUE(resumed->stats.checkpoint.resumed);
    EXPECT_EQ(resumed->stats.checkpoint.resumed_passes, stop);
    EXPECT_TRUE(SameRules(*resumed, baseline)) << "stop=" << stop;
    // A resumed run skips the pass-1 scan and the first `stop` counting
    // passes entirely: the pass-1 I/O stats stay zero.
    EXPECT_EQ(resumed->stats.pass1_io.blocks_read, 0u);
  }
}

TEST(CheckpointResumeTest, StreamedEveryPassBoundarySingleThread) {
  ExpectStreamedResumeMatchesBaseline(1);
}

TEST(CheckpointResumeTest, StreamedEveryPassBoundaryFourThreads) {
  ExpectStreamedResumeMatchesBaseline(4);
}

// Taxonomy runs carry extra catalog state (interior-node items and their
// ranges) through the checkpoint.
TEST(CheckpointResumeTest, WithTaxonomies) {
  Schema schema =
      Schema::Make({{"drink", AttributeKind::kCategorical, ValueType::kString},
                    {"pastry", AttributeKind::kCategorical,
                     ValueType::kString}})
          .value();
  Table table(schema);
  Rng rng(99);
  for (size_t i = 0; i < 3000; ++i) {
    double u = rng.UniformDouble();
    std::string drink;
    std::string pastry;
    if (u < 0.10) {
      drink = "coffee";
      pastry = "yes";
    } else if (u < 0.20) {
      drink = "tea";
      pastry = "yes";
    } else if (u < 0.60) {
      drink = "soda";
      pastry = rng.Bernoulli(0.1) ? "yes" : "no";
    } else {
      drink = "juice";
      pastry = rng.Bernoulli(0.1) ? "yes" : "no";
    }
    table.AppendRowUnchecked(
        {Value(std::move(drink)), Value(std::move(pastry))});
  }

  MinerOptions options;
  options.minsup = 0.15;
  options.minconf = 0.60;
  options.taxonomies.emplace_back("drink", Taxonomy::Make({{"hot", "drinks"},
                                                           {"cold", "drinks"},
                                                           {"coffee", "hot"},
                                                           {"tea", "hot"},
                                                           {"soda", "cold"},
                                                           {"juice", "cold"}})
                                               .value());
  ExpectResumeMatchesBaseline(options, table, "taxonomy");
}

// Missing values flow through the catalog's value counts; the restored
// catalog must reproduce them exactly.
TEST(CheckpointResumeTest, WithMissingValues) {
  Schema schema =
      Schema::Make({{"x", AttributeKind::kQuantitative, ValueType::kInt64},
                    {"c", AttributeKind::kCategorical, ValueType::kString}})
          .value();
  Table table(schema);
  Rng rng(7);
  for (size_t i = 0; i < 1200; ++i) {
    int64_t x = rng.UniformInt(0, 9);
    std::vector<Value> row(2);
    row[0] = rng.Bernoulli(0.2) ? Value::Null() : Value(x);
    row[1] = rng.Bernoulli(0.2) ? Value::Null()
                                : Value(x < 5 ? std::string("lo")
                                              : std::string("hi"));
    table.AppendRowUnchecked(row);
  }
  MinerOptions options;
  options.minsup = 0.10;
  options.minconf = 0.40;
  options.num_intervals_override = 5;
  ExpectResumeMatchesBaseline(options, table, "missing");
}

// checkpoint_every_pass > 1 skips intermediate boundaries; an interrupt at
// an unsaved pass resumes from the last saved one and still converges.
TEST(CheckpointResumeTest, CheckpointEverySecondPass) {
  const Table table = MakeFinancialDataset(1500, 42);
  MinerOptions options = BaseOptions();
  const MiningResult baseline = MustMine(options, table);
  ASSERT_GE(baseline.stats.passes.size(), 3u);

  const std::string path = ::testing::TempDir() + "/resume_every2.qcp";
  std::remove(path.c_str());
  MinerOptions interrupted = options;
  interrupted.checkpoint_path = path;
  interrupted.checkpoint_every_pass = 2;
  interrupted.stop_after_pass = 3;
  ASSERT_EQ(QuantitativeRuleMiner(interrupted).Mine(table).status().code(),
            StatusCode::kCancelled);

  MinerOptions resume = options;
  resume.checkpoint_path = path;
  Result<MiningResult> resumed = QuantitativeRuleMiner(resume).Mine(table);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(resumed->stats.checkpoint.resumed);
  // The interrupt at pass 3 still checkpointed (stop_after_pass forces a
  // final write), so the resume picks up all three passes.
  EXPECT_EQ(resumed->stats.checkpoint.resumed_passes, 3u);
  EXPECT_TRUE(SameRules(*resumed, baseline));
}

// A checkpoint from a different run (here: different minsup) is stale; the
// miner must refuse the resume and restart from scratch, still succeeding.
TEST(CheckpointResumeTest, StaleFingerprintRestartsFromScratch) {
  const Table table = MakeFinancialDataset(1000, 42);
  const std::string path = ::testing::TempDir() + "/resume_stale.qcp";
  std::remove(path.c_str());

  MinerOptions writer = BaseOptions();
  writer.checkpoint_path = path;
  writer.stop_after_pass = 1;
  ASSERT_EQ(QuantitativeRuleMiner(writer).Mine(table).status().code(),
            StatusCode::kCancelled);
  ASSERT_TRUE(FileExists(path));

  MinerOptions other = BaseOptions();
  other.minsup = 0.25;
  const MiningResult baseline = MustMine(other, table);

  MinerOptions with_stale = other;
  with_stale.checkpoint_path = path;
  Result<MiningResult> mined =
      QuantitativeRuleMiner(with_stale).Mine(table);
  ASSERT_TRUE(mined.ok()) << mined.status().ToString();
  EXPECT_FALSE(mined->stats.checkpoint.resumed);
  EXPECT_TRUE(SameRules(*mined, baseline));
}

// SIGINT path: the cancel flag stops mining with kCancelled after writing a
// final checkpoint, and a rerun resumes from it.
TEST(CheckpointResumeTest, CancelFlagCheckpointsBeforeStopping) {
  const Table table = MakeFinancialDataset(1500, 42);
  MinerOptions options = BaseOptions();
  const MiningResult baseline = MustMine(options, table);

  const std::string path = ::testing::TempDir() + "/resume_cancel.qcp";
  std::remove(path.c_str());
  std::atomic<bool> cancel{true};  // "Ctrl-C before the first boundary"
  MinerOptions interrupted = options;
  interrupted.checkpoint_path = path;
  interrupted.cancel_flag = &cancel;
  Result<MiningResult> killed =
      QuantitativeRuleMiner(interrupted).Mine(table);
  ASSERT_FALSE(killed.ok());
  EXPECT_EQ(killed.status().code(), StatusCode::kCancelled);
  ASSERT_TRUE(FileExists(path));

  MinerOptions resume = options;
  resume.checkpoint_path = path;
  Result<MiningResult> resumed = QuantitativeRuleMiner(resume).Mine(table);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(resumed->stats.checkpoint.resumed);
  EXPECT_EQ(resumed->stats.checkpoint.resumed_passes, 1u);
  EXPECT_TRUE(SameRules(*resumed, baseline));
}

}  // namespace
}  // namespace qarm
