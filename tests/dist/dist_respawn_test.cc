// Worker-failure recovery: a worker SIGKILL'd mid-pass is respawned and
// replays only its own block range, leaving the merged rules byte-identical
// to a fault-free run; a worker that dies deterministically forever
// exhausts its respawn budget and fails the run cleanly. Faults come from
// the storage fault injector with kinds=kill at rate=1, so every worker's
// first faulted read is deterministic — no seed hunting, no flakes.
#include <unistd.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "common/macros.h"
#include "common/string_util.h"
#include "core/miner.h"
#include "dist/dist_miner.h"
#include "partition/mapper.h"
#include "storage/qbt_writer.h"
#include "storage/record_source.h"
#include "table/datagen.h"
#include "testutil.h"

namespace qarm {
namespace {

using testutil::SameRules;

constexpr size_t kWorkers = 3;

// Financial corpus in small blocks so each of the 3 workers owns several.
struct RespawnCorpus {
  std::string qbt_path;
  MinerOptions options;
  size_t num_blocks = 0;

  RespawnCorpus() {
    options.minsup = 0.20;
    options.minconf = 0.40;
    options.max_support = 0.40;
    options.partial_completeness = 3.0;
    options.interest_level = 1.2;
    Table raw = MakeFinancialDataset(1500, 91);
    MapOptions map_options;
    map_options.partial_completeness = options.partial_completeness;
    map_options.minsup = options.minsup;
    auto mapped = MapTable(raw, map_options);
    QARM_CHECK(mapped.ok());
    // pid-unique: each gtest TEST runs as its own concurrent ctest
    // process, and WriteQbt rewrites in place under a peer's mmap.
    qbt_path = ::testing::TempDir() + "/dist_respawn_" +
               std::to_string(::getpid()) + ".qbt";
    QbtWriteOptions write_options;
    write_options.rows_per_block = 64;
    QARM_CHECK(WriteQbt(*mapped, qbt_path, write_options).ok());
    auto source = QbtFileSource::Open(qbt_path);
    QARM_CHECK(source.ok());
    num_blocks = (*source)->num_blocks();
    QARM_CHECK(num_blocks >= kWorkers * 2);
  }
};

const RespawnCorpus& Corpus() {
  static const RespawnCorpus* corpus = new RespawnCorpus();
  return *corpus;
}

MiningResult FaultFreeBaseline() {
  auto source = QbtFileSource::Open(Corpus().qbt_path);
  QARM_CHECK(source.ok());
  auto result = QuantitativeRuleMiner(Corpus().options).MineStreamed(**source);
  QARM_CHECK(result.ok());
  return std::move(result).value();
}

// Every worker is killed on its first block read (rate=1, generation 0);
// the coordinator respawns each one exactly once and the replayed pass-1
// scans still merge into the fault-free rules.
TEST(DistRespawnTest, KillEveryWorkerDuringPass1) {
  MinerOptions options = Corpus().options;
  options.num_workers = kWorkers;
  options.inject_faults_spec = "seed=9,rate=1,kinds=kill,fails=1";
  Result<MiningResult> result =
      MineDistributedQbt(Corpus().qbt_path, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(SameRules(*result, FaultFreeBaseline()));
  EXPECT_EQ(result->stats.dist.num_workers, kWorkers);
  EXPECT_EQ(result->stats.dist.workers_respawned, kWorkers);
}

// `after` delays the kill past every worker's pass-1 scan (the injector's
// read ordinal is cumulative per worker incarnation), so each worker dies
// mid-pass-2 holding a count request. The respawn replays the catalog plus
// that one request against the worker's own shard only — nothing else is
// recounted — and the rules stay byte-identical.
TEST(DistRespawnTest, KillEveryWorkerMidCountingPass) {
  MinerOptions options = Corpus().options;
  options.num_workers = kWorkers;
  const size_t max_shard_blocks =
      (Corpus().num_blocks + kWorkers - 1) / kWorkers;
  options.inject_faults_spec =
      StrFormat("seed=9,rate=1,kinds=kill,fails=1,after=%zu",
                max_shard_blocks);
  Result<MiningResult> result =
      MineDistributedQbt(Corpus().qbt_path, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(SameRules(*result, FaultFreeBaseline()));
  EXPECT_EQ(result->stats.dist.workers_respawned, kWorkers);
}

// Sets a worker-side crash hook to `value` for the duration of one
// distributed run. The hooks only fire at generation 0, so the respawned
// incarnations always survive.
MiningResult MineWithWorkerCrashHook(const char* env, const char* value) {
  MinerOptions options = Corpus().options;
  options.num_workers = kWorkers;
  ::setenv(env, value, 1);
  Result<MiningResult> result =
      MineDistributedQbt(Corpus().qbt_path, options);
  ::unsetenv(env);
  QARM_CHECK(result.ok());
  return std::move(result).value();
}

// Every worker dies immediately after its pass-1 reply, so the EOF lands on
// the coordinator's very next SendFrame — inside PublishCatalog itself.
// RespawnAndReplay must treat the catalog as the in-flight request (sent
// exactly once, not doubled as replay-state + request) and the merged rules
// must match the fault-free run.
TEST(DistRespawnTest, KillEveryWorkerDuringCatalogBroadcast) {
  const MiningResult result =
      MineWithWorkerCrashHook("QARM_DIST_TEST_EXIT_BEFORE_CATALOG", "1");
  EXPECT_TRUE(SameRules(result, FaultFreeBaseline()));
  EXPECT_EQ(result.stats.dist.num_workers, kWorkers);
  EXPECT_EQ(result.stats.dist.workers_respawned, kWorkers);
}

// Every worker dies on *receipt* of the catalog frame — the second frame
// after the Hello — before applying it: the broadcast send itself
// succeeds, and the death surfaces at the first count request. The replay
// must re-deliver the catalog before that request or the fresh worker
// answers "count request arrived before the catalog".
TEST(DistRespawnTest, KillEveryWorkerOnCatalogReceipt) {
  const MiningResult result =
      MineWithWorkerCrashHook("QARM_DIST_TEST_EXIT_AFTER_FRAMES", "2");
  EXPECT_TRUE(SameRules(result, FaultFreeBaseline()));
  EXPECT_EQ(result.stats.dist.workers_respawned, kWorkers);
}

// A worker that dies on every incarnation (fails far above any generation)
// must exhaust kMaxRespawnsPerWorker and surface a clean IOError instead of
// hanging or looping forever.
TEST(DistRespawnTest, PermanentlyDyingWorkerExhaustsRespawnBudget) {
  MinerOptions options = Corpus().options;
  options.num_workers = kWorkers;
  options.inject_faults_spec = "seed=9,rate=1,kinds=kill,fails=100";
  Result<MiningResult> result =
      MineDistributedQbt(Corpus().qbt_path, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  EXPECT_NE(result.status().ToString().find("giving up"), std::string::npos)
      << result.status().ToString();
}

// A deterministic in-worker failure (a read error, not a crash) comes back
// as a kError reply; the coordinator fails the run immediately rather than
// respawning a worker that would fail identically.
TEST(DistRespawnTest, DeterministicWorkerErrorDoesNotRespawn) {
  MinerOptions options = Corpus().options;
  options.num_workers = kWorkers;
  // Every block read fails with EIO, in every incarnation up to 10.
  options.inject_faults_spec = "seed=5,rate=1,kinds=eio,fails=10";
  Result<MiningResult> result =
      MineDistributedQbt(Corpus().qbt_path, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  EXPECT_NE(result.status().ToString().find("worker"), std::string::npos)
      << result.status().ToString();
  EXPECT_EQ(result.status().ToString().find("giving up"), std::string::npos)
      << result.status().ToString();
}

}  // namespace
}  // namespace qarm
