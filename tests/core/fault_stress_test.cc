// Fault-injection stress: 50 deterministic fault schedules, each one a
// different seeded pattern of transient EIO / short-read / CRC failures
// over the streamed blocks. Every schedule stays within the retry budget,
// so every run must recover and emit bit-identical rules to the fault-free
// run — any divergence is a hard failure.
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "core/miner.h"
#include "partition/mapper.h"
#include "storage/qbt_writer.h"
#include "storage/record_source.h"
#include "table/datagen.h"
#include "testutil.h"

namespace qarm {
namespace {

TEST(FaultStressTest, FiftySeedsAllRecoverBitIdentical) {
  Table raw = MakeFinancialDataset(800, 21);
  MinerOptions options;
  options.minsup = 0.20;
  options.minconf = 0.40;
  options.max_support = 0.45;
  options.partial_completeness = 3.0;

  MapOptions map_options;
  map_options.partial_completeness = options.partial_completeness;
  map_options.minsup = options.minsup;
  Result<MappedTable> mapped = MapTable(raw, map_options);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  const std::string qbt = ::testing::TempDir() + "/fault_stress.qbt";
  QbtWriteOptions write_options;
  write_options.rows_per_block = 64;  // many blocks: many injection points
  ASSERT_TRUE(WriteQbt(*mapped, qbt, write_options).ok());
  Result<std::unique_ptr<QbtFileSource>> source = QbtFileSource::Open(qbt);
  ASSERT_TRUE(source.ok()) << source.status().ToString();

  Result<MiningResult> clean =
      QuantitativeRuleMiner(options).MineStreamed(**source);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  ASSERT_FALSE(clean->rules.empty());

  uint64_t total_faults = 0;
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    MinerOptions faulty = options;
    // Sweep the schedule space: fault density 10-40%, 1-3 failures per
    // faulted block (always under the attempts=5 budget), alternating
    // thread counts. backoff=0 keeps the retries instant.
    faulty.num_threads = seed % 2 == 0 ? 4 : 1;
    faulty.inject_faults_spec = StrFormat(
        "seed=%llu,rate=0.%llu,fails=%llu,attempts=5,backoff=0",
        static_cast<unsigned long long>(seed),
        static_cast<unsigned long long>(1 + seed % 4),
        static_cast<unsigned long long>(1 + seed % 3));
    Result<MiningResult> mined =
        QuantitativeRuleMiner(faulty).MineStreamed(**source);
    ASSERT_TRUE(mined.ok())
        << "seed " << seed << ": " << mined.status().ToString();
    ASSERT_TRUE(testutil::SameRules(*mined, *clean))
        << "seed " << seed << " diverged";

    // The stats prove faults actually happened and were retried away.
    ScanIoStats io = mined->stats.pass1_io;
    for (const PassStats& pass : mined->stats.passes) {
      io += pass.counting.io;
    }
    // Recovered faults always show up as retries; a sparse schedule may
    // fault zero blocks for one seed, so the >0 assertion is on the total.
    EXPECT_GE(io.read_retries, io.faults_injected) << "seed " << seed;
    total_faults += io.faults_injected;
  }
  EXPECT_GT(total_faults, 0u);
}

}  // namespace
}  // namespace qarm
