// Fault-injection stress of the one recovery for a failed block read: the
// run stops with the read's Status, and a fault-free rerun resumes from the
// last completed pass's checkpoint. 50 seeded schedules of EIO / short-read
// / CRC faults, at threads {1, 4}, each aimed at one scan of the run. Every
// faulted run must fail with the injected IOError — never abort, never
// hang — and every rerun must emit bit-identical rules to the clean run.
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "core/miner.h"
#include "partition/mapper.h"
#include "storage/fault_injection.h"
#include "storage/qbt_writer.h"
#include "storage/record_source.h"
#include "table/datagen.h"
#include "testutil.h"

namespace qarm {
namespace {

TEST(FaultStressTest, FiftySeedsFailThenResumeFromCheckpoint) {
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
  const uint64_t num_blocks = (*source)->num_blocks();

  Result<MiningResult> clean =
      QuantitativeRuleMiner(options).MineStreamed(**source);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  ASSERT_FALSE(clean->rules.empty());

  // Every scan reads each block once, so read ordinal `num_blocks * m` is
  // the start of scan m (0 = the pass-1 catalog scan). Passes are scan
  // barriers: with `after` there, the faulted scan and the blocks it fails
  // on do not depend on how the threads interleave.
  uint64_t blocks_read = clean->stats.pass1_io.blocks_read;
  for (const PassStats& pass : clean->stats.passes) {
    blocks_read += pass.counting.io.blocks_read;
  }
  ASSERT_EQ(blocks_read % num_blocks, 0u);
  const uint64_t scans = blocks_read / num_blocks;
  ASSERT_GE(scans, 3u);

  size_t failed = 0;
  size_t resumed = 0;
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    // Sweep the schedule space: fault density 10-40%, every scan of the
    // run as the target, alternating thread counts.
    MinerOptions faulty = options;
    faulty.num_threads = seed % 2 == 0 ? 4 : 1;
    faulty.checkpoint_path = ::testing::TempDir() +
                             StrFormat("/fault_stress_%llu.qcp",
                                       static_cast<unsigned long long>(seed));
    std::remove(faulty.checkpoint_path.c_str());
    faulty.inject_faults_spec = StrFormat(
        "seed=%llu,rate=0.%llu,after=%llu",
        static_cast<unsigned long long>(seed),
        static_cast<unsigned long long>(1 + seed % 4),
        static_cast<unsigned long long>(num_blocks * (seed % scans)));
    Result<FaultInjectionConfig> config =
        ParseFaultSpec(faulty.inject_faults_spec);
    ASSERT_TRUE(config.ok()) << config.status().ToString();
    bool scheduled = false;
    for (uint64_t b = 0; b < num_blocks; ++b) {
      scheduled |=
          ScheduledFault(*config, FaultSite::kBlockRead, b).has_value();
    }

    Result<MiningResult> mined =
        QuantitativeRuleMiner(faulty).MineStreamed(**source);
    if (scheduled) {
      // The target scan reads every block, so it meets a faulted one.
      ASSERT_FALSE(mined.ok()) << "seed " << seed << " did not fail";
      EXPECT_EQ(mined.status().code(), StatusCode::kIOError)
          << "seed " << seed << ": " << mined.status().ToString();
      EXPECT_NE(mined.status().message().find("injected"), std::string::npos)
          << "seed " << seed << ": " << mined.status().ToString();
      ++failed;
    } else {
      ASSERT_TRUE(mined.ok())
          << "seed " << seed << ": " << mined.status().ToString();
      EXPECT_TRUE(testutil::SameRules(*mined, *clean)) << "seed " << seed;
    }

    // The fault-free rerun picks up the last completed pass, if any.
    const bool checkpointed =
        std::filesystem::exists(faulty.checkpoint_path);
    MinerOptions rerun = faulty;
    rerun.inject_faults_spec.clear();
    Result<MiningResult> recovered =
        QuantitativeRuleMiner(rerun).MineStreamed(**source);
    ASSERT_TRUE(recovered.ok())
        << "seed " << seed << ": " << recovered.status().ToString();
    ASSERT_TRUE(testutil::SameRules(*recovered, *clean))
        << "seed " << seed << " diverged after resume";
    if (scheduled) {
      EXPECT_EQ(recovered->stats.checkpoint.resumed, checkpointed)
          << "seed " << seed;
      if (recovered->stats.checkpoint.resumed) ++resumed;
    }
    std::remove(faulty.checkpoint_path.c_str());
  }
  EXPECT_GT(failed, 25u);
  EXPECT_GT(resumed, 0u);
}

}  // namespace
}  // namespace qarm
