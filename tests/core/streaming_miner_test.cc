// End-to-end equivalence of the out-of-core path: mining a QBT file
// block-by-block must produce bit-for-bit the rules of an in-memory run
// over the same records, at any thread count.
#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "core/miner.h"
#include "partition/mapper.h"
#include "storage/qbt_writer.h"
#include "storage/record_source.h"
#include "table/datagen.h"
#include "testutil.h"

namespace qarm {
namespace {

MinerOptions BaseOptions() {
  MinerOptions options;
  options.minsup = 0.20;
  options.minconf = 0.40;
  options.max_support = 0.45;
  options.partial_completeness = 3.0;
  options.interest_level = 1.2;
  return options;
}

void ExpectStreamedMatchesInMemory(size_t num_threads) {
  Table raw = MakeFinancialDataset(2000, 42);
  MinerOptions options = BaseOptions();
  options.num_threads = num_threads;

  MapOptions map_options;
  map_options.partial_completeness = options.partial_completeness;
  map_options.minsup = options.minsup;
  auto mapped = MapTable(raw, map_options);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

  // pid-unique: counting_forced_scalar reruns this suite concurrently with
  // the per-test ctest processes, and WriteQbt rewrites under a peer's mmap.
  const std::string path = ::testing::TempDir() + "/streaming_miner_" +
                           std::to_string(num_threads) + "_" +
                           std::to_string(::getpid()) + ".qbt";
  QbtWriteOptions write_options;
  write_options.rows_per_block = 256;  // 8 blocks: sharding really happens
  ASSERT_TRUE(WriteQbt(*mapped, path, write_options).ok());

  QuantitativeRuleMiner miner(options);
  Result<MiningResult> in_memory_result =
      miner.MineMapped(std::move(mapped).value());
  ASSERT_TRUE(in_memory_result.ok()) << in_memory_result.status().ToString();
  MiningResult& in_memory = *in_memory_result;

  auto source = QbtFileSource::Open(path);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  auto streamed = miner.MineStreamed(**source);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();

  // Bit-for-bit: same rules, in the same order, with identical counts,
  // support, confidence, and interest flags.
  EXPECT_TRUE(testutil::SameRules(*streamed, in_memory))
      << "at " << num_threads << " threads";
  ASSERT_EQ(streamed->frequent_itemsets.size(),
            in_memory.frequent_itemsets.size());
  for (size_t i = 0; i < in_memory.frequent_itemsets.size(); ++i) {
    EXPECT_EQ(streamed->frequent_itemsets[i].count,
              in_memory.frequent_itemsets[i].count);
  }

  // The streamed run actually went through the file: pass 1 touched every
  // block, and each counting pass reported its I/O.
  EXPECT_EQ(streamed->stats.pass1_io.blocks_read, (*source)->num_blocks());
  EXPECT_GT(streamed->stats.pass1_io.bytes_read, 0u);
  ASSERT_GE(streamed->stats.passes.size(), 1u);
  size_t counting_passes = 0;
  for (const PassStats& pass : streamed->stats.passes) {
    // Pass 1 reuses the catalog scan and the terminal pass has no
    // candidates; every pass that actually counted read every block.
    if (pass.k < 2 || pass.num_candidates == 0) continue;
    EXPECT_EQ(pass.counting.io.blocks_read, (*source)->num_blocks());
    ++counting_passes;
  }
  EXPECT_GE(counting_passes, 1u);
  // The in-memory run never touched a file.
  EXPECT_EQ(in_memory.stats.pass1_io.blocks_read, 0u);
}

TEST(StreamingMinerTest, MatchesInMemorySingleThread) {
  ExpectStreamedMatchesInMemory(1);
}

TEST(StreamingMinerTest, MatchesInMemoryFourThreads) {
  ExpectStreamedMatchesInMemory(4);
}

// A checksum error mid-mine must surface as a Status, not a crash.
TEST(StreamingMinerTest, PropagatesChecksumFailure) {
  Table raw = MakeFinancialDataset(500, 7);
  auto mapped = MapTable(raw, MapOptions{});
  ASSERT_TRUE(mapped.ok());

  const std::string path = ::testing::TempDir() + "/streaming_corrupt_" +
                           std::to_string(::getpid()) + ".qbt";
  QbtWriteOptions write_options;
  write_options.rows_per_block = 128;
  ASSERT_TRUE(WriteQbt(*mapped, path, write_options).ok());

  // Flip a data byte in block 1.
  {
    auto probe = QbtFileSource::Open(path);
    ASSERT_TRUE(probe.ok());
    const uint64_t offset = (*probe)->reader().block_offset(1);
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    file.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    file.get(byte);
    byte ^= 0x10;
    file.seekp(static_cast<std::streamoff>(offset));
    file.put(byte);
  }

  auto source = QbtFileSource::Open(path);
  ASSERT_TRUE(source.ok());
  QuantitativeRuleMiner miner(BaseOptions());
  auto result = miner.MineStreamed(**source);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("checksum mismatch"),
            std::string::npos)
      << result.status().ToString();
}

}  // namespace
}  // namespace qarm
