// The fault injector: the spec grammar, the one seeded schedule that block
// reads and frame writes share, and FaultInjectingRecordSource failing
// every read of a scheduled block like a real read error.
#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "partition/mapper.h"
#include "storage/fault_injection.h"
#include "storage/record_source.h"
#include "table/datagen.h"

namespace qarm {
namespace {

// A small mapped table as the inner source; its reads never fail, so every
// failure seen through the decorator is an injected one.
class FaultFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    Table raw = MakeFinancialDataset(640, 3);
    Result<MappedTable> mapped = MapTable(raw, MapOptions{});
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    table_ = std::make_unique<MappedTable>(std::move(mapped).value());
    source_ = std::make_unique<MappedTableSource>(*table_, /*block_rows=*/64);
    ASSERT_GE(source_->num_blocks(), 10u);
  }

  std::unique_ptr<MappedTable> table_;
  std::unique_ptr<MappedTableSource> source_;
};

TEST(ParseFaultSpecTest, FullGrammar) {
  Result<FaultInjectionConfig> config = ParseFaultSpec(
      "seed=7,rate=0.25,fails=2,after=3,kinds=eio+crc,stall=250");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  EXPECT_EQ(config->seed, 7u);
  EXPECT_DOUBLE_EQ(config->rate, 0.25);
  EXPECT_EQ(config->fails, 2u);
  EXPECT_EQ(config->after, 3u);
  EXPECT_EQ(config->kinds, static_cast<uint32_t>(FaultKind::kEio) |
                               static_cast<uint32_t>(FaultKind::kCrc));
  EXPECT_DOUBLE_EQ(config->stall_ms, 250.0);
}

TEST(ParseFaultSpecTest, DefaultsFromSingleKey) {
  Result<FaultInjectionConfig> config = ParseFaultSpec("seed=9");
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->seed, 9u);
  EXPECT_DOUBLE_EQ(config->rate, 0.05);
  EXPECT_EQ(config->fails, 1u);
  EXPECT_EQ(config->after, 0u);
  EXPECT_EQ(config->kinds, static_cast<uint32_t>(FaultKind::kEio) |
                               static_cast<uint32_t>(FaultKind::kShortRead) |
                               static_cast<uint32_t>(FaultKind::kCrc));
}

// `attempts` and `backoff` configured a retry of injected faults that no
// longer exists; they are unknown keys now.
TEST(ParseFaultSpecTest, RejectsMalformedSpecs) {
  for (const char* bad :
       {"", "   ", "seed", "seed=", "seed=x", "rate=0", "rate=1.5",
        "rate=-0.1", "fails=0", "attempts=0", "attempts=2", "kinds=",
        "kinds=disk", "kinds=eio+bogus", "backoff=-1", "backoff=1",
        "stall=-1", "bogus=1", "rate=0.5,bogus=1"}) {
    Result<FaultInjectionConfig> config = ParseFaultSpec(bad);
    EXPECT_FALSE(config.ok()) << "spec accepted: '" << bad << "'";
    EXPECT_EQ(config.status().code(), StatusCode::kInvalidArgument);
  }
}

// The kind each key draws, 0 when spared.
std::vector<uint32_t> DrawKeys(const FaultInjectionConfig& config,
                               FaultSite site, size_t keys) {
  std::vector<uint32_t> kinds;
  for (uint64_t key = 0; key < keys; ++key) {
    const std::optional<FaultKind> kind = ScheduledFault(config, site, key);
    kinds.push_back(kind.has_value() ? static_cast<uint32_t>(*kind) : 0);
  }
  return kinds;
}

TEST_F(FaultFixture, ScheduleIsDeterministic) {
  FaultInjectionConfig config;
  config.seed = 11;
  config.rate = 0.4;
  const size_t blocks = source_->num_blocks();
  const std::vector<uint32_t> a =
      DrawKeys(config, FaultSite::kBlockRead, blocks);
  EXPECT_EQ(a, DrawKeys(config, FaultSite::kBlockRead, blocks));
  // rate=0.4 over >= 10 blocks: the schedule actually faults something but
  // not everything.
  const size_t faulted = blocks - std::count(a.begin(), a.end(), 0u);
  EXPECT_GT(faulted, 0u);
  EXPECT_LT(faulted, blocks);

  FaultInjectionConfig other = config;
  other.seed = 12;
  EXPECT_NE(a, DrawKeys(other, FaultSite::kBlockRead, blocks))
      << "seed must change the schedule";

  // The source fails exactly the scheduled reads, in any read order.
  const FaultInjectingRecordSource faulty(*source_, config);
  for (size_t blk = blocks; blk-- > 0;) {
    BlockView view;
    EXPECT_EQ(faulty.ReadBlock(blk, &view).ok(), a[blk] == 0)
        << "block " << blk;
  }
}

// Reads and writes draw from their own streams and kinds. These are the
// schedules that every spec had while the two sites kept separate copies
// of the draw, so an existing spec still faults the same blocks and the
// same writes.
TEST_F(FaultFixture, ScheduleMatchesPinnedKeys) {
  constexpr uint32_t kEio = static_cast<uint32_t>(FaultKind::kEio);
  constexpr uint32_t kShort = static_cast<uint32_t>(FaultKind::kShortRead);
  constexpr uint32_t kCrc = static_cast<uint32_t>(FaultKind::kCrc);
  constexpr uint32_t kKill = static_cast<uint32_t>(FaultKind::kKill);
  constexpr uint32_t kReset = static_cast<uint32_t>(FaultKind::kConnReset);
  constexpr uint32_t kPartial =
      static_cast<uint32_t>(FaultKind::kPartialWrite);
  FaultInjectionConfig reads;
  reads.seed = 11;
  reads.rate = 0.4;
  reads.kinds = kEio | kShort | kCrc | kKill;
  EXPECT_EQ(DrawKeys(reads, FaultSite::kBlockRead, 16),
            (std::vector<uint32_t>{kCrc, 0, kShort, 0, kShort, 0, kEio, kEio,
                                   0, kCrc, 0, 0, kCrc, kKill, 0, kShort}));
  FaultInjectionConfig writes;
  writes.seed = 77;
  writes.rate = 0.5;
  writes.kinds = kReset | kPartial |
                 static_cast<uint32_t>(FaultKind::kStall);
  EXPECT_EQ(DrawKeys(writes, FaultSite::kFrameWrite, 16),
            (std::vector<uint32_t>{0, 0, kPartial, 0, 0, kReset, 0, kReset,
                                   0, kPartial, kPartial, 0, 0, kReset, 0,
                                   0}));
  // A site never draws the other site's kinds.
  EXPECT_EQ(DrawKeys(writes, FaultSite::kBlockRead, 16),
            std::vector<uint32_t>(16, 0));
  EXPECT_FALSE(FaultsArmed(writes, FaultSite::kBlockRead));
  EXPECT_TRUE(FaultsArmed(writes, FaultSite::kFrameWrite));
}

// A faulted read fails with its kind's IOError on every attempt and in
// every pass: nothing retries it, and the "device" never recovers within
// one incarnation.
TEST_F(FaultFixture, FaultedReadsFailEveryTime) {
  FaultInjectionConfig config;
  config.seed = 5;
  config.rate = 1.0;  // every block faulted
  const FaultInjectingRecordSource faulty(*source_, config);

  const size_t blocks = source_->num_blocks();
  size_t failed_reads = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t blk = 0; blk < blocks; ++blk) {
      BlockView view;
      const Status status = faulty.ReadBlock(blk, &view);
      failed_reads += status.ok() ? 0 : 1;
      ASSERT_FALSE(status.ok()) << "block " << blk;
      EXPECT_EQ(status.code(), StatusCode::kIOError);
      EXPECT_NE(status.message().find("injected"), std::string::npos)
          << status.ToString();
      EXPECT_NE(status.message().find("block " + std::to_string(blk)),
                std::string::npos)
          << status.ToString();
    }
  }
  EXPECT_EQ(failed_reads, 2 * blocks);
}

// `fails` counts incarnations: a reader at generation >= fails reads the
// same schedule clean, the way a respawned worker replays its shard.
TEST_F(FaultFixture, FaultsAreGatedByGeneration) {
  FaultInjectionConfig config;
  config.seed = 5;
  config.rate = 1.0;
  config.fails = 2;
  config.kinds = static_cast<uint32_t>(FaultKind::kEio);
  for (uint64_t generation : {0u, 1u, 2u, 3u}) {
    config.generation = generation;
    const FaultInjectingRecordSource faulty(*source_, config);
    BlockView view;
    const Status status = faulty.ReadBlock(0, &view);
    EXPECT_EQ(status.ok(), generation >= config.fails)
        << "generation " << generation << ": " << status.ToString();
    if (!status.ok()) {
      EXPECT_NE(status.message().find("injected EIO"), std::string::npos);
    }
  }
}

TEST_F(FaultFixture, AfterReadsSuppressesEarlyInjection) {
  FaultInjectionConfig config;
  config.seed = 5;
  config.rate = 1.0;
  config.after = 3;
  const FaultInjectingRecordSource faulty(*source_, config);

  // The first 3 reads are clean; every later one injects.
  for (size_t i = 0; i < 3; ++i) {
    BlockView view;
    ASSERT_TRUE(faulty.ReadBlock(i, &view).ok()) << "read " << i;
  }
  for (size_t i = 0; i < 3; ++i) {
    BlockView view;
    EXPECT_FALSE(faulty.ReadBlock(i, &view).ok()) << "read " << 3 + i;
  }
}

TEST_F(FaultFixture, StatsPassThroughToInnerSource) {
  FaultInjectionConfig config;
  config.rate = 0.5;
  const FaultInjectingRecordSource faulty(*source_, config);
  EXPECT_EQ(faulty.num_rows(), source_->num_rows());
  EXPECT_EQ(faulty.num_blocks(), source_->num_blocks());
  EXPECT_EQ(faulty.attributes().size(), source_->attributes().size());
  for (size_t blk = 0; blk < source_->num_blocks(); ++blk) {
    EXPECT_EQ(faulty.block_rows(blk), source_->block_rows(blk));
    EXPECT_EQ(faulty.block_row_begin(blk), source_->block_row_begin(blk));
  }
}

}  // namespace
}  // namespace qarm
