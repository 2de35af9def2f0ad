// The hard acceptance gate for the SIMD counting kernels: mined rules must
// be byte-identical across QARM_FORCE_ISA=scalar/avx2 at every thread
// count, on both the in-memory and the QBT-streamed path, so any kernel
// table's divergence fails here before it can ship. (The per-candidate
// oracle is the brute-force counter in support_counting_test.cc.)
#include <cstdint>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "common/cpu_dispatch.h"
#include "common/macros.h"
#include "core/miner.h"
#include "partition/mapper.h"
#include "storage/qbt_writer.h"
#include "storage/record_source.h"
#include "table/datagen.h"
#include "testutil.h"

namespace qarm {
namespace {

MinerOptions BaseOptions(size_t num_threads) {
  MinerOptions options;
  options.minsup = 0.20;
  options.minconf = 0.40;
  options.max_support = 0.40;
  options.partial_completeness = 3.0;
  options.interest_level = 1.2;
  options.num_threads = num_threads;
  return options;
}

class IsaDeterminismTest : public ::testing::Test {
 protected:
  void TearDown() override { ClearIsaForTest(); }
};

// One dataset, shared by every combination: mapped once, written to QBT
// once, mined under each forced ISA.
struct Corpus {
  Table raw = MakeFinancialDataset(1500, 91);
  std::string qbt_path;

  Corpus() {
    // Must match BaseOptions: Mine() re-maps the raw table with the same
    // parameters, and the QBT snapshot has to partition identically.
    MapOptions map_options;
    map_options.partial_completeness = 3.0;
    map_options.minsup = 0.20;
    auto mapped = MapTable(raw, map_options);
    QARM_CHECK(mapped.ok());
    qbt_path = ::testing::TempDir() + "/isa_determinism.qbt";
    QbtWriteOptions write_options;
    write_options.rows_per_block = 256;  // enough blocks to shard over
    QARM_CHECK(WriteQbt(*mapped, qbt_path, write_options).ok());
  }
};

Corpus& GetCorpus() {
  static Corpus* corpus = new Corpus();
  return *corpus;
}

Result<MiningResult> MineCorpus(size_t num_threads, bool streamed) {
  Corpus& corpus = GetCorpus();
  QuantitativeRuleMiner miner(BaseOptions(num_threads));
  if (streamed) {
    auto source = QbtFileSource::Open(corpus.qbt_path);
    QARM_CHECK(source.ok());
    return miner.MineStreamed(**source);
  }
  return miner.Mine(corpus.raw);
}

TEST_F(IsaDeterminismTest, RulesByteIdenticalAcrossIsasAndThreads) {
  // Baseline: the scalar kernel table, serial, in memory.
  SetIsaForTest(SimdIsa::kScalar);
  const Result<MiningResult> baseline = MineCorpus(1, /*streamed=*/false);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  // An empty result would make every cross-ISA comparison vacuous.
  ASSERT_FALSE(baseline->rules.empty());

  const SimdIsa detected = DetectCpuIsa();
  for (SimdIsa isa : {SimdIsa::kScalar, SimdIsa::kAvx2}) {
    if (static_cast<int>(isa) > static_cast<int>(detected)) continue;
    SetIsaForTest(isa);
    ASSERT_EQ(ActiveIsa(), isa);
    for (size_t threads : {size_t{1}, size_t{4}, size_t{8}}) {
      for (bool streamed : {false, true}) {
        SCOPED_TRACE(std::string(IsaName(isa)) + " threads=" +
                     std::to_string(threads) +
                     (streamed ? " streamed" : " in-memory"));
        // A mining failure under a forced ISA is itself a determinism bug.
        const Result<MiningResult> got = MineCorpus(threads, streamed);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ASSERT_TRUE(testutil::SameRules(*got, *baseline));
      }
    }
  }
}

// Every counting pass must report the kernel table it actually ran, under
// every ISA the CPU supports.
TEST_F(IsaDeterminismTest, StatsReportForcedIsa) {
  Corpus& corpus = GetCorpus();
  const SimdIsa detected = DetectCpuIsa();
  QuantitativeRuleMiner miner(BaseOptions(1));
  for (SimdIsa isa : {SimdIsa::kScalar, SimdIsa::kAvx2}) {
    if (static_cast<int>(isa) > static_cast<int>(detected)) continue;
    SCOPED_TRACE(IsaName(isa));
    SetIsaForTest(isa);
    auto result = miner.Mine(corpus.raw);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    bool saw_counting_pass = false;
    for (const PassStats& pass : result->stats.passes) {
      if (pass.k < 2 || pass.num_candidates == 0) continue;
      saw_counting_pass = true;
      EXPECT_EQ(pass.counting.isa, isa) << "pass k=" << pass.k;
    }
    EXPECT_TRUE(saw_counting_pass);
  }
}

}  // namespace
}  // namespace qarm
