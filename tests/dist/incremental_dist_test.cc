// Incremental mining on the workers: `mine --append` scans the appended
// blocks through the same record scan (core/record_scan.h) in process, on
// forked workers and over TCP. Every cell of {in-process, fork, TCP} x
// workers {1, 2, 4} x threads {1, 4} must mine the grown file to rules
// byte-identical to a from-scratch mine, with the same passes merged and
// rescanned as in process, through a kill fault and a connection reset
// placed in a delta counting pass. The corpus cycles values with fixed
// periods (testutil::MakeCyclingTable), so base and delta have identical
// item proportions and the delta passes really merge.
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/macros.h"
#include "core/incremental_miner.h"
#include "core/miner.h"
#include "dist/dist_miner.h"
#include "dist/worker_server.h"
#include "storage/qbt_writer.h"
#include "storage/record_source.h"
#include "dist/dist_corpora.h"

namespace qarm {
namespace {

using disttest::ChildWorker;
using disttest::SpawnDyingWorker;
using testutil::MakeCyclingTable;
using testutil::SameRules;

constexpr size_t kBaseRows = 18 * 40;  // 12 blocks of 64 rows
constexpr size_t kRowsPerBlock = 64;

// Kills every worker once, at its first block read after two: a read of
// a delta counting pass, since no worker holds more than two delta blocks.
constexpr char kKillInADeltaPass[] =
    "seed=9,rate=1,fails=1,after=2,kinds=kill";
// Resets every worker's connection once, at its third frame write: the
// reply to the first delta count request (after the HelloAck and the
// pass-1 reply).
constexpr char kResetInADeltaPass[] =
    "seed=3,rate=1,fails=1,after=2,kinds=conn_reset";

std::string TempPath(const std::string& name) {
  // The pid keeps concurrent ctest processes apart.
  return ::testing::TempDir() + "/incdist_" + std::to_string(::getpid()) +
         "_" + name;
}

// A QBT file mined once in append mode (the base) and then grown, plus
// what every incremental run over it must reproduce.
struct GrownFile {
  std::string qbt;
  std::string base_checkpoint;  // the base run's complete checkpoint
  MinerOptions options;
  size_t base_blocks = 0;
  size_t total_blocks = 0;
  std::optional<MiningResult> from_scratch;  // the grown file mined flat
  IncrementalDecision in_process;  // the in-process incremental run
};

MinerOptions BaseOptions(double minsup) {
  MinerOptions options;
  options.minsup = minsup;
  options.minconf = 0.30;
  options.max_support = 0.95;
  options.interest_level = 0.0;
  options.dist_connect_attempts = 3;
  options.dist_connect_backoff_ms = 10.0;
  return options;
}

// Mines `grown` incrementally from its own copy, `tag`, of the base
// checkpoint: in process when `options` names no workers.
Result<MiningResult> MineFromBase(const GrownFile& grown, MinerOptions options,
                                  const std::string& tag,
                                  IncrementalDecision* decision) {
  options.checkpoint_path = TempPath(tag + ".qcp");
  std::filesystem::copy_file(
      grown.base_checkpoint, options.checkpoint_path,
      std::filesystem::copy_options::overwrite_existing);
  if (options.num_workers <= 1 && options.worker_endpoints.empty()) {
    return MineIncremental(grown.qbt, options, decision);
  }
  return MineDistributedQbt(grown.qbt, options, decision);
}

// Writes kBaseRows cycling rows, mines them in append mode to leave the
// base checkpoint, and appends `delta`.
GrownFile MakeGrownFile(const std::string& tag, const MappedTable& delta,
                        double minsup) {
  GrownFile grown;
  grown.qbt = TempPath(tag + ".qbt");
  grown.base_checkpoint = TempPath(tag + "_base.qcp");
  grown.options = BaseOptions(minsup);
  QARM_CHECK(WriteQbt(MakeCyclingTable(kBaseRows), grown.qbt,
                      {/*rows_per_block=*/kRowsPerBlock})
                 .ok());
  std::remove(grown.base_checkpoint.c_str());
  MinerOptions base_options = grown.options;
  base_options.checkpoint_path = grown.base_checkpoint;
  QARM_CHECK(MineIncremental(grown.qbt, base_options).ok());
  grown.base_blocks = QbtFileSource::Open(grown.qbt).value()->num_blocks();
  QARM_CHECK(AppendQbt(delta, grown.qbt).ok());
  grown.total_blocks = QbtFileSource::Open(grown.qbt).value()->num_blocks();

  auto source = QbtFileSource::Open(grown.qbt);
  QARM_CHECK(source.ok());
  auto flat = QuantitativeRuleMiner(grown.options).MineStreamed(**source);
  QARM_CHECK(flat.ok());
  grown.from_scratch.emplace(std::move(flat).value());
  QARM_CHECK(MineFromBase(grown, grown.options, tag + "_reference",
                          &grown.in_process)
                 .ok());
  return grown;
}

// Three delta blocks (144 rows) in the base's proportions: every counting
// pass merges.
const GrownFile& SameProportions() {
  static const GrownFile* grown = new GrownFile(
      MakeGrownFile("same", MakeCyclingTable(18 * 8), /*minsup=*/0.03));
  return *grown;
}

// The same three blocks with every value 0: at minsup 0.10 the pair
// (income 1, cars 1) falls below the grown threshold, so pass 2 merges
// and pass 3 rescans the whole file.
const GrownFile& MovedFrontier() {
  static const GrownFile* grown = [] {
    MappedTable zeros = MakeCyclingTable(18 * 8);
    for (size_t r = 0; r < zeros.num_rows(); ++r) {
      for (size_t a = 0; a < zeros.num_attributes(); ++a) {
        zeros.set_value(r, a, 0);
      }
    }
    return new GrownFile(MakeGrownFile("moved", zeros, /*minsup=*/0.10));
  }();
  return *grown;
}

// One delta block (36 rows), fewer blocks than workers.
const GrownFile& OneBlock() {
  static const GrownFile* grown = new GrownFile(
      MakeGrownFile("one", MakeCyclingTable(18 * 2), /*minsup=*/0.03));
  return *grown;
}

// The run mined the grown file incrementally, as the in-process run did,
// to the from-scratch rules.
void ExpectSameAsFromScratch(const GrownFile& grown,
                             const Result<MiningResult>& got,
                             const IncrementalDecision& decision) {
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(decision.incremental) << decision.reason;
  EXPECT_EQ(decision.base_blocks, grown.base_blocks);
  EXPECT_EQ(decision.delta_blocks, grown.total_blocks - grown.base_blocks);
  EXPECT_EQ(decision.passes_merged, grown.in_process.passes_merged);
  EXPECT_EQ(decision.passes_rescanned, grown.in_process.passes_rescanned);
  EXPECT_TRUE(SameRules(*got, *grown.from_scratch));
}

size_t Reconnects(const MiningResult& result) {
  size_t reconnects = 0;
  for (const DistWorkerStats& worker : result.stats.dist.workers) {
    reconnects += worker.reconnects;
  }
  return reconnects;
}

// The fixtures are what the matrix assumes: the same-proportion delta
// merges every counting pass, the moved frontier rescans a pass, and
// incremental runs in process at both thread counts — the second one
// interrupted after its first delta counting pass and resumed — match
// the from-scratch mine.
TEST(IncrementalDistTest, InProcessRunsMatchFromScratch) {
  const GrownFile& grown = SameProportions();
  ASSERT_EQ(grown.total_blocks - grown.base_blocks, 3u);
  EXPECT_TRUE(grown.in_process.incremental) << grown.in_process.reason;
  EXPECT_GE(grown.in_process.passes_merged, 2u);
  EXPECT_EQ(grown.in_process.passes_rescanned, 0u);
  EXPECT_GE(MovedFrontier().in_process.passes_merged, 1u);
  EXPECT_GE(MovedFrontier().in_process.passes_rescanned, 1u);

  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    MinerOptions options = grown.options;
    options.num_threads = threads;
    IncrementalDecision decision;
    const Result<MiningResult> got =
        MineFromBase(grown, options, "inproc", &decision);
    ExpectSameAsFromScratch(grown, got, decision);
  }

  // Stop after pass 2, then rerun: the mid-run checkpoint resumes.
  MinerOptions options = grown.options;
  options.checkpoint_path = TempPath("inproc_stopped.qcp");
  std::filesystem::copy_file(
      grown.base_checkpoint, options.checkpoint_path,
      std::filesystem::copy_options::overwrite_existing);
  options.stop_after_pass = 2;
  IncrementalDecision stopped;
  const Result<MiningResult> cut = MineIncremental(grown.qbt, options, &stopped);
  ASSERT_FALSE(cut.ok());
  EXPECT_EQ(cut.status().code(), StatusCode::kCancelled);
  options.stop_after_pass = 0;
  IncrementalDecision resumed;
  const Result<MiningResult> got =
      MineIncremental(grown.qbt, options, &resumed);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(resumed.resumed) << resumed.reason;
  EXPECT_TRUE(SameRules(*got, *grown.from_scratch));
}

enum class Launcher { kFork, kTcp };

struct Cell {
  Launcher launcher;
  size_t workers;
  size_t threads;
};

std::string CellName(const Cell& cell) {
  return std::string(cell.launcher == Launcher::kFork ? "fork" : "tcp") +
         "_w" + std::to_string(cell.workers) + "_t" +
         std::to_string(cell.threads);
}

// gtest prints a parameter in the test's listed name; by default as its
// bytes, padding included.
void PrintTo(const Cell& cell, std::ostream* out) { *out << CellName(cell); }

// `count` live in-process worker servers over `qbt`.
std::vector<std::unique_ptr<WorkerServer>> StartServers(const std::string& qbt,
                                                        size_t count) {
  std::vector<std::unique_ptr<WorkerServer>> servers;
  for (size_t i = 0; i < count; ++i) {
    WorkerServerOptions options;
    options.qbt_path = qbt;
    servers.push_back(WorkerServer::Start(options).value());
  }
  return servers;
}

std::string Endpoint(uint16_t port) {
  return "127.0.0.1:" + std::to_string(port);
}

class IncrementalDistMatrixTest : public ::testing::TestWithParam<Cell> {};

// One cell: a kill in a delta pass, then a connection reset in a delta
// pass. A forked worker dies by the kill fault; over TCP, endpoint 0 is a
// worker-server process that dies on its first count request, and its
// range moves to a survivor. A single TCP endpoint has no survivor to move
// to, so that cell runs the reset alone.
TEST_P(IncrementalDistMatrixTest, ByteIdenticalThroughKillAndReset) {
  const Cell cell = GetParam();
  const GrownFile& grown = SameProportions();
  MinerOptions options = grown.options;
  options.num_threads = cell.threads;

  if (cell.launcher == Launcher::kFork) {
    options.num_workers = cell.workers;
    options.inject_faults_spec = kKillInADeltaPass;
    IncrementalDecision killed;
    const Result<MiningResult> got =
        MineFromBase(grown, options, "fork_kill", &killed);
    ExpectSameAsFromScratch(grown, got, killed);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->stats.dist.num_workers, cell.workers);
    EXPECT_GE(got->stats.dist.workers_respawned, 1u);

    options.inject_faults_spec = kResetInADeltaPass;
    IncrementalDecision reset;
    const Result<MiningResult> again =
        MineFromBase(grown, options, "fork_reset", &reset);
    ExpectSameAsFromScratch(grown, again, reset);
    ASSERT_TRUE(again.ok());
    EXPECT_GE(Reconnects(*again), 1u);
    return;
  }

  // Fork the dying server before any in-process server starts a thread.
  std::unique_ptr<ChildWorker> dying;
  if (cell.workers > 1) {
    dying = std::make_unique<ChildWorker>(
        SpawnDyingWorker(grown.qbt, /*frames=*/"3"));
  }
  const std::vector<std::unique_ptr<WorkerServer>> servers =
      StartServers(grown.qbt, cell.workers);
  std::vector<std::string> endpoints;
  for (const auto& server : servers) {
    endpoints.push_back(Endpoint(server->port()));
  }
  if (dying != nullptr) {
    options.worker_endpoints = endpoints;
    options.worker_endpoints[0] = Endpoint(dying->port);
    IncrementalDecision killed;
    const Result<MiningResult> got =
        MineFromBase(grown, options, "tcp_kill", &killed);
    ExpectSameAsFromScratch(grown, got, killed);
    ASSERT_TRUE(got.ok());
    EXPECT_GE(got->stats.dist.workers[0].redistributed, 1u);
    EXPECT_EQ(got->stats.dist.workers[0].endpoint, endpoints[1]);
  }

  options.worker_endpoints = endpoints;
  options.inject_faults_spec = kResetInADeltaPass;
  IncrementalDecision reset;
  const Result<MiningResult> got =
      MineFromBase(grown, options, "tcp_reset", &reset);
  ExpectSameAsFromScratch(grown, got, reset);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->stats.dist.num_workers, cell.workers);
  EXPECT_GE(Reconnects(*got), 1u);
}

// Forked --workers=1 mines in process, which the in-process test covers.
INSTANTIATE_TEST_SUITE_P(
    Cells, IncrementalDistMatrixTest,
    ::testing::Values(Cell{Launcher::kFork, 2, 1}, Cell{Launcher::kFork, 2, 4},
                      Cell{Launcher::kFork, 4, 1}, Cell{Launcher::kFork, 4, 4},
                      Cell{Launcher::kTcp, 1, 1}, Cell{Launcher::kTcp, 1, 4},
                      Cell{Launcher::kTcp, 2, 1}, Cell{Launcher::kTcp, 2, 4},
                      Cell{Launcher::kTcp, 4, 1}, Cell{Launcher::kTcp, 4, 4}),
    [](const ::testing::TestParamInfo<Cell>& info) {
      return CellName(info.param);
    });

// A pass whose frontier moved scans the whole file through the same pool
// that scanned the delta for the passes before it.
TEST(IncrementalDistTest, MovedFrontierRescansOnTheWorkers) {
  const GrownFile& grown = MovedFrontier();
  MinerOptions options = grown.options;
  options.num_workers = 2;
  IncrementalDecision forked;
  ExpectSameAsFromScratch(
      grown, MineFromBase(grown, options, "moved_fork", &forked), forked);

  const std::vector<std::unique_ptr<WorkerServer>> servers =
      StartServers(grown.qbt, 2);
  options.num_workers = 1;
  options.worker_endpoints = {Endpoint(servers[0]->port()),
                              Endpoint(servers[1]->port())};
  IncrementalDecision tcp;
  ExpectSameAsFromScratch(
      grown, MineFromBase(grown, options, "moved_tcp", &tcp), tcp);
}

// One appended block at --workers=4: SplitRange gives the delta one
// range, so only worker 0 is asked to scan it, and the rules still match.
TEST(IncrementalDistTest, DeltaOfOneBlockScansOnOneOfFourWorkers) {
  const GrownFile& grown = OneBlock();
  ASSERT_EQ(grown.total_blocks - grown.base_blocks, 1u);
  MinerOptions options = grown.options;
  options.num_workers = 4;
  IncrementalDecision decision;
  const Result<MiningResult> got =
      MineFromBase(grown, options, "one_block", &decision);
  ExpectSameAsFromScratch(grown, got, decision);
  ASSERT_TRUE(got.ok());
  const std::vector<DistWorkerStats>& workers = got->stats.dist.workers;
  ASSERT_EQ(workers.size(), 4u);
  // The idle workers only shook hands and took the catalog, and answered
  // nothing past their HelloAck.
  for (size_t w = 1; w < workers.size(); ++w) {
    EXPECT_EQ(workers[w].bytes_received, workers[1].bytes_received) << w;
    EXPECT_LT(workers[w].bytes_received, workers[0].bytes_received) << w;
  }
}

// `qarm worker` servers started on the base file keep running through
// `qarm append`: the next incremental run mines the grown file on the same
// servers, to the from-scratch rules.
TEST(IncrementalDistTest, RunningWorkerFollowsAnAppend) {
  const std::string qbt = TempPath("follow.qbt");
  QARM_CHECK(WriteQbt(MakeCyclingTable(kBaseRows), qbt,
                      {/*rows_per_block=*/kRowsPerBlock})
                 .ok());
  const std::vector<std::unique_ptr<WorkerServer>> servers =
      StartServers(qbt, 2);
  MinerOptions options = BaseOptions(/*minsup=*/0.03);
  options.checkpoint_path = TempPath("follow.qcp");
  std::remove(options.checkpoint_path.c_str());
  for (const auto& server : servers) {
    options.worker_endpoints.push_back(Endpoint(server->port()));
  }
  IncrementalDecision base;
  ASSERT_TRUE(MineDistributedQbt(qbt, options, &base).ok());
  EXPECT_FALSE(base.incremental);

  ASSERT_TRUE(AppendQbt(MakeCyclingTable(18 * 8), qbt).ok());
  IncrementalDecision grown;
  const Result<MiningResult> got = MineDistributedQbt(qbt, options, &grown);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(grown.incremental) << grown.reason;
  EXPECT_EQ(grown.delta_blocks, 3u);
  EXPECT_GE(grown.passes_merged, 2u);

  auto source = QbtFileSource::Open(qbt);
  ASSERT_TRUE(source.ok());
  const Result<MiningResult> flat =
      QuantitativeRuleMiner(BaseOptions(0.03)).MineStreamed(**source);
  ASSERT_TRUE(flat.ok());
  ASSERT_FALSE(flat->rules.empty());
  EXPECT_TRUE(SameRules(*got, *flat));
}

}  // namespace
}  // namespace qarm
