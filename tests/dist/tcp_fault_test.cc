// Fault tolerance end to end, against both worker launchers: an injected
// connection reset relaunches and replays on the same endpoint; a stalled
// reply trips the read deadline (never hangs); an unkillable fault
// schedule exhausts the relaunch budget with a clean IOError; and
// heartbeats keep a slow pass alive. Each of those scenarios runs as
// TcpFaultTest.<name> (sessions against a `qarm worker` server) and
// ForkFaultTest.<name> (forked workers), since both launchers share one
// session, recovery path, deadline and fault injector. TCP alone adds a
// worker-server process SIGKILL-dead mid-pass (redistributed to a
// survivor); fork alone adds a child silent far past the deadline (killed
// and reaped). Every recovered run must be byte-identical to the
// single-process baseline — recovery that changes the answer is just a
// slower bug.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/macros.h"
#include "common/timer.h"
#include "core/miner.h"
#include "dist/dist_miner.h"
#include "dist/worker_server.h"
#include "dist/dist_corpora.h"

namespace qarm {
namespace {

using disttest::ChildWorker;
using disttest::DistCorpus;
using disttest::FinancialCorpus;
using disttest::MustMineStreamed;
using disttest::SpawnDyingWorker;
using testutil::SameRules;

MinerOptions TcpOptions(const DistCorpus& corpus,
                        std::vector<std::string> endpoints) {
  MinerOptions options = corpus.options;
  options.worker_endpoints = std::move(endpoints);
  options.dist_connect_attempts = 3;
  options.dist_connect_backoff_ms = 10.0;
  return options;
}

const DistWorkerStats& WorkerStats(const MiningResult& result, size_t w) {
  QARM_CHECK(w < result.stats.dist.workers.size());
  return result.stats.dist.workers[w];
}

enum class Launcher { kFork, kTcp };

// Two workers over `corpus`: forked children, or two sessions against one
// live in-process worker server. (One forked worker would mine in-process,
// so both launchers use two.)
struct Workers {
  std::unique_ptr<WorkerServer> server;  // TCP only
  std::string endpoint;                  // "" for forked workers
  MinerOptions options;
};

Workers StartWorkers(Launcher launcher, const DistCorpus& corpus) {
  Workers workers;
  if (launcher == Launcher::kFork) {
    workers.options = corpus.options;
    workers.options.num_workers = 2;
    return workers;
  }
  WorkerServerOptions server_options;
  server_options.qbt_path = corpus.qbt_path;
  auto server = WorkerServer::Start(server_options);
  QARM_CHECK(server.ok());
  workers.server = std::move(server).value();
  workers.endpoint = "127.0.0.1:" + std::to_string(workers.server->port());
  workers.options = TcpOptions(corpus, {workers.endpoint, workers.endpoint});
  return workers;
}

// Defines TcpFaultTest.<name> and ForkFaultTest.<name>, both running the
// scenario body that follows against their launcher.
#define FAULT_TEST_BOTH_LAUNCHERS(name)                     \
  void Run##name(Launcher launcher);                        \
  TEST(TcpFaultTest, name) { Run##name(Launcher::kTcp); }   \
  TEST(ForkFaultTest, name) { Run##name(Launcher::kFork); } \
  void Run##name(Launcher launcher)

// A worker-server process dies (exit 137, the SIGKILL status) while its
// session is mid-run. Its endpoint refuses to come back, so the
// coordinator must redistribute the shard to the surviving server and
// still produce byte-identical rules.
TEST(TcpFaultTest, DeadWorkerProcessRedistributesToSurvivor) {
  const DistCorpus& corpus = FinancialCorpus();
  // Fork first: the child must not inherit server threads.
  const ChildWorker child = SpawnDyingWorker(corpus.qbt_path, "2");
  WorkerServerOptions server_options;
  server_options.qbt_path = corpus.qbt_path;
  auto survivor = WorkerServer::Start(server_options);
  ASSERT_TRUE(survivor.ok()) << survivor.status().ToString();

  const std::string child_endpoint =
      "127.0.0.1:" + std::to_string(child.port);
  const std::string survivor_endpoint =
      "127.0.0.1:" + std::to_string((*survivor)->port());
  auto result = MineDistributedQbt(
      corpus.qbt_path, TcpOptions(corpus, {child_endpoint,
                                           survivor_endpoint}));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(SameRules(*result, MustMineStreamed(corpus, 1)));

  // Worker 0's shard ended up on the survivor.
  const DistWorkerStats& stats = WorkerStats(*result, 0);
  EXPECT_GE(stats.reconnects, 1u);
  EXPECT_GE(stats.redistributed, 1u);
  EXPECT_GE(stats.frames_retried, 1u);
  EXPECT_EQ(stats.endpoint, survivor_endpoint);
  EXPECT_GE(result->stats.dist.workers_respawned, 1u);
  // The survivor carried its own session plus the redistributed one.
  EXPECT_GE((*survivor)->sessions_served(), 2u);
}

// An injected connection reset mid-pass: the endpoint itself stays up, so
// the relaunch lands on the same place (replay, not redistribution) at
// generation 1, where the deterministic schedule no longer faults.
FAULT_TEST_BOTH_LAUNCHERS(InjectedConnResetReplaysOnSameEndpoint) {
  const DistCorpus& corpus = FinancialCorpus();
  Workers workers = StartWorkers(launcher, corpus);
  // Write ordinal 2 is the first reply after HelloAck + pass-1: the reset
  // lands mid-pass on both workers' generation-0 sessions.
  workers.options.inject_faults_spec =
      "seed=3,rate=1,fails=1,after=2,kinds=conn_reset";
  auto result = MineDistributedQbt(corpus.qbt_path, workers.options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(SameRules(*result, MustMineStreamed(corpus, 1)));

  size_t reconnects = 0;
  for (size_t w = 0; w < result->stats.dist.workers.size(); ++w) {
    const DistWorkerStats& stats = WorkerStats(*result, w);
    reconnects += stats.reconnects;
    EXPECT_EQ(stats.redistributed, 0u) << "worker " << w;
    EXPECT_EQ(stats.endpoint, workers.endpoint);
    if (launcher == Launcher::kFork) {
      EXPECT_EQ(stats.respawns, stats.reconnects) << "worker " << w;
    }
  }
  EXPECT_GE(reconnects, 1u);
}

// A stalled reply write: the coordinator's per-frame read deadline fires
// (counted as a heartbeat timeout) instead of hanging, and the replayed
// generation completes byte-identically.
FAULT_TEST_BOTH_LAUNCHERS(StalledWorkerTripsDeadlineAndRecovers) {
  const DistCorpus& corpus = FinancialCorpus();
  Workers workers = StartWorkers(launcher, corpus);
  workers.options.dist_io_timeout_ms = 400;
  workers.options.dist_heartbeat_ms = 100;
  workers.options.inject_faults_spec =
      "seed=9,rate=1,fails=1,after=1,kinds=stall,stall=1500";
  auto result = MineDistributedQbt(corpus.qbt_path, workers.options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(SameRules(*result, MustMineStreamed(corpus, 1)));
  const DistWorkerStats& stats = WorkerStats(*result, 0);
  EXPECT_GE(stats.heartbeat_timeouts, 1u);
  EXPECT_GE(stats.reconnects, 1u);
}

// Every generation faults at the same write: after kMaxRespawnsPerWorker
// relaunches the pool gives up with a clean IOError naming the worker —
// bounded, never a hang, and never a wrong answer.
FAULT_TEST_BOTH_LAUNCHERS(UnkillableFaultScheduleExhaustsTheBudget) {
  const DistCorpus& corpus = FinancialCorpus();
  Workers workers = StartWorkers(launcher, corpus);
  // fails=100 far exceeds the budget: generation N faults for every N the
  // pool can afford, always at the first post-handshake write.
  workers.options.inject_faults_spec =
      "seed=3,rate=1,fails=100,after=1,kinds=conn_reset";
  auto result = MineDistributedQbt(corpus.qbt_path, workers.options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  EXPECT_NE(result.status().ToString().find("giving up"), std::string::npos)
      << result.status().ToString();
}

// The liveness channel itself: a healthy but slow pass emits heartbeats
// that the coordinator counts and skips without declaring death.
FAULT_TEST_BOTH_LAUNCHERS(HeartbeatsFlowDuringSlowPasses) {
  const DistCorpus& corpus = FinancialCorpus();
  Workers workers = StartWorkers(launcher, corpus);
  // A stall shorter than the deadline: the reply is late but alive, and
  // the 50 ms heartbeats keep arriving while the coordinator waits.
  workers.options.dist_io_timeout_ms = 10000;
  workers.options.dist_heartbeat_ms = 50;
  workers.options.inject_faults_spec =
      "seed=9,rate=1,fails=1,after=1,kinds=stall,stall=400";
  auto result = MineDistributedQbt(corpus.qbt_path, workers.options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(SameRules(*result, MustMineStreamed(corpus, 1)));
  for (size_t w = 0; w < result->stats.dist.workers.size(); ++w) {
    const DistWorkerStats& stats = WorkerStats(*result, w);
    EXPECT_EQ(stats.reconnects, 0u) << "worker " << w;
    EXPECT_EQ(stats.heartbeat_timeouts, 0u) << "worker " << w;
  }
}

// A forked worker silent for far longer than the read deadline (a 60 s
// stall against a 400 ms deadline): the coordinator must SIGKILL and reap
// the old child rather than wait the stall out in waitpid, and the
// relaunched generation replays to byte-identical rules.
TEST(ForkFaultTest, SilentWorkerIsKilledAndReplayed) {
  const DistCorpus& corpus = FinancialCorpus();
  Workers workers = StartWorkers(Launcher::kFork, corpus);
  workers.options.dist_io_timeout_ms = 400;
  workers.options.dist_heartbeat_ms = 100;
  workers.options.inject_faults_spec =
      "seed=9,rate=1,fails=1,after=1,kinds=stall,stall=60000";
  const Timer timer;
  auto result = MineDistributedQbt(corpus.qbt_path, workers.options);
  const double seconds = timer.ElapsedSeconds();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_LT(seconds, 20.0);
  EXPECT_TRUE(SameRules(*result, MustMineStreamed(corpus, 1)));
  for (size_t w = 0; w < result->stats.dist.workers.size(); ++w) {
    const DistWorkerStats& stats = WorkerStats(*result, w);
    EXPECT_GE(stats.heartbeat_timeouts, 1u) << "worker " << w;
    EXPECT_GE(stats.respawns, 1u) << "worker " << w;
  }
}

}  // namespace
}  // namespace qarm
