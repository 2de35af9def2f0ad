// The TCP acceptance gate: mining over `qarm worker` TCP sessions must
// emit rules byte-identical to the single-process streamed miner at every
// worker and thread count, on the same three corpora as the fork-mode
// matrix (dist_corpora.h). The worker servers run in-process here — the
// wire, the handshake, and the coordinator are exactly the production
// code; only the process boundary is elided (tcp_fault_test.cc and the
// CLI smoke test cover real process death).
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/macros.h"
#include "core/frequent_items.h"
#include "core/miner.h"
#include "core/options.h"
#include "dist/dist_miner.h"
#include "dist/framing.h"
#include "dist/handshake.h"
#include "dist/messages.h"
#include "dist/transport.h"
#include "dist/worker_server.h"
#include "storage/checkpoint_format.h"
#include "storage/record_source.h"
#include "dist/dist_corpora.h"

namespace qarm {
namespace {

using disttest::DistCorpus;
using disttest::FinancialCorpus;
using disttest::MissingValuesCorpus;
using disttest::MustMineStreamed;
using disttest::TaxonomyCorpus;
using testutil::SameRules;

// A set of live worker servers over one corpus, plus their endpoints.
struct ServerFleet {
  std::vector<std::unique_ptr<WorkerServer>> servers;
  std::vector<std::string> endpoints;
};

ServerFleet StartFleet(const DistCorpus& corpus, size_t count) {
  ServerFleet fleet;
  for (size_t i = 0; i < count; ++i) {
    WorkerServerOptions options;
    options.qbt_path = corpus.qbt_path;
    auto server = WorkerServer::Start(options);
    QARM_CHECK(server.ok());
    fleet.endpoints.push_back("127.0.0.1:" +
                              std::to_string((*server)->port()));
    fleet.servers.push_back(std::move(server).value());
  }
  return fleet;
}

MiningResult MustMineTcp(const DistCorpus& corpus,
                         const std::vector<std::string>& endpoints,
                         size_t threads) {
  MinerOptions options = corpus.options;
  options.worker_endpoints = endpoints;
  options.num_threads = threads;
  options.dist_connect_attempts = 3;
  options.dist_connect_backoff_ms = 10.0;
  auto result = MineDistributedQbt(corpus.qbt_path, options);
  QARM_CHECK(result.ok());
  return std::move(result).value();
}

// The full TCP matrix for one corpus: every endpoint x thread combination
// must reproduce the single-process rules bit for bit, with zero
// robustness events.
void ExpectTcpMatrixMatchesBaseline(const DistCorpus& corpus) {
  ASSERT_GE(corpus.num_blocks, 4u) << "fixture too small to shard";
  const MiningResult baseline = MustMineStreamed(corpus, /*threads=*/1);
  ASSERT_FALSE(baseline.rules.empty());

  for (size_t workers : {size_t{1}, size_t{2}, size_t{4}}) {
    const ServerFleet fleet = StartFleet(corpus, workers);
    for (size_t threads : {size_t{1}, size_t{4}}) {
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " threads=" + std::to_string(threads));
      const MiningResult got =
          MustMineTcp(corpus, fleet.endpoints, threads);
      EXPECT_TRUE(SameRules(got, baseline));
      // A single TCP endpoint still mines remotely — unlike --workers=1,
      // which short-circuits in-process. That is the point of the flag.
      EXPECT_EQ(got.stats.dist.num_workers, workers);
      ASSERT_EQ(got.stats.dist.workers.size(), workers);
      for (const DistWorkerStats& stats : got.stats.dist.workers) {
        EXPECT_EQ(stats.endpoint, fleet.endpoints[stats.worker_id]);
        EXPECT_EQ(stats.reconnects, 0u);
        EXPECT_EQ(stats.redistributed, 0u);
        EXPECT_EQ(stats.heartbeat_timeouts, 0u);
        EXPECT_EQ(stats.frames_retried, 0u);
        EXPECT_GT(stats.bytes_sent, 0u);
        EXPECT_GT(stats.bytes_received, 0u);
      }
    }
    // Each mining run opened one session per worker on its pinned server.
    for (const auto& server : fleet.servers) {
      EXPECT_EQ(server->sessions_served(), 2u);  // two thread counts
    }
  }
}

TEST(TcpMinerTest, FinancialMatrixByteIdentical) {
  ExpectTcpMatrixMatchesBaseline(FinancialCorpus());
}

TEST(TcpMinerTest, TaxonomyMatrixByteIdentical) {
  ExpectTcpMatrixMatchesBaseline(TaxonomyCorpus());
}

TEST(TcpMinerTest, MissingValuesMatrixByteIdentical) {
  ExpectTcpMatrixMatchesBaseline(MissingValuesCorpus());
}

// One server can carry several shards at once: more endpoints than
// distinct servers, all pointing at the same process.
TEST(TcpMinerTest, OneServerServesSeveralShards) {
  const DistCorpus& corpus = FinancialCorpus();
  const MiningResult baseline = MustMineStreamed(corpus, 1);
  const ServerFleet fleet = StartFleet(corpus, 1);
  const std::vector<std::string> endpoints(3, fleet.endpoints[0]);
  const MiningResult got = MustMineTcp(corpus, endpoints, /*threads=*/1);
  EXPECT_TRUE(SameRules(got, baseline));
  EXPECT_EQ(got.stats.dist.num_workers, 3u);
  EXPECT_EQ(fleet.servers[0]->sessions_served(), 3u);
}

// A worker serving a different QBT file is rejected at handshake time with
// a diagnostic, not discovered as a count mismatch three passes later.
TEST(TcpMinerTest, MismatchedShardFileIsRejectedAtHandshake) {
  // Taxonomy has as many blocks as financial, so the stale server passes
  // the block-range check and is caught by the identity cross-check.
  const DistCorpus& corpus = FinancialCorpus();
  const DistCorpus& other = TaxonomyCorpus();
  const ServerFleet good = StartFleet(corpus, 1);
  const ServerFleet stale = StartFleet(other, 1);
  MinerOptions options = corpus.options;
  options.worker_endpoints = {good.endpoints[0], stale.endpoints[0]};
  options.dist_connect_attempts = 2;
  options.dist_connect_backoff_ms = 5.0;
  auto result = MineDistributedQbt(corpus.qbt_path, options);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("different QBT"),
            std::string::npos)
      << result.status().ToString();
}

// No server listening: discovery retries, then fails with a bounded
// IOError naming the endpoint — never a hang.
TEST(TcpMinerTest, UnreachableEndpointFailsCleanly) {
  const DistCorpus& corpus = FinancialCorpus();
  MinerOptions options = corpus.options;
  // A port from the ephemeral range with nothing bound to it.
  options.worker_endpoints = {"127.0.0.1:1", "127.0.0.1:2"};
  options.dist_connect_attempts = 2;
  options.dist_connect_backoff_ms = 5.0;
  options.dist_io_timeout_ms = 500;
  options.dist_heartbeat_ms = 100;
  auto result = MineDistributedQbt(corpus.qbt_path, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  EXPECT_NE(result.status().ToString().find("cannot reach"),
            std::string::npos)
      << result.status().ToString();
}

// Endpoint syntax is validated before any socket is opened.
TEST(TcpMinerTest, MalformedEndpointIsInvalidArgument) {
  const DistCorpus& corpus = FinancialCorpus();
  for (const std::string& bad :
       {std::string("localhost"), std::string(":8080"),
        std::string("host:0"), std::string("host:99999"),
        std::string("host:port")}) {
    MinerOptions options = corpus.options;
    options.worker_endpoints = {bad};
    auto result = MineDistributedQbt(corpus.qbt_path, options);
    ASSERT_FALSE(result.ok()) << bad;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

// --worker endpoints and --workers processes are mutually exclusive, and
// the endpoint count is capped like the worker count.
TEST(TcpMinerTest, EndpointOptionsAreValidated) {
  const DistCorpus& corpus = FinancialCorpus();
  MinerOptions options = corpus.options;
  options.worker_endpoints = {"127.0.0.1:9000"};
  options.num_workers = 2;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);

  options = corpus.options;
  options.worker_endpoints = {"127.0.0.1:9000"};
  options.dist_heartbeat_ms = options.dist_io_timeout_ms;  // must be <
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);

  // Forked workers run the same session, so the deadline rules apply to
  // them too — and stay inert for a single in-process worker.
  options = corpus.options;
  options.num_workers = 2;
  options.dist_heartbeat_ms = options.dist_io_timeout_ms;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
  options.dist_heartbeat_ms = 100;
  options.dist_io_timeout_ms = 0;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
  options.num_workers = 1;
  EXPECT_TRUE(options.Validate().ok());
}

// A Hello whose thread count exceeds MinerOptions::kMaxThreads is answered
// with kError before any session starts, and the server keeps serving.
TEST(TcpMinerTest, OversizedThreadCountIsAnsweredWithError) {
  const DistCorpus& corpus = FinancialCorpus();
  const ServerFleet fleet = StartFleet(corpus, 1);
  auto fd = TcpConnect("127.0.0.1", fleet.servers[0]->port(), 5000);
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  TcpTransport transport(*fd, 5000, 5000);
  DistHello hello;
  hello.block_end = 1;
  hello.num_threads = MinerOptions::kMaxThreads + 1;
  std::string payload;
  EncodeHello(hello, &payload);
  ASSERT_TRUE(SendFrame(transport,
                        static_cast<uint32_t>(DistMessageType::kHello),
                        payload)
                  .ok());
  Result<DistFrame> reply = RecvFrame(transport);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->type, static_cast<uint32_t>(DistMessageType::kError));
  EXPECT_NE(reply->payload.find("num_threads"), std::string::npos)
      << reply->payload;
  EXPECT_EQ(fleet.servers[0]->sessions_served(), 0u);
}

// The next frame that is not a heartbeat.
Result<DistFrame> RecvReply(Transport& transport) {
  for (;;) {
    Result<DistFrame> frame = RecvFrame(transport);
    if (!frame.ok() ||
        frame->type != static_cast<uint32_t>(DistMessageType::kHeartbeat)) {
      return frame;
    }
  }
}

// A count request naming item ids outside the published catalog — negative
// or past its end — is answered with kError instead of counting through
// out-of-range ids, and the session keeps serving.
TEST(TcpMinerTest, CountRequestWithUnknownItemIdIsAnsweredWithError) {
  const DistCorpus& corpus = FinancialCorpus();
  auto source = QbtFileSource::Open(corpus.qbt_path);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  auto catalog = ItemCatalog::Build(**source, corpus.options);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
  const int32_t num_items = static_cast<int32_t>(catalog->num_items());
  ASSERT_GE(num_items, 2);

  const ServerFleet fleet = StartFleet(corpus, 1);
  auto fd = TcpConnect("127.0.0.1", fleet.servers[0]->port(), 5000);
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  TcpTransport transport(*fd, 5000, 5000);
  DistHello hello;
  hello.block_end = corpus.num_blocks;
  hello.num_threads = 1;
  std::string payload;
  EncodeHello(hello, &payload);
  ASSERT_TRUE(SendFrame(transport,
                        static_cast<uint32_t>(DistMessageType::kHello),
                        payload)
                  .ok());
  Result<DistFrame> ack = RecvReply(transport);
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  ASSERT_EQ(ack->type, static_cast<uint32_t>(DistMessageType::kHelloAck))
      << ack->payload;
  payload.clear();
  EncodeCheckpointCatalog(catalog->Snapshot(), &payload);
  ASSERT_TRUE(SendFrame(transport,
                        static_cast<uint32_t>(DistMessageType::kCatalog),
                        payload)
                  .ok());

  for (int32_t bad_id :
       {num_items, -1, int32_t{1} << 30, -(int32_t{1} << 30)}) {
    DistCountRequest request;
    request.k = 2;
    request.num_candidates = 2;
    request.ids = {0, 1, 0, bad_id};
    payload.clear();
    EncodeCountRequest(request, &payload);
    ASSERT_TRUE(SendFrame(transport,
                          static_cast<uint32_t>(DistMessageType::kCountRequest),
                          payload)
                    .ok());
    Result<DistFrame> reply = RecvReply(transport);
    ASSERT_TRUE(reply.ok()) << "id " << bad_id << ": "
                            << reply.status().ToString();
    EXPECT_EQ(reply->type, static_cast<uint32_t>(DistMessageType::kError))
        << "id " << bad_id;
    EXPECT_NE(reply->payload.find("item"), std::string::npos)
        << reply->payload;
  }
  ASSERT_TRUE(SendFrame(transport,
                        static_cast<uint32_t>(DistMessageType::kShutdown), "")
                  .ok());
}

}  // namespace
}  // namespace qarm
