// The TCP acceptance gate: mining over `qarm worker` TCP sessions must
// emit rules byte-identical to the single-process streamed miner at every
// worker and thread count, on the same three corpora as the fork-mode
// matrix (dist_corpora.h). The worker servers run in-process here — the
// wire, the handshake, and the coordinator are exactly the production
// code; only the process boundary is elided (tcp_fault_test.cc and the
// CLI smoke test cover real process death).
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/macros.h"
#include "common/socket.h"
#include "core/frequent_items.h"
#include "core/miner.h"
#include "core/options.h"
#include "core/support_counting.h"
#include "dist/dist_miner.h"
#include "dist/framing.h"
#include "dist/handshake.h"
#include "dist/messages.h"
#include "dist/transport.h"
#include "dist/worker_server.h"
#include "index/ndim_array.h"
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

// The tiny-budget plans of dist_miner_test.cc over TCP: member groups
// travel with their member item ids, and the rules match.
TEST(TcpMinerTest, TinyCounterBudgetMatrixByteIdentical) {
  DistCorpus corpus = FinancialCorpus();
  corpus.options.counter_memory_budget_bytes = disttest::kTinyCounterBudget;
  const MiningResult baseline = MustMineStreamed(corpus, /*threads=*/1);
  ASSERT_FALSE(baseline.rules.empty());
  for (size_t workers : {size_t{2}, size_t{4}}) {
    const ServerFleet fleet = StartFleet(corpus, workers);
    for (size_t threads : {size_t{1}, size_t{4}}) {
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " threads=" + std::to_string(threads));
      EXPECT_TRUE(SameRules(MustMineTcp(corpus, fleet.endpoints, threads),
                            baseline));
    }
  }
}

// One hand-driven worker session over the financial corpus: handshaken,
// with the catalog published, ready for count requests.
class CountSession {
 public:
  CountSession(const ServerFleet& fleet, const DistCorpus& corpus,
               uint64_t counter_budget)
      : source_(QbtFileSource::Open(corpus.qbt_path).value()),
        catalog_(ItemCatalog::Build(*source_, corpus.options).value()) {
    auto fd = TcpConnect("127.0.0.1", fleet.servers[0]->port(), 5000);
    QARM_CHECK(fd.ok());
    transport_ = std::make_unique<TcpTransport>(*fd, 5000, 5000);
    DistHello hello;
    hello.num_threads = 1;
    hello.counter_memory_budget_bytes = counter_budget;
    std::string payload;
    EncodeHello(hello, &payload);
    QARM_CHECK(Send(DistMessageType::kHello, payload).ok());
    Result<DistFrame> ack = RecvReply(*transport_);
    QARM_CHECK(ack.ok());
    QARM_CHECK(ack->type == static_cast<uint32_t>(DistMessageType::kHelloAck));
    payload.clear();
    EncodeCheckpointCatalog(catalog_.Snapshot(), &payload);
    QARM_CHECK(Send(DistMessageType::kCatalog, payload).ok());
  }
  ~CountSession() {
    const Status sent = Send(DistMessageType::kShutdown, "");
    (void)sent;
  }

  const RecordSource& source() const { return *source_; }
  const ItemCatalog& catalog() const { return catalog_; }

  // The first categorical item of the catalog, and the first ranged and
  // categorical attributes of the schema.
  int32_t CategoricalItem() const {
    for (size_t id = 0; id < catalog_.num_items(); ++id) {
      const int32_t item = static_cast<int32_t>(id);
      if (!Ranged(catalog_.item(item).attr)) return item;
    }
    return -1;
  }
  int32_t FirstAttr(bool ranged) const {
    for (size_t a = 0; a < source_->num_attributes(); ++a) {
      if (Ranged(static_cast<int32_t>(a)) == ranged) {
        return static_cast<int32_t>(a);
      }
    }
    return -1;
  }
  // The first item of attribute `attr`, or -1.
  int32_t ItemOf(int32_t attr) const {
    for (size_t id = 0; id < catalog_.num_items(); ++id) {
      const int32_t item = static_cast<int32_t>(id);
      if (catalog_.item(item).attr == attr) return item;
    }
    return -1;
  }

  // Sends `plan` over every block, or over `blocks`, and returns the
  // worker's answer.
  Result<DistFrame> Count(const CountPlan& plan) {
    return Count(plan, IndexRange{0, source_->num_blocks()});
  }
  Result<DistFrame> Count(const CountPlan& plan, const IndexRange& blocks) {
    std::string payload;
    EncodeCountRequest(blocks, plan, &payload);
    QARM_RETURN_NOT_OK(Send(DistMessageType::kCountRequest, payload));
    return RecvReply(*transport_);
  }
  // Asks for the value counts of `blocks` and returns the worker's answer.
  Result<DistFrame> ScanValueCounts(const IndexRange& blocks) {
    std::string payload;
    EncodePass1Request(blocks, &payload);
    QARM_RETURN_NOT_OK(Send(DistMessageType::kPass1Request, payload));
    return RecvReply(*transport_);
  }

  // A plan the worker must accept: one direct group.
  CountPlan GoodPlan() const {
    CountPlan plan;
    plan.groups.resize(1);
    plan.groups[0].cat_item_ids = {CategoricalItem()};
    return plan;
  }

 private:
  bool Ranged(int32_t attr) const {
    return source_->attribute(static_cast<size_t>(attr)).ranged();
  }
  Status Send(DistMessageType type, const std::string& payload) {
    return SendFrame(*transport_, static_cast<uint32_t>(type), payload);
  }

  std::unique_ptr<QbtFileSource> source_;
  ItemCatalog catalog_;
  std::unique_ptr<TcpTransport> transport_;
};

// Each plan is answered with kError naming `what`, and the session keeps
// serving: the good plan sent after each one is counted.
void ExpectPlansRefused(CountSession& session,
                        const std::vector<CountPlan>& plans,
                        const char* what) {
  for (size_t i = 0; i < plans.size(); ++i) {
    SCOPED_TRACE("plan " + std::to_string(i));
    Result<DistFrame> reply = session.Count(plans[i]);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->type, static_cast<uint32_t>(DistMessageType::kError));
    EXPECT_NE(reply->payload.find(what), std::string::npos)
        << reply->payload;
    Result<DistFrame> good = session.Count(session.GoodPlan());
    ASSERT_TRUE(good.ok()) << good.status().ToString();
    EXPECT_EQ(good->type, static_cast<uint32_t>(DistMessageType::kCountReply))
        << good->payload;
  }
}

// A plan naming item ids outside the published catalog — negative or past
// its end —, a ranged item as a categorical one, or no item at all is
// answered with kError instead of counting through the id, and the session
// keeps serving.
TEST(TcpMinerTest, CountRequestWithUnknownItemIdIsAnsweredWithError) {
  const DistCorpus& corpus = FinancialCorpus();
  const ServerFleet fleet = StartFleet(corpus, 1);
  CountSession session(fleet, corpus,
                       MinerOptions().counter_memory_budget_bytes);
  const int32_t num_items = static_cast<int32_t>(session.catalog().num_items());
  ASSERT_GE(session.CategoricalItem(), 0);
  std::vector<CountPlan> plans;
  for (int32_t bad_id : {num_items, int32_t{1} << 30, -1}) {
    CountPlan plan = session.GoodPlan();
    plan.groups[0].cat_item_ids.push_back(bad_id);
    plans.push_back(plan);
  }
  ExpectPlansRefused(session, {plans[0], plans[1]}, "item");
  // A negative id travels as a varint past int32, refused by the decoder.
  ExpectPlansRefused(session, {plans[2]}, "past int32");
  int32_t ranged_item = -1;
  for (int32_t id = 0; id < num_items && ranged_item < 0; ++id) {
    if (session.source()
            .attribute(static_cast<size_t>(session.catalog().item(id).attr))
            .ranged()) {
      ranged_item = id;
    }
  }
  ASSERT_GE(ranged_item, 0);
  CountPlan ranged = session.GoodPlan();
  ranged.groups[0].cat_item_ids = {ranged_item};
  ExpectPlansRefused(session, {ranged}, "not categorical");
  // A group with neither items nor dimensions has no rows to count, alone
  // or after a good group.
  CountPlan empty = session.GoodPlan();
  empty.groups[0].cat_item_ids.clear();
  CountPlan empty_second = session.GoodPlan();
  empty_second.groups.emplace_back();
  ExpectPlansRefused(session, {empty, empty_second}, "counts no item");
}

// A request's block range is input from outside the worker too: a pass-1
// or count request whose range is inverted or runs past the file's blocks
// is answered with kError before any block is read, and the session keeps
// serving.
TEST(TcpMinerTest, RequestBlockRangeInvertedOrPastTheFileIsAnsweredWithError) {
  const DistCorpus& corpus = FinancialCorpus();
  const ServerFleet fleet = StartFleet(corpus, 1);
  CountSession session(fleet, corpus,
                       MinerOptions().counter_memory_budget_bytes);
  const size_t num_blocks = session.source().num_blocks();
  ASSERT_GE(num_blocks, 2u);
  const std::pair<IndexRange, const char*> cases[] = {
      {IndexRange{2, 1}, "[2, 1) is inverted"},
      {IndexRange{0, num_blocks + 1}, "runs past the"},
      {IndexRange{num_blocks + 5, num_blocks + 5}, "runs past the"},
  };
  for (const auto& [blocks, what] : cases) {
    SCOPED_TRACE(what);
    Result<DistFrame> pass1 = session.ScanValueCounts(blocks);
    ASSERT_TRUE(pass1.ok()) << pass1.status().ToString();
    EXPECT_EQ(pass1->type, static_cast<uint32_t>(DistMessageType::kError));
    EXPECT_NE(pass1->payload.find(what), std::string::npos) << pass1->payload;
    Result<DistFrame> count = session.Count(session.GoodPlan(), blocks);
    ASSERT_TRUE(count.ok()) << count.status().ToString();
    EXPECT_EQ(count->type, static_cast<uint32_t>(DistMessageType::kError));
    EXPECT_NE(count->payload.find(what), std::string::npos) << count->payload;
  }
  // The session still serves both requests over a good range: the last
  // block alone.
  const IndexRange last{num_blocks - 1, num_blocks};
  Result<DistFrame> pass1 = session.ScanValueCounts(last);
  ASSERT_TRUE(pass1.ok()) << pass1.status().ToString();
  ASSERT_EQ(pass1->type, static_cast<uint32_t>(DistMessageType::kPass1Reply))
      << pass1->payload;
  Result<ShardSnapshot> snapshot = ParseShardSnapshot(
      reinterpret_cast<const uint8_t*>(pass1->payload.data()),
      pass1->payload.size());
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ(snapshot->block_begin, last.begin);
  EXPECT_EQ(snapshot->block_end, last.end);
  const BlockRangeSource range(session.source(), last.begin, last.end);
  EXPECT_EQ(snapshot->num_rows, range.num_rows());
  Result<DistFrame> count = session.Count(session.GoodPlan(), last);
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count->type, static_cast<uint32_t>(DistMessageType::kCountReply))
      << count->payload;
}

// A plan whose dimensions are not ranged attributes of the QBT is refused.
TEST(TcpMinerTest, CountPlanOutsideTheSchemaIsAnsweredWithError) {
  const DistCorpus& corpus = FinancialCorpus();
  const ServerFleet fleet = StartFleet(corpus, 1);
  CountSession session(fleet, corpus,
                       MinerOptions().counter_memory_budget_bytes);
  const int32_t num_attrs =
      static_cast<int32_t>(session.source().num_attributes());
  std::vector<CountPlan> outside;
  for (int32_t attr : {num_attrs, int32_t{1} << 30}) {
    CountPlan plan;
    plan.groups.resize(1);
    plan.groups[0].kind = CounterKind::kArray;
    plan.groups[0].quant_attrs = {attr};
    plan.groups[0].num_members = 1;
    outside.push_back(plan);
  }
  ExpectPlansRefused(session, outside, "attribute");
  const int32_t categorical = session.FirstAttr(/*ranged=*/false);
  ASSERT_GE(categorical, 0);
  CountPlan plan;
  plan.groups.resize(1);
  plan.groups[0].kind = CounterKind::kArray;
  plan.groups[0].quant_attrs = {categorical};
  plan.groups[0].num_members = 1;
  ExpectPlansRefused(session, {plan}, "not ranged");
}

// The worker admits counters by the planner's own budget rule: a grid the
// Hello's counter budget does not give (here about 400 MB for one member),
// a member scan of a group whose grid fits, and a counted group without
// members are refused before anything is allocated.
TEST(TcpMinerTest, CountPlanBeyondTheCounterBudgetIsAnsweredWithError) {
  const DistCorpus& corpus = FinancialCorpus();
  const ServerFleet fleet = StartFleet(corpus, 1);
  constexpr uint64_t kBudget = 1 << 20;
  CountSession session(fleet, corpus, kBudget);
  const int32_t attr = session.FirstAttr(/*ranged=*/true);
  ASSERT_GE(attr, 0);
  const size_t domain =
      session.source().attribute(static_cast<size_t>(attr)).domain_size();
  ASSERT_GE(domain, 2u);

  CountPlan big_grid;
  big_grid.groups.resize(1);
  CounterGroup& grid = big_grid.groups[0];
  grid.kind = CounterKind::kArray;
  grid.num_members = 1;
  std::vector<int32_t> dim_sizes;
  while (NDimArray::EstimateBytes(dim_sizes) < (uint64_t{400} << 20)) {
    grid.quant_attrs.push_back(attr);
    dim_sizes.push_back(static_cast<int32_t>(domain));
  }

  CountPlan small_members;
  small_members.groups.resize(1);
  CounterGroup& members = small_members.groups[0];
  members.kind = CounterKind::kMembers;
  members.num_members = 1;
  members.quant_attrs = {attr};
  members.member_items = {session.ItemOf(attr)};
  ASSERT_GE(members.member_items[0], 0);
  ExpectPlansRefused(session, {big_grid, small_members}, "counter budget");

  CountPlan empty_members;
  empty_members.groups.resize(1);
  empty_members.groups[0].kind = CounterKind::kMembers;
  empty_members.groups[0].quant_attrs = {attr};
  ExpectPlansRefused(session, {empty_members}, "members");
}

// A member group of one member on the first ranged attribute, whose one
// item is `item`. At a 1-byte counter budget its grid does not fit, so the
// worker admits it as a member scan when the item is good.
CountPlan OneMemberPlan(const CountSession& session, int32_t item) {
  CountPlan plan;
  plan.groups.resize(1);
  CounterGroup& group = plan.groups[0];
  group.kind = CounterKind::kMembers;
  group.quant_attrs = {session.FirstAttr(/*ranged=*/true)};
  group.num_members = 1;
  group.member_items = {item};
  return plan;
}

// With shared masks a member item id decides which range mask the worker
// builds, so an id outside the published catalog is refused before
// anything is allocated, and the session keeps serving.
TEST(TcpMinerTest,
     CountPlanWithMemberItemOutsideTheCatalogIsAnsweredWithError) {
  const DistCorpus& corpus = FinancialCorpus();
  const ServerFleet fleet = StartFleet(corpus, 1);
  CountSession session(fleet, corpus, /*counter_budget=*/1);
  const int32_t attr = session.FirstAttr(/*ranged=*/true);
  ASSERT_GE(attr, 0);
  // The good member plan counts.
  Result<DistFrame> good =
      session.Count(OneMemberPlan(session, session.ItemOf(attr)));
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(good->type, static_cast<uint32_t>(DistMessageType::kCountReply))
      << good->payload;
  const int32_t num_items = static_cast<int32_t>(session.catalog().num_items());
  ExpectPlansRefused(session,
                     {OneMemberPlan(session, num_items),
                      OneMemberPlan(session, int32_t{1} << 30)},
                     "member item");
}

// A categorical item as a member item is refused: it has no range.
TEST(TcpMinerTest, CountPlanWithCategoricalMemberItemIsAnsweredWithError) {
  const DistCorpus& corpus = FinancialCorpus();
  const ServerFleet fleet = StartFleet(corpus, 1);
  CountSession session(fleet, corpus, /*counter_budget=*/1);
  ASSERT_GE(session.FirstAttr(/*ranged=*/true), 0);
  ASSERT_GE(session.CategoricalItem(), 0);
  ExpectPlansRefused(session,
                     {OneMemberPlan(session, session.CategoricalItem())},
                     "member item");
}

// A ranged item of another attribute than the group's dimension at its
// position is refused: its range would be tested against the wrong column.
TEST(TcpMinerTest,
     CountPlanWithMemberItemOfAnotherDimensionIsAnsweredWithError) {
  const DistCorpus& corpus = FinancialCorpus();
  const ServerFleet fleet = StartFleet(corpus, 1);
  CountSession session(fleet, corpus, /*counter_budget=*/1);
  const int32_t first = session.FirstAttr(/*ranged=*/true);
  ASSERT_GE(first, 0);
  int32_t other_item = -1;
  for (int32_t attr = first + 1;
       attr < static_cast<int32_t>(session.source().num_attributes()) &&
       other_item < 0;
       ++attr) {
    if (session.source().attribute(static_cast<size_t>(attr)).ranged()) {
      other_item = session.ItemOf(attr);
    }
  }
  ASSERT_GE(other_item, 0);
  ExpectPlansRefused(session, {OneMemberPlan(session, other_item)},
                     "member item");
}

// The same direct group listed twice is two counters, both counted: a plan
// cannot make a worker abort on a repeated group.
TEST(TcpMinerTest, RepeatedGroupsAreCountedNotFatal) {
  const DistCorpus& corpus = FinancialCorpus();
  const ServerFleet fleet = StartFleet(corpus, 1);
  CountSession session(fleet, corpus,
                       MinerOptions().counter_memory_budget_bytes);
  CountPlan plan = session.GoodPlan();
  plan.groups.push_back(plan.groups[0]);
  Result<DistFrame> reply = session.Count(plan);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->type, static_cast<uint32_t>(DistMessageType::kCountReply))
      << reply->payload;
  PassCounters counters = MakeCounters(plan, session.source());
  Result<DistCountReply> merged = MergeCountReply(
      reinterpret_cast<const uint8_t*>(reply->payload.data()),
      reply->payload.size(), session.source().num_rows(), &counters);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_GT(counters[0].direct, 0u);
  EXPECT_EQ(counters[0].direct, counters[1].direct);
}

// A worker endpoint that speaks the protocol, counts its shard with the
// production code, and then falsifies the counters with `corrupt` before
// replying. It serves one session at a time and counts them.
class LyingWorker {
 public:
  using Corrupt = std::function<void(PassCounters*, uint64_t shard_rows)>;

  LyingWorker(const DistCorpus& corpus, Corrupt corrupt)
      : file_(QbtFileSource::Open(corpus.qbt_path).value()),
        corrupt_(std::move(corrupt)) {
    uint16_t port = 0;
    listen_fd_ = TcpListen("127.0.0.1", 0, &port).value();
    endpoint_ = "127.0.0.1:" + std::to_string(port);
    thread_ = std::thread([this] {
      for (;;) {
        Result<int> fd = TcpAccept(listen_fd_);
        if (!fd.ok()) return;
        sessions_.fetch_add(1);
        TcpTransport transport(*fd, 5000, 5000);
        const Status served = Serve(transport);
        (void)served;
      }
    });
  }
  ~LyingWorker() {
    ::shutdown(listen_fd_, SHUT_RDWR);
    thread_.join();
    ::close(listen_fd_);
  }

  const std::string& endpoint() const { return endpoint_; }
  size_t sessions() const { return sessions_.load(); }

 private:
  Status Serve(TcpTransport& transport) {
    QARM_ASSIGN_OR_RETURN(DistFrame frame, RecvFrame(transport));
    QARM_ASSIGN_OR_RETURN(
        DistHello hello,
        ParseHello(reinterpret_cast<const uint8_t*>(frame.payload.data()),
                   frame.payload.size()));
    DistHelloAck ack;
    ack.worker_id = hello.worker_id;
    ack.generation = hello.generation;
    ack.fingerprint = hello.fingerprint;
    ack.num_rows = file_->num_rows();
    ack.num_blocks = file_->num_blocks();
    ack.index_crc = file_->reader().IndexPrefixCrc(file_->num_blocks());
    std::string payload;
    EncodeHelloAck(ack, &payload);
    QARM_RETURN_NOT_OK(Send(transport, DistMessageType::kHelloAck, payload));
    MinerOptions options;
    options.counter_memory_budget_bytes = hello.counter_memory_budget_bytes;
    std::optional<ItemCatalog> catalog;
    for (;;) {
      QARM_ASSIGN_OR_RETURN(frame, RecvFrame(transport));
      const uint8_t* bytes =
          reinterpret_cast<const uint8_t*>(frame.payload.data());
      payload.clear();
      switch (static_cast<DistMessageType>(frame.type)) {
        case DistMessageType::kPass1Request: {
          QARM_ASSIGN_OR_RETURN(IndexRange blocks,
                                ParsePass1Request(bytes, frame.payload.size()));
          const BlockRangeSource shard(*file_, blocks.begin, blocks.end);
          ShardSnapshot snapshot;
          snapshot.fingerprint = hello.fingerprint;
          snapshot.worker_id = hello.worker_id;
          snapshot.block_begin = blocks.begin;
          snapshot.block_end = blocks.end;
          snapshot.num_rows = shard.num_rows();
          QARM_ASSIGN_OR_RETURN(snapshot.value_counts,
                                ItemCatalog::ScanValueCounts(shard, 1));
          EncodeShardSnapshot(snapshot, &payload);
          QARM_RETURN_NOT_OK(
              Send(transport, DistMessageType::kPass1Reply, payload));
          break;
        }
        case DistMessageType::kCatalog: {
          QARM_ASSIGN_OR_RETURN(
              CheckpointCatalog saved,
              ParseCheckpointCatalog(bytes, frame.payload.size()));
          QARM_ASSIGN_OR_RETURN(ItemCatalog restored,
                                ItemCatalog::Restore(*file_, saved));
          catalog.emplace(std::move(restored));
          break;
        }
        case DistMessageType::kCountRequest: {
          QARM_ASSIGN_OR_RETURN(
              DistCountRequest request,
              ParseCountRequest(bytes, frame.payload.size()));
          const BlockRangeSource shard(*file_, request.blocks.begin,
                                       request.blocks.end);
          CountingStats stats;
          QARM_ASSIGN_OR_RETURN(
              PassCounters counters,
              ScanCounters(shard, *catalog, request.plan, options, &stats));
          corrupt_(&counters, shard.num_rows());
          DistCountReply reply;
          reply.worker_id = hello.worker_id;
          EncodeCountReply(reply, counters, &payload);
          QARM_RETURN_NOT_OK(
              Send(transport, DistMessageType::kCountReply, payload));
          break;
        }
        default:
          return Status::OK();  // kShutdown
      }
    }
  }
  static Status Send(TcpTransport& transport, DistMessageType type,
                     const std::string& payload) {
    return SendFrame(transport, static_cast<uint32_t>(type), payload);
  }

  std::unique_ptr<QbtFileSource> file_;
  Corrupt corrupt_;
  int listen_fd_ = -1;
  std::string endpoint_;
  std::atomic<size_t> sessions_{0};
  std::thread thread_;
};

// Mines the financial corpus against one lying worker: the run must fail
// with the coordinator's IOError naming `what`, without a relaunch.
void ExpectLieCaught(const LyingWorker::Corrupt& corrupt, const char* what) {
  const DistCorpus& corpus = FinancialCorpus();
  const LyingWorker liar(corpus, corrupt);
  MinerOptions options = corpus.options;
  options.worker_endpoints = {liar.endpoint()};
  options.dist_connect_attempts = 3;
  options.dist_connect_backoff_ms = 10.0;
  Result<MiningResult> result = MineDistributedQbt(corpus.qbt_path, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  EXPECT_NE(result.status().ToString().find(what), std::string::npos)
      << result.status().ToString();
  EXPECT_EQ(liar.sessions(), 1u);
}

// The coordinator checks every reply against its plan and the shard it
// assigned: counters of another shape, or counting more rows than the
// shard holds, fail the run as an IOError. A lying worker is not a dead
// one, so nothing is relaunched, and no rule comes from its counts.
TEST(TcpMinerTest, ReplyThatDoesNotFitThePlanFailsTheRun) {
  ExpectLieCaught([](PassCounters* counters, uint64_t) {
    counters->pop_back();
  }, "groups");
}

TEST(TcpMinerTest, ReplyCountingMoreRowsThanTheShardFailsTheRun) {
  ExpectLieCaught([](PassCounters* counters, uint64_t rows) {
    GroupCounter& first = counters->front();
    if (first.grid != nullptr) {
      first.grid->mutable_cells()[0] = static_cast<uint32_t>(rows + 1);
    } else if (!first.members.empty()) {
      first.members[0] = static_cast<uint32_t>(rows + 1);
    } else {
      first.direct = rows + 1;
    }
  }, "more rows than its shard holds");
}

}  // namespace
}  // namespace qarm
