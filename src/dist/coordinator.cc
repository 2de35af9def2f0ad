#include "dist/coordinator.h"

#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "dist/framing.h"
#include "dist/worker.h"
#include "storage/checkpoint_format.h"

namespace qarm {
namespace {

Status SendOn(Transport& transport, DistMessageType type,
              const std::string& payload, uint64_t* bytes_sent) {
  return SendFrame(transport, static_cast<uint32_t>(type), payload,
                   bytes_sent);
}

}  // namespace

Result<std::unique_ptr<DistWorkerPool>> DistWorkerPool::Launch(
    const QbtFileSource& file, const MinerOptions& options,
    uint64_t fingerprint, size_t num_workers,
    std::vector<WorkerEndpoint> endpoints) {
  if (num_workers == 0) {
    return Status::InvalidArgument("worker pool needs at least one worker");
  }
  // No public constructor, so no make_unique.
  std::unique_ptr<DistWorkerPool> pool(new DistWorkerPool());
  pool->file_ = &file;
  pool->expected_index_crc_ =
      file.reader().IndexPrefixCrc(file.num_blocks());
  pool->forked_ = endpoints.empty();
  if (pool->forked_) {
    endpoints.emplace_back();
  } else if (num_workers > endpoints.size()) {
    return Status::InvalidArgument(StrFormat(
        "%zu workers need at least as many worker endpoints, got %zu",
        num_workers, endpoints.size()));
  }
  pool->endpoints_ = std::move(endpoints);
  pool->io_timeout_ms_ = options.dist_io_timeout_ms;
  pool->connect_policy_.max_attempts =
      std::max<size_t>(1, options.dist_connect_attempts);
  pool->connect_policy_.initial_backoff_ms = options.dist_connect_backoff_ms;
  pool->connect_policy_.max_backoff_ms =
      std::max(options.dist_connect_backoff_ms * 16.0, 1000.0);
  pool->workers_.resize(num_workers);
  for (size_t w = 0; w < num_workers; ++w) {
    Worker& worker = pool->workers_[w];
    DistHello& hello = worker.hello;
    hello.worker_id = static_cast<uint32_t>(w);
    hello.fingerprint = fingerprint;
    hello.num_threads = options.num_threads;
    hello.counter_memory_budget_bytes = options.counter_memory_budget_bytes;
    hello.heartbeat_ms = options.dist_heartbeat_ms;
    hello.io_timeout_ms = options.dist_io_timeout_ms;
    hello.inject_faults_spec = options.inject_faults_spec;
    worker.endpoint = w % pool->endpoints_.size();
    worker.stats.worker_id = hello.worker_id;
    QARM_RETURN_NOT_OK(pool->ConnectWorker(w));
  }
  return pool;
}

DistWorkerPool::~DistWorkerPool() {
  for (Worker& worker : workers_) {
    if (worker.transport != nullptr) {
      // Best-effort clean shutdown; the close in Reap guarantees the
      // worker sees EOF and ends the session even if the frame never
      // lands.
      const Status sent =
          SendOn(*worker.transport, DistMessageType::kShutdown, "", nullptr);
      (void)sent;
    }
  }
  for (Worker& worker : workers_) Reap(worker);
}

DistRunStats DistWorkerPool::RunStats() const {
  DistRunStats stats;
  stats.num_workers = workers_.size();
  stats.workers_respawned = workers_respawned_;
  stats.passes = passes_;
  for (const Worker& worker : workers_) stats.workers.push_back(worker.stats);
  return stats;
}

Result<int> DistWorkerPool::OpenChannel(size_t w, size_t e) {
  Worker& worker = workers_[w];
  if (forked_) {
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
      return Status::IOError("socketpair failed for worker channel");
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      return Status::IOError("fork failed for distributed worker");
    }
    if (pid == 0) {
      // Child: drop the coordinator end and every sibling channel, then
      // serve one session over the inherited QBT mapping, exactly as a
      // `qarm worker` connection would. _Exit skips the coordinator's
      // atexit state — this process must never run coordinator teardown.
      // Nor may an exception (e.g. std::bad_alloc) leave the session: it
      // would unwind the coordinator frames this child inherited, and this
      // pool's destructor would SIGKILL the sibling workers. A failed
      // session just closes the channel, and the coordinator recovers.
      ::close(fds[0]);
      for (Worker& other : workers_) other.transport.reset();
      bool served = false;
      try {
        TcpTransport transport(fds[1], io_timeout_ms_,
                               /*read_timeout_ms=*/0);
        served = ServeConnection(transport, *file_).ok();
      } catch (...) {
      }
      std::_Exit(served ? 0 : 1);
    }
    ::close(fds[1]);
    worker.pid = pid;
    if (worker.hello.generation > 0) ++worker.stats.respawns;
    return fds[0];
  }
  const WorkerEndpoint& endpoint = endpoints_[e];
  int fd = -1;
  QARM_RETURN_NOT_OK(
      RetryWithBackoff(connect_policy_, e, [&]() -> Status {
        QARM_ASSIGN_OR_RETURN(fd, TcpConnect(endpoint.host, endpoint.port,
                                             io_timeout_ms_));
        return Status::OK();
      }));
  return fd;
}

void DistWorkerPool::Reap(Worker& worker) {
  worker.transport.reset();
  if (worker.pid > 0) {
    ::kill(worker.pid, SIGKILL);
    int wstatus = 0;
    ::waitpid(worker.pid, &wstatus, 0);
    worker.pid = -1;
  }
}

Status DistWorkerPool::ConnectWorker(size_t w) {
  Worker& worker = workers_[w];
  std::string hello_payload;
  EncodeHello(worker.hello, &hello_payload);

  // Walk the endpoint ring from the worker's pin. Channel-level failures
  // move to the next endpoint; a *deterministic* rejection (version
  // mismatch, wrong shard file, a kError reply) fails the run — every
  // endpoint of a misconfigured cluster would say the same.
  Status last;
  for (size_t i = 0; i < endpoints_.size(); ++i) {
    const size_t e = (worker.endpoint + i) % endpoints_.size();
    const WorkerEndpoint& endpoint = endpoints_[e];
    const std::string where = forked_ ? std::string("forked worker")
                                      : "worker endpoint " + endpoint.text;
    Result<int> fd = OpenChannel(w, e);
    if (!fd.ok()) {
      last = fd.status();
      continue;
    }
    auto transport =
        std::make_unique<TcpTransport>(*fd, io_timeout_ms_, io_timeout_ms_);
    const Status shook = SendOn(*transport, DistMessageType::kHello,
                                hello_payload, &worker.stats.bytes_sent);
    if (!shook.ok()) {
      last = shook;
      continue;
    }
    Result<DistFrame> reply =
        RecvFrame(*transport, &worker.stats.bytes_received);
    if (!reply.ok()) {
      last = reply.status();
      continue;
    }
    if (reply->type == static_cast<uint32_t>(DistMessageType::kError)) {
      return Status::IOError(StrFormat("%s rejected the handshake: %s",
                                       where.c_str(),
                                       reply->payload.c_str()));
    }
    if (reply->type != static_cast<uint32_t>(DistMessageType::kHelloAck)) {
      return Status::Internal(
          StrFormat("%s answered the Hello with frame type %u",
                    where.c_str(), reply->type));
    }
    Result<DistHelloAck> ack = ParseHelloAck(
        reinterpret_cast<const uint8_t*>(reply->payload.data()),
        reply->payload.size());
    if (!ack.ok()) return ack.status();
    if (ack->worker_id != worker.hello.worker_id ||
        ack->generation != worker.hello.generation ||
        ack->fingerprint != worker.hello.fingerprint) {
      return Status::Internal(
          StrFormat("%s acked a different assignment", where.c_str()));
    }
    if (ack->num_rows != file_->num_rows() ||
        ack->num_blocks != file_->num_blocks() ||
        ack->index_crc != expected_index_crc_) {
      return Status::InvalidArgument(StrFormat(
          "%s serves a different QBT (rows %llu vs %zu, blocks %llu vs "
          "%zu, index crc %08x vs %08x) — every worker must serve the same "
          "table file as the coordinator",
          where.c_str(), static_cast<unsigned long long>(ack->num_rows),
          file_->num_rows(), static_cast<unsigned long long>(ack->num_blocks),
          file_->num_blocks(), ack->index_crc, expected_index_crc_));
    }
    worker.endpoint = e;
    worker.stats.endpoint = endpoint.text;
    worker.transport = std::move(transport);
    return Status::OK();
  }
  return Status::IOError(StrFormat(
      "worker %u cannot reach any of its %zu launch targets; last error: %s",
      worker.hello.worker_id, endpoints_.size(), last.ToString().c_str()));
}

Status DistWorkerPool::RespawnAndReplay(size_t w,
                                        DistMessageType request_type,
                                        const std::string& request_payload,
                                        DistPassStats* stats) {
  Worker& worker = workers_[w];
  Reap(worker);
  if (worker.hello.generation >= kMaxRespawnsPerWorker) {
    return Status::IOError(StrFormat(
        "worker %u died %zu times; giving up", worker.hello.worker_id,
        static_cast<size_t>(kMaxRespawnsPerWorker)));
  }
  ++worker.hello.generation;
  ++workers_respawned_;
  QARM_LOG(Warning) << "distributed worker " << worker.hello.worker_id
                    << " died; respawning (generation "
                    << worker.hello.generation
                    << ") and replaying its request";
  const size_t previous_endpoint = worker.endpoint;
  QARM_RETURN_NOT_OK(ConnectWorker(w));
  ++worker.stats.reconnects;
  if (worker.endpoint != previous_endpoint) {
    ++worker.stats.redistributed;
    QARM_LOG(Warning) << "worker " << worker.hello.worker_id
                      << " redistributed from endpoint "
                      << endpoints_[previous_endpoint].text << " to "
                      << endpoints_[worker.endpoint].text;
  }
  uint64_t sent_bytes = 0;
  // Replay: the catalog (when one was published) restores the worker's only
  // cross-request state, then the in-flight request re-runs its range scan.
  // A worker that died during the catalog broadcast itself has the catalog
  // AS its in-flight request — send it once, not as both the state replay
  // and the request (the duplicate doubled the replay bytes for nothing).
  if (!catalog_payload_.empty() &&
      request_type != DistMessageType::kCatalog) {
    QARM_RETURN_NOT_OK(SendOn(*worker.transport, DistMessageType::kCatalog,
                              catalog_payload_, &sent_bytes));
    ++worker.stats.frames_retried;
  }
  const Status resent = SendOn(*worker.transport, request_type,
                               request_payload, &sent_bytes);
  ++worker.stats.frames_retried;
  worker.stats.bytes_sent += sent_bytes;
  if (stats != nullptr) stats->bytes_sent += sent_bytes;
  return resent;
}

Status DistWorkerPool::SendToWorker(size_t w, DistMessageType type,
                                    const std::string& payload,
                                    DistPassStats* stats) {
  uint64_t sent_bytes = 0;
  const Status status =
      SendOn(*workers_[w].transport, type, payload, &sent_bytes);
  workers_[w].stats.bytes_sent += sent_bytes;
  if (stats != nullptr) stats->bytes_sent += sent_bytes;
  if (status.ok()) return status;
  // The worker died between requests; the replay resends this request.
  return RespawnAndReplay(w, type, payload, stats);
}

Status DistWorkerPool::ReceiveReply(size_t w, DistMessageType request_type,
                                    const std::string& request_payload,
                                    DistMessageType reply_type,
                                    DistPassStats* stats,
                                    std::string* reply_payload) {
  for (;;) {
    uint64_t received_bytes = 0;
    Result<DistFrame> frame =
        RecvFrame(*workers_[w].transport, &received_bytes);
    workers_[w].stats.bytes_received += received_bytes;
    if (stats != nullptr) stats->bytes_received += received_bytes;
    if (frame.ok()) {
      if (frame->type ==
          static_cast<uint32_t>(DistMessageType::kHeartbeat)) {
        // Liveness, not a reply: the worker is mid-pass. Each heartbeat
        // re-arms the read deadline (RecvFrame bounds per frame).
        ++workers_[w].stats.heartbeats;
        continue;
      }
      if (frame->type == static_cast<uint32_t>(reply_type)) {
        *reply_payload = std::move(frame->payload);
        return Status::OK();
      }
      if (frame->type == static_cast<uint32_t>(DistMessageType::kError)) {
        // A clean worker-side failure is deterministic; do not respawn.
        return Status::IOError(StrFormat("worker %u failed: %s",
                                         workers_[w].hello.worker_id,
                                         frame->payload.c_str()));
      }
      return Status::Internal(
          StrFormat("unexpected reply type %u from worker %u", frame->type,
                    workers_[w].hello.worker_id));
    }
    if (frame.status().ToString().find("timed out") != std::string::npos) {
      // The per-frame deadline expired with no reply and no heartbeat:
      // the peer is wedged or partitioned, not merely slow.
      ++workers_[w].stats.heartbeat_timeouts;
    }
    // Transport failure: the worker (or its link) is gone. Relaunch,
    // replay, and wait for the fresh incarnation's reply (budget enforced
    // inside).
    QARM_RETURN_NOT_OK(
        RespawnAndReplay(w, request_type, request_payload, stats));
  }
}

Result<std::vector<std::string>> DistWorkerPool::Exchange(
    DistMessageType request_type, const std::vector<std::string>& payloads,
    DistMessageType reply_type, DistPassStats* stats) {
  Timer timer;
  // Fan the requests out before reading any reply, so the workers scan
  // concurrently; then collect strictly in worker order.
  for (size_t w = 0; w < payloads.size(); ++w) {
    QARM_RETURN_NOT_OK(SendToWorker(w, request_type, payloads[w], stats));
  }
  std::vector<std::string> replies(payloads.size());
  for (size_t w = 0; w < payloads.size(); ++w) {
    QARM_RETURN_NOT_OK(ReceiveReply(w, request_type, payloads[w], reply_type,
                                    stats, &replies[w]));
  }
  if (stats != nullptr) stats->exchange_seconds += timer.ElapsedSeconds();
  return replies;
}

std::vector<IndexRange> DistWorkerPool::SplitBlocks(IndexRange blocks) const {
  std::vector<IndexRange> ranges = SplitRange(blocks.size(), workers_.size());
  for (IndexRange& range : ranges) {
    range.begin += blocks.begin;
    range.end += blocks.begin;
  }
  return ranges;
}

Result<ValueCounts> DistWorkerPool::ScanValueCounts(IndexRange blocks,
                                                    ScanIoStats* io) {
  DistPassStats pass;
  pass.k = 1;
  const std::vector<IndexRange> ranges = SplitBlocks(blocks);
  std::vector<std::string> payloads(ranges.size());
  for (size_t w = 0; w < ranges.size(); ++w) {
    EncodePass1Request(ranges[w], &payloads[w]);
  }
  QARM_ASSIGN_OR_RETURN(std::vector<std::string> replies,
                        Exchange(DistMessageType::kPass1Request, payloads,
                                 DistMessageType::kPass1Reply, &pass));
  Timer merge_timer;
  const size_t num_attributes = file_->num_attributes();
  ValueCounts merged(num_attributes);
  for (size_t a = 0; a < num_attributes; ++a) {
    merged[a].assign(file_->attribute(a).domain_size(), 0);
  }
  for (size_t w = 0; w < replies.size(); ++w) {
    QARM_ASSIGN_OR_RETURN(
        ShardSnapshot snapshot,
        ParseShardSnapshot(
            reinterpret_cast<const uint8_t*>(replies[w].data()),
            replies[w].size()));
    const DistHello& hello = workers_[w].hello;
    const BlockRangeSource range(*file_, ranges[w].begin, ranges[w].end);
    if (snapshot.worker_id != hello.worker_id ||
        snapshot.fingerprint != hello.fingerprint ||
        snapshot.block_begin != ranges[w].begin ||
        snapshot.block_end != ranges[w].end ||
        snapshot.num_rows != range.num_rows()) {
      return Status::Internal(StrFormat(
          "value counts from worker %u do not match the blocks [%zu, %zu) "
          "it was sent",
          hello.worker_id, ranges[w].begin, ranges[w].end));
    }
    if (snapshot.value_counts.size() != num_attributes) {
      return Status::Internal(StrFormat(
          "worker %zu returned counts for %zu attributes, expected %zu", w,
          snapshot.value_counts.size(), num_attributes));
    }
    for (size_t a = 0; a < num_attributes; ++a) {
      const std::vector<uint64_t>& counts = snapshot.value_counts[a];
      std::vector<uint64_t>& total = merged[a];
      if (counts.size() != total.size()) {
        return Status::Internal(StrFormat(
            "worker %zu disagrees on the domain size of attribute %zu", w,
            a));
      }
      for (size_t v = 0; v < total.size(); ++v) total[v] += counts[v];
    }
    if (io != nullptr) *io += snapshot.io;
  }
  pass.merge_seconds = merge_timer.ElapsedSeconds();
  passes_.push_back(pass);
  return merged;
}

Status DistWorkerPool::PublishCatalog(const ItemCatalog& catalog) {
  catalog_payload_.clear();
  EncodeCheckpointCatalog(catalog.Snapshot(), &catalog_payload_);
  // Attribute the broadcast to pass 1 when it ran here (a fresh run); a
  // resumed run restored the catalog without a pass-1 exchange, so the
  // broadcast gets its own k = 1 entry.
  if (passes_.empty()) {
    passes_.emplace_back();
    passes_.back().k = 1;
  }
  for (size_t w = 0; w < workers_.size(); ++w) {
    QARM_RETURN_NOT_OK(SendToWorker(w, DistMessageType::kCatalog,
                                    catalog_payload_, &passes_.front()));
  }
  return Status::OK();
}

Result<PassCounters> DistWorkerPool::ScanCounters(const CountPlan& plan,
                                                  IndexRange blocks,
                                                  CountingStats* stats) {
  DistPassStats pass;
  pass.k = plan.k;
  const std::vector<IndexRange> ranges = SplitBlocks(blocks);
  std::vector<std::string> payloads(ranges.size());
  for (size_t w = 0; w < ranges.size(); ++w) {
    EncodeCountRequest(ranges[w], plan, &payloads[w]);
  }
  QARM_ASSIGN_OR_RETURN(std::vector<std::string> replies,
                        Exchange(DistMessageType::kCountRequest, payloads,
                                 DistMessageType::kCountReply, &pass));
  PassCounters merged = MakeCounters(plan, *file_);
  Timer merge_timer;
  double build_seconds = 0.0;
  for (size_t w = 0; w < replies.size(); ++w) {
    const uint32_t worker_id = workers_[w].hello.worker_id;
    const BlockRangeSource range(*file_, ranges[w].begin, ranges[w].end);
    // Exact integer sums in fixed worker order: bit-identical merges at
    // any worker count.
    QARM_ASSIGN_OR_RETURN(
        DistCountReply reply,
        MergeCountReply(reinterpret_cast<const uint8_t*>(replies[w].data()),
                        replies[w].size(), range.num_rows(), &merged));
    if (reply.worker_id != worker_id) {
      return Status::IOError(
          StrFormat("count reply of worker %u arrived from worker %u",
                    worker_id, reply.worker_id));
    }
    const CountingStats& scan = reply.stats;
    stats->isa = w == 0 ? scan.isa : std::min(stats->isa, scan.isa);
    stats->io += scan.io;
    stats->threads_used = std::max(stats->threads_used, scan.threads_used);
    stats->replicated_bytes += scan.replicated_bytes;
    build_seconds = std::max(build_seconds, scan.build_seconds);
    stats->scan_seconds = std::max(stats->scan_seconds, scan.scan_seconds);
  }
  stats->build_seconds += build_seconds;
  pass.merge_seconds = merge_timer.ElapsedSeconds();
  passes_.push_back(pass);
  return merged;
}

}  // namespace qarm
