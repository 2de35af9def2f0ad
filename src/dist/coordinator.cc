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
    uint64_t fingerprint, const std::vector<IndexRange>& shards,
    std::vector<WorkerEndpoint> endpoints) {
  if (shards.empty()) {
    return Status::InvalidArgument("worker pool needs at least one shard");
  }
  // No public constructor, so no make_unique.
  std::unique_ptr<DistWorkerPool> pool(new DistWorkerPool());
  pool->file_ = &file;
  pool->expected_index_crc_ =
      file.reader().IndexPrefixCrc(file.num_blocks());
  pool->forked_ = endpoints.empty();
  if (pool->forked_) {
    endpoints.emplace_back();
  } else if (shards.size() > endpoints.size()) {
    return Status::InvalidArgument(StrFormat(
        "%zu shards need at least as many worker endpoints, got %zu",
        shards.size(), endpoints.size()));
  }
  pool->endpoints_ = std::move(endpoints);
  pool->io_timeout_ms_ = options.dist_io_timeout_ms;
  pool->connect_policy_.max_attempts =
      std::max<size_t>(1, options.dist_connect_attempts);
  pool->connect_policy_.initial_backoff_ms = options.dist_connect_backoff_ms;
  pool->connect_policy_.max_backoff_ms =
      std::max(options.dist_connect_backoff_ms * 16.0, 1000.0);
  pool->workers_.resize(shards.size());
  for (size_t w = 0; w < shards.size(); ++w) {
    Worker& worker = pool->workers_[w];
    DistHello& hello = worker.hello;
    hello.worker_id = static_cast<uint32_t>(w);
    hello.block_begin = shards[w].begin;
    hello.block_end = shards[w].end;
    hello.fingerprint = fingerprint;
    hello.num_threads = options.num_threads;
    hello.counter_memory_budget_bytes = options.counter_memory_budget_bytes;
    hello.parallel_replication_budget_bytes =
        options.parallel_replication_budget_bytes;
    hello.stream_block_rows = options.stream_block_rows;
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

std::vector<DistWorkerStats> DistWorkerPool::WorkerStats() const {
  std::vector<DistWorkerStats> stats;
  stats.reserve(workers_.size());
  for (const Worker& worker : workers_) {
    stats.push_back(worker.stats);
  }
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
      RetryWithBackoff(connect_policy_, e, nullptr, [&]() -> Status {
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
                    << worker.hello.generation << ") and replaying blocks ["
                    << worker.hello.block_begin << ", "
                    << worker.hello.block_end << ")";
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
  // cross-request state, then the in-flight request re-runs its shard scan.
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
    DistMessageType request_type, const std::string& payload,
    DistMessageType reply_type, DistPassStats* stats) {
  Timer timer;
  // Fan the request out to every worker before reading any reply, so the
  // shards count concurrently; then collect strictly in worker order.
  for (size_t w = 0; w < workers_.size(); ++w) {
    QARM_RETURN_NOT_OK(SendToWorker(w, request_type, payload, stats));
  }
  std::vector<std::string> replies(workers_.size());
  for (size_t w = 0; w < workers_.size(); ++w) {
    QARM_RETURN_NOT_OK(ReceiveReply(w, request_type, payload, reply_type,
                                    stats, &replies[w]));
  }
  if (stats != nullptr) stats->exchange_seconds += timer.ElapsedSeconds();
  return replies;
}

Result<std::vector<ShardSnapshot>> DistWorkerPool::ScanShards(
    DistPassStats* stats) {
  QARM_ASSIGN_OR_RETURN(
      std::vector<std::string> replies,
      Exchange(DistMessageType::kPass1Request, "",
               DistMessageType::kPass1Reply, stats));
  std::vector<ShardSnapshot> snapshots;
  snapshots.reserve(replies.size());
  for (size_t w = 0; w < replies.size(); ++w) {
    QARM_ASSIGN_OR_RETURN(
        ShardSnapshot snapshot,
        ParseShardSnapshot(
            reinterpret_cast<const uint8_t*>(replies[w].data()),
            replies[w].size()));
    const Worker& worker = workers_[w];
    if (snapshot.worker_id != worker.hello.worker_id ||
        snapshot.fingerprint != worker.hello.fingerprint ||
        snapshot.block_begin != worker.hello.block_begin ||
        snapshot.block_end != worker.hello.block_end) {
      return Status::Internal(StrFormat(
          "shard snapshot from worker %u does not match its assignment",
          worker.hello.worker_id));
    }
    snapshots.push_back(std::move(snapshot));
  }
  return snapshots;
}

Status DistWorkerPool::PublishCatalog(std::string payload,
                                      DistPassStats* stats) {
  catalog_payload_ = std::move(payload);
  for (size_t w = 0; w < workers_.size(); ++w) {
    QARM_RETURN_NOT_OK(SendToWorker(w, DistMessageType::kCatalog,
                                    catalog_payload_, stats));
  }
  return Status::OK();
}

Result<std::vector<DistCountReply>> DistWorkerPool::CountShards(
    const DistCountRequest& request, DistPassStats* stats) {
  std::string payload;
  EncodeCountRequest(request, &payload);
  QARM_ASSIGN_OR_RETURN(std::vector<std::string> replies,
                        Exchange(DistMessageType::kCountRequest, payload,
                                 DistMessageType::kCountReply, stats));
  std::vector<DistCountReply> parsed;
  parsed.reserve(replies.size());
  for (size_t w = 0; w < replies.size(); ++w) {
    QARM_ASSIGN_OR_RETURN(
        DistCountReply reply,
        ParseCountReply(reinterpret_cast<const uint8_t*>(replies[w].data()),
                        replies[w].size()));
    if (reply.worker_id != workers_[w].hello.worker_id) {
      return Status::Internal("count reply arrived out of worker order");
    }
    parsed.push_back(std::move(reply));
  }
  return parsed;
}

}  // namespace qarm
