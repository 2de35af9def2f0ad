#include "dist/worker.h"

#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "core/frequent_items.h"
#include "core/options.h"
#include "core/support_counting.h"
#include "dist/framing.h"
#include "dist/handshake.h"
#include "dist/messages.h"
#include "storage/checkpoint_format.h"
#include "storage/fault_injection.h"

namespace qarm {
namespace {

// Serializes every frame the session writes: replies from the request
// handler and kHeartbeat frames from the liveness thread share one
// transport, and frames must never interleave mid-frame.
class SessionWriter {
 public:
  explicit SessionWriter(Transport& transport) : transport_(transport) {}

  Status Send(DistMessageType type, const std::string& payload) {
    std::lock_guard<std::mutex> lock(mu_);
    return SendFrame(transport_, static_cast<uint32_t>(type), payload);
  }

 private:
  Transport& transport_;
  std::mutex mu_;
};

// Scoped liveness: while a long scan runs, a helper thread emits a
// kHeartbeat frame every `interval_ms` so the coordinator's per-frame read
// deadline measures peer health rather than pass length. Destroyed (and
// joined) before the reply is sent. A failed heartbeat write just stops
// the thread — the handler's own reply send will surface the dead channel.
class HeartbeatGuard {
 public:
  HeartbeatGuard(SessionWriter& writer, uint64_t interval_ms) {
    if (interval_ms == 0) return;
    thread_ = std::thread([this, &writer, interval_ms] {
      std::unique_lock<std::mutex> lock(mu_);
      for (;;) {
        if (cv_.wait_for(lock, std::chrono::milliseconds(interval_ms),
                         [this] { return stop_; })) {
          return;
        }
        lock.unlock();
        const Status sent = writer.Send(DistMessageType::kHeartbeat, "");
        lock.lock();
        if (!sent.ok()) return;
      }
    });
  }

  ~HeartbeatGuard() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  std::thread thread_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

// The blocks a request names, which are input from outside the process:
// a range past the file's end is refused before any block is read.
Status CheckBlockRange(const IndexRange& blocks, const RecordSource& file) {
  if (blocks.end <= file.num_blocks()) return Status::OK();
  return Status::InvalidArgument(StrFormat(
      "request block range [%zu, %zu) runs past the %zu blocks served",
      blocks.begin, blocks.end, file.num_blocks()));
}

Result<std::string> HandlePass1(const DistHello& hello,
                                const MinerOptions& options,
                                const RecordSource& file,
                                const std::string& payload) {
  QARM_ASSIGN_OR_RETURN(IndexRange blocks,
                        ParsePass1Request(
                            reinterpret_cast<const uint8_t*>(payload.data()),
                            payload.size()));
  QARM_RETURN_NOT_OK(CheckBlockRange(blocks, file));
  const BlockRangeSource range(file, blocks.begin, blocks.end);
  ShardSnapshot snapshot;
  QARM_ASSIGN_OR_RETURN(
      snapshot.value_counts,
      ItemCatalog::ScanValueCounts(range, options.num_threads, &snapshot.io));
  snapshot.fingerprint = hello.fingerprint;
  snapshot.worker_id = hello.worker_id;
  snapshot.block_begin = blocks.begin;
  snapshot.block_end = blocks.end;
  snapshot.num_rows = range.num_rows();
  std::string out;
  EncodeShardSnapshot(snapshot, &out);
  return out;
}

Result<std::string> HandleCount(uint32_t worker_id,
                                const MinerOptions& options,
                                const RecordSource& file,
                                const ItemCatalog* catalog,
                                const std::string& payload) {
  if (catalog == nullptr) {
    return Status::Internal("count request arrived before the catalog");
  }
  QARM_ASSIGN_OR_RETURN(DistCountRequest request,
                        ParseCountRequest(
                            reinterpret_cast<const uint8_t*>(payload.data()),
                            payload.size()));
  QARM_RETURN_NOT_OK(CheckBlockRange(request.blocks, file));
  // A peer's plan indexes the catalog, the schema and the counter budget;
  // one that does not fit them is refused before any counter exists.
  QARM_RETURN_NOT_OK(CheckCountPlan(request.plan, file, *catalog, options));
  const BlockRangeSource range(file, request.blocks.begin,
                               request.blocks.end);
  DistCountReply reply;
  reply.worker_id = worker_id;
  QARM_ASSIGN_OR_RETURN(
      PassCounters counters,
      ScanCounters(range, *catalog, request.plan, options, &reply.stats));
  std::string out;
  EncodeCountReply(reply, counters, &out);
  return out;
}

// Deterministic crash hooks for the respawn tests. The block-read fault
// injector can only kill a worker inside a shard scan; this environment
// switch kills a generation-0 worker right after its pass-1 reply, so the
// coordinator's very next catalog SendFrame hits EOF inside
// PublishCatalog. Respawned incarnations (generation >= 1) ignore it.
bool TestExitHere(const DistHello& hello, const char* env) {
  return hello.generation == 0 && std::getenv(env) != nullptr;
}

// A second hook for the respawn and TCP tests and the dist-tcp-smoke CI
// job: kill the worker *process* after handling N frames of a generation-0
// session, the moral equivalent of `kill -9` landing at a deterministic
// spot. N = 2 dies on receipt of the catalog, before applying it.
uint64_t TestExitAfterFrames() {
  const char* env = std::getenv("QARM_DIST_TEST_EXIT_AFTER_FRAMES");
  if (env == nullptr) return 0;
  return std::strtoull(env, nullptr, 10);
}

// The session's scan options: the execution knobs its Hello carries.
// Everything that shapes the *output* arrives later through the request
// stream (the catalog broadcast, the counting plans), so defaulted
// MinerOptions fields here are harmless.
MinerOptions ScanOptions(const DistHello& hello) {
  MinerOptions options;
  options.num_threads = static_cast<size_t>(hello.num_threads);
  options.counter_memory_budget_bytes = hello.counter_memory_budget_bytes;
  return options;
}

// Answers a rejected opening frame with a best-effort kError, and returns
// the rejection as the session's result.
Status SendError(Transport& transport, const Status& status) {
  const Status sent =
      SendFrame(transport, static_cast<uint32_t>(DistMessageType::kError),
                status.ToString());
  (void)sent;
  return status;
}

// ServeConnection's request loop, after the handshake. `file` is the
// worker's full view of the QBT; each scan request names its blocks.
// `faults` is the Hello's parsed fault spec, if it had one.
Status RunWorkerSession(Transport& transport, const DistHello& hello,
                        const RecordSource& file,
                        const std::optional<FaultInjectionConfig>& faults) {
  const MinerOptions options = ScanOptions(hello);
  // Fault injection wraps the *full* source so block ids in the fault
  // schedule stay global — the same spec faults the same blocks whether the
  // run is single-process or sharded across any worker count. Only the
  // storage kinds apply here; network kinds live in the transport.
  std::optional<FaultInjectingRecordSource> faulty;
  const RecordSource* full = &file;
  if (faults.has_value() && FaultsArmed(*faults, FaultSite::kBlockRead)) {
    full = &faulty.emplace(file, *faults);
  }

  SessionWriter writer(transport);
  const uint64_t exit_after_frames = TestExitAfterFrames();
  uint64_t frames_handled = 0;
  std::optional<ItemCatalog> catalog;
  for (;;) {
    Result<DistFrame> frame = RecvFrame(transport);
    if (!frame.ok()) {
      // Coordinator gone (or the channel corrupted) — nothing to report to.
      return frame.status();
    }
    ++frames_handled;
    if (exit_after_frames > 0 && hello.generation == 0 &&
        frames_handled >= exit_after_frames) {
      std::_Exit(137);  // mimic SIGKILL's 128+9 exit status
    }
    switch (static_cast<DistMessageType>(frame->type)) {
      case DistMessageType::kShutdown:
        return Status::OK();
      case DistMessageType::kPass1Request:
      case DistMessageType::kCountRequest: {
        const bool pass1 =
            static_cast<DistMessageType>(frame->type) ==
            DistMessageType::kPass1Request;
        Result<std::string> reply{std::string()};
        {
          HeartbeatGuard liveness(writer, hello.heartbeat_ms);
          reply = pass1 ? HandlePass1(hello, options, *full, frame->payload)
                        : HandleCount(hello.worker_id, options, *full,
                                      catalog.has_value() ? &*catalog : nullptr,
                                      frame->payload);
        }
        const Status sent =
            !reply.ok() ? writer.Send(DistMessageType::kError,
                                      reply.status().ToString())
            : pass1     ? writer.Send(DistMessageType::kPass1Reply, *reply)
                        : writer.Send(DistMessageType::kCountReply, *reply);
        (void)sent;
        if (pass1 && reply.ok() &&
            TestExitHere(hello, "QARM_DIST_TEST_EXIT_BEFORE_CATALOG")) {
          std::_Exit(1);
        }
        break;
      }
      case DistMessageType::kCatalog: {
        Result<CheckpointCatalog> parsed = ParseCheckpointCatalog(
            reinterpret_cast<const uint8_t*>(frame->payload.data()),
            frame->payload.size());
        Result<ItemCatalog> restored =
            parsed.ok() ? ItemCatalog::Restore(*full, *parsed)
                        : parsed.status();
        if (!restored.ok()) {
          const Status sent = writer.Send(DistMessageType::kError,
                                          restored.status().ToString());
          (void)sent;
          break;
        }
        // No reply: the coordinator pipelines the catalog broadcast with
        // the first count request.
        catalog.emplace(std::move(restored).value());
        break;
      }
      default: {
        const Status sent = writer.Send(
            DistMessageType::kError,
            Status::Internal("unexpected message type").ToString());
        (void)sent;
        break;
      }
    }
  }
}

}  // namespace

Status ServeConnection(TcpTransport& transport, const QbtFileSource& file,
                       std::atomic<uint64_t>* handshakes) {
  QARM_ASSIGN_OR_RETURN(DistFrame first, RecvFrame(transport));
  if (static_cast<DistMessageType>(first.type) != DistMessageType::kHello) {
    return SendError(transport, Status::InvalidArgument(
                                    "expected a Hello as the first frame"));
  }
  Result<DistHello> hello = ParseHello(
      reinterpret_cast<const uint8_t*>(first.payload.data()),
      first.payload.size());
  if (!hello.ok()) return SendError(transport, hello.status());

  // Arm the session's write deadline and (when the spec carries network
  // kinds) the deterministic transport saboteur, both from the Hello.
  if (hello->io_timeout_ms > 0) {
    transport.SetWriteTimeoutMs(hello->io_timeout_ms);
  }
  std::optional<FaultInjectionConfig> faults;
  if (!hello->inject_faults_spec.empty()) {
    Result<FaultInjectionConfig> spec =
        ParseFaultSpec(hello->inject_faults_spec);
    if (!spec.ok()) return SendError(transport, spec.status());
    faults = *spec;
    faults->generation = hello->generation;
    transport.SetFaults(*faults);
  }

  DistHelloAck ack;
  ack.worker_id = hello->worker_id;
  ack.generation = hello->generation;
  ack.fingerprint = hello->fingerprint;
  ack.num_rows = file.num_rows();
  ack.num_blocks = file.num_blocks();
  ack.index_crc = file.reader().IndexPrefixCrc(file.num_blocks());
  std::string payload;
  EncodeHelloAck(ack, &payload);
  QARM_RETURN_NOT_OK(SendFrame(
      transport, static_cast<uint32_t>(DistMessageType::kHelloAck), payload));
  if (handshakes != nullptr) {
    handshakes->fetch_add(1, std::memory_order_relaxed);
  }
  return RunWorkerSession(transport, *hello, file, faults);
}

}  // namespace qarm
