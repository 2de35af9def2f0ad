// Coordinator side of distributed mining: launches the workers, owns their
// sessions, and runs the lockstep request/reply exchanges. The pool is a
// RecordScan (core/record_scan.h): it splits each scan's block range
// across its workers and adds their replies up in worker order, so the
// miner plans, reduces and checkpoints exactly as in process. A worker is
// launched one of two ways — a forked child on a socketpair, or a TCP
// connection to a `qarm worker` server — and that launcher is the only
// place the two modes differ. Every session then opens with the same
// Hello/HelloAck handshake and identity cross-check, runs under the same
// read/write deadlines and heartbeats, and recovers the same way.
//
// Failure model: a worker that vanishes (EOF, reset, or a missed read
// deadline) is relaunched at generation + 1 — a forked child is SIGKILLed,
// reaped and re-forked; a TCP session reconnects, moving to the next
// reachable endpoint when its own refuses to come back — and replayed: the
// catalog (if already published) plus its in-flight request, range
// included, under a per-worker relaunch budget. A worker that *answers* with a kError
// frame fails the run instead, because a relaunched worker would
// deterministically hit the same error. Replies are always collected in
// worker order, so merged counts never depend on worker scheduling or
// which endpoint served a range.
#ifndef QARM_DIST_COORDINATOR_H_
#define QARM_DIST_COORDINATOR_H_

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/retry.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/miner.h"
#include "core/record_scan.h"
#include "dist/handshake.h"
#include "dist/messages.h"
#include "dist/transport.h"
#include "dist/worker_registry.h"
#include "storage/record_source.h"

namespace qarm {

class DistWorkerPool : public RecordScan {
 public:
  // One worker survives this many relaunches before the pool declares it
  // permanently dead and fails the run. Each relaunch raises the worker's
  // generation, so any kill-fault schedule with fails <= this bound is
  // ridden out.
  static constexpr size_t kMaxRespawnsPerWorker = 5;

  // Launches `num_workers` workers (at least one) and opens each session
  // with the handshake. With no `endpoints`, every worker is a forked child
  // serving the coordinator's own `file`, which must outlive the pool; the
  // pool forks here and on every relaunch, so it must be driven while the
  // process has no live threads (thread pools in this codebase are
  // ephemeral, so any point between phases qualifies). Otherwise worker w
  // connects to endpoints[w] (num_workers <= endpoints.size(); spare
  // endpoints stay idle as redistribution targets). Either way each
  // HelloAck must report `file`'s rows, blocks and index CRC. `options`
  // supplies the workers' execution knobs, the deadlines, the heartbeat
  // interval and the connect budget.
  static Result<std::unique_ptr<DistWorkerPool>> Launch(
      const QbtFileSource& file, const MinerOptions& options,
      uint64_t fingerprint, size_t num_workers,
      std::vector<WorkerEndpoint> endpoints);

  // Shuts every session down, then kills and reaps any forked children
  // (the TCP servers keep serving other runs).
  ~DistWorkerPool();

  DistWorkerPool(const DistWorkerPool&) = delete;
  DistWorkerPool& operator=(const DistWorkerPool&) = delete;

  size_t num_workers() const { return workers_.size(); }
  // The run so far: one entry per exchange, and per-worker robustness
  // counters, endpoint attribution included.
  DistRunStats RunStats() const;

  // Each override splits `blocks` with SplitRange into at most one range
  // per worker, in worker order, and sends worker w its own range; a worker
  // without a range gets no request.

  // Pass 1: adds the workers' value counts up, each snapshot
  // cross-checked against the fingerprint and the range it was sent.
  Result<ValueCounts> ScanValueCounts(IndexRange blocks,
                                      ScanIoStats* io) override;

  // Broadcasts the item catalog (QCP catalog encoding) and retains the
  // payload so a relaunched worker can be replayed into the same state.
  Status PublishCatalog(const ItemCatalog& catalog) override;

  // One counting pass: sends each worker the plan's groups and its range,
  // and adds its counters up, with the decode counted as the pass's merge
  // time. Folds the workers' scan stats into `stats`: I/O and replicas sum,
  // threads take the widest worker, the ISA the lowest, and the scan and
  // the workers' share of the build the slowest. A reply that does not fit
  // the plan or its range's rows fails the pass with an IOError; it is not
  // a dead worker, so nothing is relaunched.
  Result<PassCounters> ScanCounters(const CountPlan& plan, IndexRange blocks,
                                    CountingStats* stats) override;

 private:
  struct Worker {
    DistHello hello;  // the identity; generation counts relaunches
    std::unique_ptr<TcpTransport> transport;
    pid_t pid = -1;       // the forked child, while one runs
    size_t endpoint = 0;  // current pin into endpoints_
    DistWorkerStats stats;
  };

  DistWorkerPool() = default;

  // The launcher, the one place fork and TCP differ: a connected socket
  // for worker w's current generation. Fork mode forks a child that serves
  // the socketpair's other end; TCP mode connects to endpoints_[e].
  Result<int> OpenChannel(size_t w, size_t e);
  // Closes worker w's session and SIGKILLs and reaps its forked child, if
  // any: a live-but-silent child must not turn a deadline verdict into a
  // hang in waitpid.
  void Reap(Worker& worker);
  // Opens a session for worker w's current generation: walks the endpoint
  // ring from the worker's pin — the same endpoint first (replay), then
  // the survivors (redistribution); fork mode's ring is one fresh child —
  // and handshakes on the first channel that opens.
  Status ConnectWorker(size_t w);
  // Reaps a vanished worker, brings up generation + 1, and replays the
  // catalog plus its in-flight request.
  Status RespawnAndReplay(size_t w, DistMessageType request_type,
                          const std::string& request_payload,
                          DistPassStats* stats);
  Status SendToWorker(size_t w, DistMessageType type,
                      const std::string& payload, DistPassStats* stats);
  // Reads worker w's reply to the in-flight request, skipping heartbeat
  // frames and relaunching/replaying through transport failures until the
  // budget runs out.
  Status ReceiveReply(size_t w, DistMessageType request_type,
                      const std::string& request_payload,
                      DistMessageType reply_type, DistPassStats* stats,
                      std::string* reply_payload);
  // Sends payloads[w] to worker w, for the first payloads.size() workers,
  // then collects their replies in worker order.
  Result<std::vector<std::string>> Exchange(
      DistMessageType request_type, const std::vector<std::string>& payloads,
      DistMessageType reply_type, DistPassStats* stats);
  // `blocks` split into at most one range per worker.
  std::vector<IndexRange> SplitBlocks(IndexRange blocks) const;

  // The QBT every worker must serve; forked children serve this very
  // mapping.
  const QbtFileSource* file_ = nullptr;
  uint32_t expected_index_crc_ = 0;
  bool forked_ = false;
  // TCP mode: the endpoint ring. Fork mode: one unnamed place.
  std::vector<WorkerEndpoint> endpoints_;
  uint64_t io_timeout_ms_ = 0;
  RetryPolicy connect_policy_;
  std::vector<Worker> workers_;
  std::string catalog_payload_;  // retained for relaunch replay
  size_t workers_respawned_ = 0;
  std::vector<DistPassStats> passes_;
};

}  // namespace qarm

#endif  // QARM_DIST_COORDINATOR_H_
