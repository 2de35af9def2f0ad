// Distributed mining entry point: mines a QBT file with
// options.num_workers forked worker processes (qarm mine --workers=N) or
// one worker per options.worker_endpoints entry (qarm mine
// --worker=HOST:PORT).
//
// Shape of a run: the coordinator opens the QBT for its schema and row
// count, launches one worker per contiguous block range
// (SplitRange(num_blocks, workers) — effective workers = min(workers,
// blocks)) through DistWorkerPool, whose sessions all open with the same
// handshake whichever launcher started them, and then runs the ordinary
// mining driver with hooks that delegate every record scan: pass 1 merges per-shard value-count
// snapshots, each counting pass merges per-shard support counts, both in
// fixed worker order. Counts are exact integers, so the merged totals —
// and therefore the mined rules — are bit-identical to a single-process
// run at any worker count x thread count. Checkpointing, rule generation,
// interest, and decode run unchanged in the coordinator; num_workers is
// excluded from the checkpoint fingerprint, so runs may stop and resume at
// different worker counts.
#ifndef QARM_DIST_DIST_MINER_H_
#define QARM_DIST_DIST_MINER_H_

#include <string>

#include "core/miner.h"

namespace qarm {

// Mines `qbt_path` with options.num_workers forked workers, or over TCP
// when endpoints are listed. Falls back to the plain single-process
// MineStreamed when the effective forked worker count is <= 1. Fails like
// MineStreamed (invalid options, cancelled run, block read failure), plus
// IOError when a worker dies more than
// DistWorkerPool::kMaxRespawnsPerWorker times or rejects the handshake,
// and InvalidArgument when a worker serves a different QBT.
Result<MiningResult> MineDistributedQbt(const std::string& qbt_path,
                                        const MinerOptions& options);

}  // namespace qarm

#endif  // QARM_DIST_DIST_MINER_H_
