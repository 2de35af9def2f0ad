// Distributed mining entry point: mines a QBT file with
// options.num_workers forked worker processes (qarm mine --workers=N) or
// one worker per options.worker_endpoints entry (qarm mine
// --worker=HOST:PORT), from scratch or incrementally (--append).
//
// Shape of a run: the coordinator opens the QBT for its schema and row
// count, launches min(workers, blocks) workers once through
// DistWorkerPool, whose sessions all open with the same handshake
// whichever launcher started them, and hands the pool as the run's record
// scan (core/record_scan.h) to the full or the incremental driver. Every
// scan then names its blocks: the pool splits them across the workers,
// and adds the value counts of pass 1 and each counting pass's counters up
// in fixed worker order. Counts are exact integers, so the merged totals —
// and therefore the mined rules — are bit-identical to a single-process
// run at any worker count x thread count, full or incremental.
// Planning, reducing, checkpointing, rule generation, interest, and decode
// run unchanged in the coordinator; num_workers is excluded from the
// checkpoint fingerprint, so runs may stop and resume at different worker
// counts.
#ifndef QARM_DIST_DIST_MINER_H_
#define QARM_DIST_DIST_MINER_H_

#include <string>

#include "core/incremental_miner.h"
#include "core/miner.h"

namespace qarm {

// Mines `qbt_path` with options.num_workers forked workers, or over TCP
// when endpoints are listed. With `incremental` non-null the file is
// opened with OpenAppendedQbt and mined by MineIncremental, which fills
// `incremental`. Scans in process when the effective forked worker count
// is <= 1. Fails like MineStreamed (invalid options, cancelled run, block
// read failure), plus IOError when a worker dies more than
// DistWorkerPool::kMaxRespawnsPerWorker times or rejects the handshake,
// and InvalidArgument when a worker serves a different QBT.
Result<MiningResult> MineDistributedQbt(
    const std::string& qbt_path, const MinerOptions& options,
    IncrementalDecision* incremental = nullptr);

}  // namespace qarm

#endif  // QARM_DIST_DIST_MINER_H_
