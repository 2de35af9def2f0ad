#include "dist/dist_miner.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "core/incremental_miner.h"
#include "core/mining_checkpoint.h"
#include "dist/coordinator.h"
#include "dist/worker_registry.h"
#include "storage/record_source.h"

namespace qarm {

Result<MiningResult> MineDistributedQbt(const std::string& qbt_path,
                                        const MinerOptions& options,
                                        IncrementalDecision* incremental) {
  QARM_RETURN_NOT_OK(options.Validate());
  QARM_ASSIGN_OR_RETURN(std::unique_ptr<QbtFileSource> source,
                        incremental != nullptr
                            ? OpenAppendedQbt(qbt_path)
                            : QbtFileSource::Open(qbt_path));

  // Listed endpoints run one worker each; otherwise --workers processes
  // are forked. Either way a worker needs at least one block. A one-worker
  // forked "pool" would only add transport overhead to an identical
  // computation, so it runs in-process instead — but a single TCP endpoint
  // still mines remotely: that is the point of the flag.
  QARM_ASSIGN_OR_RETURN(std::vector<WorkerEndpoint> endpoints,
                        ParseWorkerEndpoints(options.worker_endpoints));
  const size_t requested = endpoints.empty()
                               ? std::max<size_t>(1, options.num_workers)
                               : endpoints.size();
  const size_t effective = std::min(requested, source->num_blocks());
  std::unique_ptr<DistWorkerPool> pool;
  if (effective > 1 || (effective == 1 && !endpoints.empty())) {
    QARM_ASSIGN_OR_RETURN(
        pool, DistWorkerPool::Launch(*source, options,
                                     ComputeMiningFingerprint(options, *source),
                                     effective, std::move(endpoints)));
  }

  Result<MiningResult> result = Status::Internal("not mined");
  if (incremental != nullptr) {
    result = MineIncremental(*source, options, pool.get(), incremental);
  } else {
    MiningHooks hooks;
    hooks.scan = pool.get();
    // Append-mode checkpoints must record which QBT blocks they cover so a
    // later incremental run can validate the file grew without rewriting
    // them. Harmless (all-zero) otherwise.
    if (options.append_mode) hooks.checkpoint_base = CheckpointBaseOf(*source);
    result = QuantitativeRuleMiner(options).MineStreamed(*source, hooks);
  }
  if (result.ok() && pool != nullptr) result->stats.dist = pool->RunStats();
  return result;
}

}  // namespace qarm
