#include "dist/dist_miner.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/mining_checkpoint.h"
#include "core/support_counting.h"
#include "dist/coordinator.h"
#include "dist/worker_registry.h"
#include "storage/checkpoint_format.h"
#include "storage/record_source.h"

namespace qarm {
namespace {

// Folds the workers' scan stats into a pass whose plan and reduce ran
// here: I/O and replicas sum over the shards, threads take the widest
// shard, the ISA the lowest, and the scan and the workers' share of the
// build the slowest shard.
void AddScanStats(const std::vector<CountingStats>& scans,
                  CountingStats* stats) {
  if (scans.empty()) return;
  double build_seconds = 0.0;
  stats->isa = scans.front().isa;
  for (const CountingStats& shard : scans) {
    stats->io += shard.io;
    stats->threads_used = std::max(stats->threads_used, shard.threads_used);
    stats->isa = std::min(stats->isa, shard.isa);
    stats->replicated_bytes += shard.replicated_bytes;
    build_seconds = std::max(build_seconds, shard.build_seconds);
    stats->scan_seconds = std::max(stats->scan_seconds, shard.scan_seconds);
  }
  stats->build_seconds += build_seconds;
}

}  // namespace

Result<MiningResult> MineDistributedQbt(const std::string& qbt_path,
                                        const MinerOptions& options) {
  QARM_RETURN_NOT_OK(options.Validate());
  QARM_ASSIGN_OR_RETURN(std::unique_ptr<QbtFileSource> source,
                        QbtFileSource::Open(qbt_path));

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
  const QuantitativeRuleMiner miner(options);
  // Append-mode checkpoints must record which QBT blocks they cover so a
  // later incremental run can validate the file grew without rewriting
  // them. Harmless (all-zero) otherwise.
  const CheckpointBaseInfo base_info =
      options.append_mode ? CheckpointBaseOf(*source) : CheckpointBaseInfo{};
  if (effective == 0 || (effective == 1 && endpoints.empty())) {
    MiningHooks base_hooks;
    base_hooks.checkpoint_base = base_info;
    return miner.MineStreamed(*source, base_hooks);
  }

  QARM_ASSIGN_OR_RETURN(
      std::unique_ptr<DistWorkerPool> pool,
      DistWorkerPool::Launch(*source, options,
                             ComputeMiningFingerprint(options, *source),
                             SplitRange(source->num_blocks(), effective),
                             std::move(endpoints)));

  DistRunStats dist;
  dist.num_workers = pool->num_workers();
  const size_t num_attributes = source->num_attributes();
  const uint64_t num_rows = source->num_rows();

  MiningHooks hooks;
  hooks.checkpoint_base = base_info;
  hooks.scan_value_counts =
      [&](ScanIoStats* io) -> Result<std::vector<std::vector<uint64_t>>> {
    DistPassStats pass;
    pass.k = 1;
    QARM_ASSIGN_OR_RETURN(std::vector<ShardSnapshot> snapshots,
                          pool->ScanShards(&pass));
    Timer merge_timer;
    uint64_t total_rows = 0;
    std::vector<std::vector<uint64_t>> merged;
    for (size_t w = 0; w < snapshots.size(); ++w) {
      ShardSnapshot& snapshot = snapshots[w];
      if (snapshot.value_counts.size() != num_attributes) {
        return Status::Internal(StrFormat(
            "worker %zu returned counts for %zu attributes, expected %zu",
            w, snapshot.value_counts.size(), num_attributes));
      }
      total_rows += snapshot.num_rows;
      if (io != nullptr) *io += snapshot.io;
      if (w == 0) {
        merged = std::move(snapshot.value_counts);
        continue;
      }
      for (size_t a = 0; a < num_attributes; ++a) {
        const std::vector<uint64_t>& shard_counts = snapshot.value_counts[a];
        std::vector<uint64_t>& total = merged[a];
        if (shard_counts.size() != total.size()) {
          return Status::Internal(StrFormat(
              "worker %zu disagrees on the domain size of attribute %zu",
              w, a));
        }
        for (size_t v = 0; v < total.size(); ++v) {
          total[v] += shard_counts[v];
        }
      }
    }
    if (total_rows != num_rows) {
      return Status::Internal(StrFormat(
          "shards scanned %llu rows, table has %llu",
          static_cast<unsigned long long>(total_rows),
          static_cast<unsigned long long>(num_rows)));
    }
    pass.merge_seconds = merge_timer.ElapsedSeconds();
    dist.passes.push_back(pass);
    return merged;
  };

  // The catalog outlives every counting pass; plans and reduces read it.
  const ItemCatalog* catalog = nullptr;
  hooks.publish_catalog = [&](const ItemCatalog& published,
                              bool /*restored*/) -> Status {
    catalog = &published;
    std::string payload;
    EncodeCheckpointCatalog(published.Snapshot(), &payload);
    // Attribute the broadcast to pass 1 when it exists (fresh run); a
    // resumed run restored the catalog without a pass-1 exchange, so the
    // broadcast gets its own k = 1 entry.
    if (dist.passes.empty()) {
      DistPassStats pass;
      pass.k = 1;
      QARM_RETURN_NOT_OK(pool->PublishCatalog(std::move(payload), &pass));
      dist.passes.push_back(pass);
      return Status::OK();
    }
    return pool->PublishCatalog(std::move(payload), &dist.passes.front());
  };

  // Plan once, let the workers count, reduce once: candidates never leave
  // this process, and only the plan's groups and the counters travel.
  hooks.count_supports =
      [&](const CandidateStream& candidates,
          CountingStats* stats) -> Result<std::vector<uint32_t>> {
    CountingStats counting;
    const CountPlan plan =
        PlanCounting(*source, *catalog, candidates, options, &counting);
    PassCounters merged = MakeCounters(plan, *source);
    DistPassStats pass;
    pass.k = candidates.k();
    QARM_ASSIGN_OR_RETURN(std::vector<CountingStats> scans,
                          pool->CountShards(plan, &merged, &pass));
    AddScanStats(scans, &counting);
    std::vector<uint32_t> counts = ReduceCounts(
        plan, *source, *catalog, candidates,
        ResolveNumThreads(options.num_threads), &merged, &counting);
    dist.passes.push_back(pass);
    if (stats != nullptr) *stats = counting;
    return counts;
  };

  Result<MiningResult> result = miner.MineStreamed(*source, hooks);
  if (result.ok()) {
    dist.workers_respawned = pool->workers_respawned();
    dist.workers = pool->WorkerStats();
    result->stats.dist = std::move(dist);
  }
  return result;
}

}  // namespace qarm
