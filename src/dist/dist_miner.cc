#include "dist/dist_miner.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/candidate_gen.h"
#include "core/mining_checkpoint.h"
#include "dist/coordinator.h"
#include "dist/worker_registry.h"
#include "storage/checkpoint_format.h"
#include "storage/record_source.h"

namespace qarm {
namespace {

// Folds the shards' counting stats into the pass's: structural fields
// (grouping, counter kinds, ISA) are identical across workers — every
// worker groups the same candidates under the same options — so worker 0
// speaks for all; I/O sums; wall times take the slowest shard.
void MergeCountingStats(const std::vector<DistCountReply>& replies,
                        CountingStats* stats) {
  if (stats == nullptr || replies.empty()) return;
  *stats = replies[0].stats;
  for (size_t w = 1; w < replies.size(); ++w) {
    const CountingStats& shard = replies[w].stats;
    stats->io += shard.io;
    stats->threads_used = std::max(stats->threads_used, shard.threads_used);
    stats->group_seconds = std::max(stats->group_seconds, shard.group_seconds);
    stats->build_seconds = std::max(stats->build_seconds, shard.build_seconds);
    stats->scan_seconds = std::max(stats->scan_seconds, shard.scan_seconds);
    stats->reduce_seconds =
        std::max(stats->reduce_seconds, shard.reduce_seconds);
  }
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

  hooks.publish_catalog = [&](const ItemCatalog& catalog,
                              bool /*restored*/) -> Status {
    std::string payload;
    EncodeCheckpointCatalog(catalog.Snapshot(), &payload);
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

  hooks.count_supports =
      [&](const CandidateStream& candidates,
          CountingStats* stats) -> Result<std::vector<uint32_t>> {
    DistCountRequest request;
    request.k = static_cast<uint32_t>(candidates.k());
    request.num_candidates = candidates.size();
    // Pass 2's implicit cross product ships as a flag — both sides derive
    // the same C2 from the shared catalog instead of moving millions of
    // ids over the pipe.
    if (dynamic_cast<const ImplicitPairStream*>(&candidates) != nullptr) {
      request.implicit_pairs = true;
    } else {
      request.ids.reserve(candidates.size() * candidates.k());
      candidates.ForEachChunk([&](size_t /*first*/, const ItemsetSet& chunk) {
        for (size_t i = 0; i < chunk.size(); ++i) {
          const int32_t* ids = chunk.itemset(i);
          request.ids.insert(request.ids.end(), ids, ids + chunk.k());
        }
      });
    }
    DistPassStats pass;
    pass.k = request.k;
    QARM_ASSIGN_OR_RETURN(std::vector<DistCountReply> replies,
                          pool->CountShards(request, &pass));
    Timer merge_timer;
    std::vector<uint32_t> counts(candidates.size(), 0);
    for (size_t w = 0; w < replies.size(); ++w) {
      if (replies[w].counts.size() != counts.size()) {
        return Status::Internal(StrFormat(
            "worker %zu returned %zu counts for %zu candidates", w,
            replies[w].counts.size(), counts.size()));
      }
      // Exact integer sums in fixed worker order: bit-identical merges at
      // any worker count.
      for (size_t c = 0; c < counts.size(); ++c) {
        counts[c] += replies[w].counts[c];
      }
    }
    MergeCountingStats(replies, stats);
    pass.merge_seconds = merge_timer.ElapsedSeconds();
    dist.passes.push_back(pass);
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
