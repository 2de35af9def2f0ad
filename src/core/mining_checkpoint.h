// Bridges the miner's structures and the storage-layer checkpoint
// (storage/checkpoint_format.h): computes the run fingerprint that decides
// whether a checkpoint belongs to this run, converts ItemCatalog +
// FrequentItemsetResult to the serializable CheckpointState, and restores
// them on resume.
#ifndef QARM_CORE_MINING_CHECKPOINT_H_
#define QARM_CORE_MINING_CHECKPOINT_H_

#include <cstddef>
#include <cstdint>

#include "common/status.h"
#include "core/apriori_quant.h"
#include "core/frequent_items.h"
#include "core/options.h"
#include "storage/checkpoint_format.h"
#include "storage/record_source.h"

namespace qarm {

// Checkpoint activity of one mining run (surfaced in MiningStats and the
// report JSON).
struct CheckpointRunStats {
  bool enabled = false;
  // This run resumed from a checkpoint, skipping `resumed_passes` passes.
  bool resumed = false;
  size_t resumed_passes = 0;
  size_t checkpoints_written = 0;
  uint64_t last_checkpoint_bytes = 0;
  double write_seconds = 0.0;

  static void Fields(auto&& f, auto&... s) {
    f("enabled", s.enabled...);
    f("resumed", s.resumed...);
    f("resumed_passes", s.resumed_passes...);
    f("checkpoints_written", s.checkpoints_written...);
    f("last_checkpoint_bytes", s.last_checkpoint_bytes...);
    f("write_seconds", s.write_seconds...);
  }
};

// Hash of everything that determines the mining *output*: the
// output-affecting options (support/confidence thresholds, partitioning,
// interest settings, itemset-size cap) and the source's shape (row count
// plus every attribute's kind, domain, and taxonomy ranges). Deliberately
// excludes execution knobs — num_threads, block sizes, memory budgets,
// retry/fault settings — so a run can resume under a different thread
// count or budget and still produce bit-identical rules.
uint64_t ComputeMiningFingerprint(const MinerOptions& options,
                                  const RecordSource& source);

// The row-count-independent part of the fingerprint: the same
// output-affecting options and attribute shapes, but NOT the number of
// rows. An appended QBT file keeps this value while changing the full
// fingerprint, so the incremental miner uses it to recognise a complete
// checkpoint of an earlier (shorter) version of the same file mined with
// the same settings.
uint64_t ComputeMiningOptionsFingerprint(const MinerOptions& options,
                                         const RecordSource& source);

// Packages the catalog and the completed passes as a CheckpointState ready
// for WriteCheckpoint.
CheckpointState BuildCheckpointState(uint64_t fingerprint,
                                     const RecordSource& source,
                                     const ItemCatalog& catalog,
                                     const FrequentItemsetResult& progress);

// Rebuilds the completed passes recorded in `state` as a
// FrequentItemsetResult to hand MineFrequentItemsets as `resume_from`.
// `catalog` must already be restored (ItemCatalog::Restore) from the same
// state; item ids are validated against it. Timings in the reconstructed
// PassStats are zero — the rules of a resumed run are bit-identical, its
// timing breakdown is not.
Status RestoreCheckpointProgress(const CheckpointState& state,
                                 const ItemCatalog& catalog,
                                 FrequentItemsetResult* progress);

}  // namespace qarm

#endif  // QARM_CORE_MINING_CHECKPOINT_H_
