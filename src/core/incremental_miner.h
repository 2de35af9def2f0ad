// Incremental mining over an appended QBT file (`qarm mine --append`).
//
// A completed append-mode run leaves its final state behind as a QCP
// checkpoint flagged complete: the item catalog's raw value counts and
// every pass's FULL per-candidate support counts, stamped with the block
// range of the file it covered. When rows are later appended (qarm append
// — new blocks only, existing bytes never rewritten), the next run does
// not have to rescan the base:
//
//   * pass 1: value counts are per-attribute per-value sums, so scanning
//     only the appended blocks and adding the checkpointed counts yields
//     exactly the full-file counts; the item catalog is rebuilt from the
//     merged counts.
//   * passes k >= 2: candidate generation is deterministic, so as long as
//     the frequent-itemset frontier matches the base run's, pass k's
//     candidates are the base run's candidates in the same order — each
//     pass counts only the appended blocks and adds the checkpointed
//     per-candidate counts positionally. The moment the frontier diverges
//     (new rows made an itemset cross the support threshold in either
//     direction), later passes fall back to scanning the whole file.
//
// Every merged count is an exact integer, so the mined rules are
// bit-identical to a from-scratch mine of the grown file — incremental
// mode is purely an execution strategy. When the checkpoint cannot serve
// as a base (missing, different options, base blocks no longer intact,
// catalog changed shape), the run degrades to a full mine with a logged
// reason, and still writes a fresh complete checkpoint for next time.
#ifndef QARM_CORE_INCREMENTAL_MINER_H_
#define QARM_CORE_INCREMENTAL_MINER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "core/miner.h"
#include "core/options.h"
#include "core/record_scan.h"
#include "storage/record_source.h"

namespace qarm {

// How MineIncremental decided to run, surfaced for logs/stats/tests.
struct IncrementalDecision {
  // True: the base checkpoint was valid and the counting passes scanned
  // (at most) the appended blocks. False: full mine (see `reason`), or an
  // ordinary mid-run resume (`resumed`).
  bool incremental = false;
  // The run resumed a *mid-run* checkpoint of the grown file (e.g. a
  // killed incremental run) instead of using it as an incremental base.
  bool resumed = false;
  // Human-readable reason for a non-incremental run; empty for Route A.
  std::string reason;
  uint64_t base_blocks = 0;
  uint64_t delta_blocks = 0;
  uint64_t base_rows = 0;
  uint64_t delta_rows = 0;
  // Counting passes whose counts merged base + delta vs passes that had
  // to rescan the full file (frontier divergence or a pass past the base
  // run's last level).
  size_t passes_merged = 0;
  size_t passes_rescanned = 0;
};

// Opens the QBT file of an append-mode run. An append interrupted between
// writing its suffix and committing the new row count leaves trailing
// uncommitted bytes; a file that does not open is rolled back to its last
// commit first (RecoverQbt), and a healthy file is untouched.
Result<std::unique_ptr<QbtFileSource>> OpenAppendedQbt(
    const std::string& qbt_path);

// Mines `qbt` incrementally against the checkpoint at
// options.checkpoint_path (required). Forces append_mode (the run always
// ends by writing a fresh complete checkpoint covering the whole file).
// Every record scan, the delta passes' and a fallback full mine's alike,
// goes through `scan`: null is the in-process scan, and the distributed
// entry (dist/dist_miner.h) passes its worker pool.
Result<MiningResult> MineIncremental(const QbtFileSource& qbt,
                                     const MinerOptions& options,
                                     RecordScan* scan,
                                     IncrementalDecision* decision);

// Opens `qbt_path` with OpenAppendedQbt and mines it in this process.
Result<MiningResult> MineIncremental(const std::string& qbt_path,
                                     const MinerOptions& options,
                                     IncrementalDecision* decision = nullptr);

}  // namespace qarm

#endif  // QARM_CORE_INCREMENTAL_MINER_H_
