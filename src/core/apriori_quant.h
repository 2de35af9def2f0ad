// The level-wise frequent-itemset driver (Section 5): L_1 from the item
// catalog, then candidate generation + one counting pass per level until no
// frequent itemsets remain.
#ifndef QARM_CORE_APRIORI_QUANT_H_
#define QARM_CORE_APRIORI_QUANT_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/candidate_gen.h"
#include "core/frequent_items.h"
#include "core/options.h"
#include "core/support_counting.h"
#include "mining/apriori.h"
#include "mining/itemset_store.h"
#include "partition/mapped_table.h"

namespace qarm {

// Per-pass observability.
struct PassStats {
  size_t k = 0;
  size_t num_candidates = 0;
  size_t num_frequent = 0;
  CandidateGenStats candgen;
  CountingStats counting;
  double seconds = 0.0;

  // The counting fields sit inline in the pass's JSON object.
  static void Fields(auto&& f, auto&... s) {
    f("k", s.k...);
    f("candidates", s.num_candidates...);
    f("frequent", s.num_frequent...);
    f("candgen", s.candgen...);
    CountingStats::Fields(f, s.counting...);
    f("seconds", s.seconds...);
  }
};

// All frequent itemsets over item ids, plus the per-pass stats.
struct FrequentItemsetResult {
  // Every frequent itemset of every size over *item ids* into the catalog,
  // one flat level per completed pass in generation order (level k is
  // pass k's frequent itemsets). Rule generation, interest and checkpoints
  // read the level arrays directly; iterating yields FrequentItemset
  // values.
  FrequentItemsetStore itemsets;
  std::vector<PassStats> passes;
  // With MinerOptions::append_mode: one vector per completed
  // pass (parallel to `passes`), holding the FULL per-candidate counts of
  // that pass in generation order (empty for passes that counted nothing —
  // pass 1 and the terminating empty pass). Incremental mining checkpoints
  // these so a later run can merge delta counts positionally. Empty when
  // collection is off.
  std::vector<std::vector<uint32_t>> candidate_counts;
};

// Called after every completed pass with the result accumulated so far
// (the last entry of `passes` is the pass that just finished). This is the
// checkpoint hook: a non-OK return stops the run and propagates —
// Cancelled for deliberate stops (SIGINT, a crash-test stop point), so
// callers can distinguish a clean interruption from a failure.
using AfterPassFn = std::function<Status(const FrequentItemsetResult&)>;

// Replaces the per-pass CountSupports call. The miner counts here through
// its record scan (core/record_scan.h): it plans the pass, scans the
// plan's counters over the blocks its scan policy picks (in process, or on
// distributed workers, to which only the plan travels), reduces them, and
// adds what the policy adds. Must return counts parallel to `candidates`;
// `stats` receives the pass's counting stats.
using CountSupportsFn = std::function<Result<std::vector<uint32_t>>(
    const CandidateStream& candidates, CountingStats* stats)>;

// Runs the level-wise algorithm, streaming every counting pass over
// `source`. `catalog` must have been built from the same records with the
// same options. Fails only when a block read fails (e.g. a QBT checksum
// mismatch) or `after_pass` asks to stop.
//
// When `resume_from` is non-null it holds the itemsets and passes of a
// prior run's completed levels (restored from a checkpoint): those passes
// are skipped, the frontier is rebuilt from the last completed level, and
// mining continues at the next one. The counts are exact and candidate
// generation is deterministic, so a resumed run's remaining passes — and
// therefore its rules — are bit-identical to an uninterrupted run's.
Result<FrequentItemsetResult> MineFrequentItemsets(
    const RecordSource& source, const ItemCatalog& catalog,
    const MinerOptions& options,
    const FrequentItemsetResult* resume_from = nullptr,
    const AfterPassFn& after_pass = nullptr,
    const CountSupportsFn& count_supports = nullptr);

// Same over an in-memory table (reads cannot fail).
FrequentItemsetResult MineFrequentItemsets(const MappedTable& table,
                                           const ItemCatalog& catalog,
                                           const MinerOptions& options);

}  // namespace qarm

#endif  // QARM_CORE_APRIORI_QUANT_H_
