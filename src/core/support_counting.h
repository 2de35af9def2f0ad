// Support counting for candidate quantitative itemsets (Section 5.2).
//
// Candidates are partitioned into super-candidates: groups sharing the same
// attributes and the same categorical values. Where the paper locates a
// record's super-candidates through the [AS94] hash tree, the scan here
// works a block of records at a time: per block it builds one row bitmask
// per categorical item and per dimension, and a super-candidate's rows are
// the AND of its items' and dimensions' masks. The quantitative values of
// those rows then form points that are counted into the super-candidate's
// n-dimensional array, or, when the array would not fit the counter budget,
// each member's count is the popcount of those rows ANDed with the shared
// masks of its ranged items (a member scan).
#ifndef QARM_CORE_SUPPORT_COUNTING_H_
#define QARM_CORE_SUPPORT_COUNTING_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/cpu_dispatch.h"
#include "common/status.h"
#include "core/candidate_gen.h"
#include "core/frequent_items.h"
#include "core/options.h"
#include "index/ndim_array.h"
#include "partition/mapped_table.h"
#include "storage/record_source.h"

namespace qarm {

// Observability counters for one counting pass.
struct CountingStats {
  size_t num_super_candidates = 0;
  size_t num_array_counters = 0;  // super-candidates counted via NDimArray
  size_t num_direct = 0;          // purely categorical super-candidates
  // Super-candidates whose grid did not fit the counter memory budget,
  // counted by member scan. The pass logs one warning.
  size_t num_member_counters = 0;

  // Threads that actually scanned (<= the resolved option: capped by the
  // number of blocks of the scanned source, and by how many copies of the
  // pass's grids fit counter_memory_budget_bytes).
  size_t threads_used = 1;

  // The kernel table the pass's block scan dispatched to (detection clamped
  // by QARM_FORCE_ISA). Every super-candidate runs the same block kernels
  // under every ISA; results are bit-identical across ISAs.
  SimdIsa isa = SimdIsa::kScalar;

  // I/O performed by this pass's scan (zero for in-memory sources).
  ScanIoStats io;
  // Bytes of the grids plus each member group's counts and item ids.
  uint64_t counter_bytes = 0;
  // Extra bytes of per-thread grid replicas allocated for the scan:
  // (threads_used - 1) copies of every grid.
  uint64_t replicated_bytes = 0;

  // Per-phase wall times of the pass.
  double group_seconds = 0.0;   // grouping candidates into super-candidates
  double build_seconds = 0.0;   // counter choice, counters + shared masks
  double scan_seconds = 0.0;    // the pass over the rows + replica merge
  double reduce_seconds = 0.0;  // prefix sums + per-candidate counts

  // In JSON order (storage/stats_fields.h).
  static void Fields(auto&& f, auto&... s) {
    f("super_candidates", s.num_super_candidates...);
    f("array_counters", s.num_array_counters...);
    f("direct_counters", s.num_direct...);
    f("member_counters", s.num_member_counters...);
    f("threads_used", s.threads_used...);
    f("isa", s.isa...);
    f("io", s.io...);
    f("counter_bytes", s.counter_bytes...);
    f("replicated_bytes", s.replicated_bytes...);
    f("group_seconds", s.group_seconds...);
    f("build_seconds", s.build_seconds...);
    f("scan_seconds", s.scan_seconds...);
    f("reduce_seconds", s.reduce_seconds...);
  }
};

// Counting runs in three stages, so that distributed mining can split them
// across processes:
//
//   1. Plan (PlanCounting): group the candidates into super-candidates and
//      choose each one's counter. Reads candidates, never a record.
//   2. Scan (ScanCounters): build the counters a plan names and sweep a
//      record source into them. Reads records, never a candidate. An array
//      count is a sum over records, so the counters of disjoint record
//      sets add up to the counters of their union.
//   3. Reduce (ReduceCounts): turn the counters into one count per
//      candidate: prefix sums and rectangle lookups for the grids, a copy
//      for member and direct counts.
//
// CountSupports runs all three, and the miner runs them the same way with
// the scan stage through its record scan (core/record_scan.h): in this
// process, or on distributed workers, which receive only the plan's
// CounterGroups and send back their counters.

// How a plan counts one super-candidate.
enum class CounterKind : uint8_t {
  kDirect = 0,   // no dimensions: one count of the rows matching its items
  kArray = 1,    // an NDimArray over its dimensions
  kMembers = 2,  // each member's item masks ANDed per block: a count per member
};

// One super-candidate of a plan: all a scan needs to count it.
struct CounterGroup {
  CounterKind kind = CounterKind::kDirect;
  std::vector<int32_t> quant_attrs;   // the dimensions, as attribute indices
  std::vector<int32_t> cat_item_ids;  // sorted categorical item ids
  // Candidates in the group. Not needed by a scan of a kArray group, but
  // a worker checks the counter choice against it (CheckCountPlan).
  uint64_t num_members = 0;
  // kMembers: member m's ranged item ids, one per dimension in dimension
  // order, at [m * dims, (m + 1) * dims).
  std::vector<int32_t> member_items;
};

struct CountPlan {
  size_t k = 0;  // the candidates' size
  std::vector<CounterGroup> groups;
  // Per group, its members as runs [first, end) of candidate indices, in
  // candidate order. Only the planning process holds them: a scan needs
  // none, and the reduce maps counters back to candidates through them.
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> member_runs;
};

// The counters of one group, of the kind its plan names.
struct GroupCounter {
  std::unique_ptr<NDimArray> grid;  // kArray
  std::vector<uint32_t> members;    // kMembers: one per member
  uint64_t direct = 0;              // kDirect
};
// Parallel to CountPlan::groups.
using PassCounters = std::vector<GroupCounter>;

// Stage 1. Fills the plan's fields of `stats`: super-candidates, counter
// kinds, counter_bytes, group_seconds and the choice's build_seconds. Logs
// one warning when groups are member scans.
CountPlan PlanCounting(const RecordSource& source, const ItemCatalog& catalog,
                       const CandidateStream& candidates,
                       const MinerOptions& options, CountingStats* stats);

// Checks a plan that came from a peer before anything is allocated for it:
// every attribute is a ranged attribute of `source`, every item a
// categorical item of `catalog`, every counted group has members, every
// member item an item of its dimension's attribute, and every counter kind
// the one PlanCounting's budget rule gives under
// options.counter_memory_budget_bytes — so no grid is larger than the
// planner itself would build. InvalidArgument names the first offending
// group.
Status CheckCountPlan(const CountPlan& plan, const RecordSource& source,
                      const ItemCatalog& catalog, const MinerOptions& options);

// Zeroed counters of the plan's shape (grid dimensions from `source`).
PassCounters MakeCounters(const CountPlan& plan, const RecordSource& source);

// Stage 2. Sweeps every block of `source`, sharded across threads, into the
// plan's counters, and merges the thread replicas. Fills threads_used, isa,
// replicated_bytes, io and scan_seconds of `stats`, and adds the counter
// build to build_seconds. Fails only when a block read fails.
Result<PassCounters> ScanCounters(const RecordSource& source,
                                  const ItemCatalog& catalog,
                                  const CountPlan& plan,
                                  const MinerOptions& options,
                                  CountingStats* stats);

// Stage 3. The count of every candidate of `candidates` (the stream the
// plan was made from), parallel over groups on `num_threads` threads.
// Consumes the grids of `counters`. Fills reduce_seconds.
std::vector<uint32_t> ReduceCounts(const CountPlan& plan,
                                   const RecordSource& source,
                                   const ItemCatalog& catalog,
                                   const CandidateStream& candidates,
                                   size_t num_threads, PassCounters* counters,
                                   CountingStats* stats);

// Counts the support of every candidate in one block-streamed pass over
// `source`: plan, scan and reduce in this process. Returns counts parallel
// to `candidates` (uint32: a count is bounded by the record count). Fails
// only when a block read fails (e.g. a QBT checksum mismatch). Threads
// shard over contiguous *block* ranges, so a larger-than-RAM source streams
// through with memory bounded by the blocks in flight plus the counters.
// The candidates arrive as a CandidateStream: planning consumes one
// sequential chunked sweep, and only member decodes touch individual
// candidates afterwards, so pass 2's implicit cross product never
// materializes.
Result<std::vector<uint32_t>> CountSupports(const RecordSource& source,
                                            const ItemCatalog& catalog,
                                            const CandidateStream& candidates,
                                            const MinerOptions& options,
                                            CountingStats* stats);

// Stage 2 as a callback: the plan's counters over the records the caller
// chooses.
using ScanCountersFn = std::function<Result<PassCounters>(
    const CountPlan& plan, CountingStats* stats)>;

// CountSupports with the scan stage through `scan`; `source` supplies the
// schema for the plan and the reduce. Stats and result as CountSupports.
Result<std::vector<uint32_t>> CountSupports(const RecordSource& source,
                                            const ItemCatalog& catalog,
                                            const CandidateStream& candidates,
                                            const MinerOptions& options,
                                            const ScanCountersFn& scan,
                                            CountingStats* stats);

// Convenience overload for materialized candidate sets (tests, k >= 3).
Result<std::vector<uint32_t>> CountSupports(const RecordSource& source,
                                            const ItemCatalog& catalog,
                                            const ItemsetSet& candidates,
                                            const MinerOptions& options,
                                            CountingStats* stats);

// Same over an in-memory table (reads cannot fail).
std::vector<uint32_t> CountSupports(const MappedTable& table,
                                    const ItemCatalog& catalog,
                                    const ItemsetSet& candidates,
                                    const MinerOptions& options,
                                    CountingStats* stats);

}  // namespace qarm

#endif  // QARM_CORE_SUPPORT_COUNTING_H_
