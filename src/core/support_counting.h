// Support counting for candidate quantitative itemsets (Section 5.2).
//
// Candidates are partitioned into super-candidates: groups sharing the same
// attributes and the same categorical values. Where the paper locates a
// record's super-candidates through the [AS94] hash tree, the scan here
// works a block of records at a time: per block it builds one row bitmask
// per categorical item and per dimension, and a super-candidate's rows are
// the AND of its items' and dimensions' masks. The quantitative values of
// those rows then form points that are counted into the super-candidate's
// n-dimensional array (or, when the array would be too large, queried
// against an R*-tree holding the candidates' rectangles).
#ifndef QARM_CORE_SUPPORT_COUNTING_H_
#define QARM_CORE_SUPPORT_COUNTING_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/cpu_dispatch.h"
#include "common/status.h"
#include "core/candidate_gen.h"
#include "core/frequent_items.h"
#include "core/options.h"
#include "partition/mapped_table.h"
#include "storage/record_source.h"

namespace qarm {

// Observability counters for one counting pass.
struct CountingStats {
  size_t num_super_candidates = 0;
  size_t num_array_counters = 0;  // super-candidates counted via NDimArray
  size_t num_tree_counters = 0;   // via R*-tree
  size_t num_direct = 0;          // purely categorical super-candidates
  // Graceful degradation: super-candidates whose R*-tree no longer fit the
  // counter memory budget and fell back to a linear scan of their member
  // rectangles (slower, near-zero memory). The pass logs one warning.
  size_t num_degraded = 0;

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
  // Bytes of the primary counting structures (grids + tree estimates).
  uint64_t counter_bytes = 0;
  // Extra bytes of per-thread grid replicas allocated for the scan:
  // (threads_used - 1) copies of every grid.
  uint64_t replicated_bytes = 0;

  // Per-phase wall times of the pass.
  double group_seconds = 0.0;   // grouping candidates into super-candidates
  double build_seconds = 0.0;   // counting structures + shared-mask plan
  double scan_seconds = 0.0;    // the (possibly sharded) pass over the rows
  double reduce_seconds = 0.0;  // merging thread counters + collecting counts

  // In the count reply's wire order (storage/stats_fields.h).
  static void Fields(auto&& f, auto&... s) {
    f("super_candidates", s.num_super_candidates...);
    f("array_counters", s.num_array_counters...);
    f("tree_counters", s.num_tree_counters...);
    f("direct_counters", s.num_direct...);
    f("degraded_counters", s.num_degraded...);
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

// Counts the support of every candidate in one block-streamed pass over
// `source`. Returns counts parallel to `candidates` (uint32: a count is
// bounded by the record count). Fails only when a block read fails (e.g. a
// QBT checksum mismatch). Workers shard over contiguous *block* ranges, so
// a larger-than-RAM source streams through with memory bounded by the
// blocks in flight plus the counting structures. The candidates arrive as
// a CandidateStream: grouping consumes one sequential chunked sweep, and
// only member decodes touch individual candidates afterwards, so pass 2's
// implicit cross product never materializes.
Result<std::vector<uint32_t>> CountSupports(const RecordSource& source,
                                            const ItemCatalog& catalog,
                                            const CandidateStream& candidates,
                                            const MinerOptions& options,
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
