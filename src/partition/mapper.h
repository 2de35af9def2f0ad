// Steps 1-2 of the problem decomposition: decide the number of partitions
// per quantitative attribute (Section 3), then map categorical values,
// raw quantitative values, or base intervals to consecutive integers
// (Section 2.1).
#ifndef QARM_PARTITION_MAPPER_H_
#define QARM_PARTITION_MAPPER_H_

#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "partition/mapped_table.h"
#include "partition/taxonomy.h"
#include "table/table.h"

namespace qarm {

// Base-interval construction strategy.
enum class PartitionMethod {
  kEquiDepth,  // the paper's choice (optimal per Lemma 4)
  kEquiWidth,  // ablation baseline
  kKMeans,     // clustering-based (the paper's Section 7 future work)
};

// Options controlling partitioning and mapping.
struct MapOptions {
  // Desired partial completeness level K (> 1). Together with `minsup` it
  // determines the number of base intervals via Equation 2.
  double partial_completeness = 2.0;

  // Minimum support as a fraction in (0, 1]; must match the value used
  // for mining for the partial-completeness guarantee to hold.
  double minsup = 0.20;

  PartitionMethod method = PartitionMethod::kEquiDepth;

  // When > 0, overrides Equation 2 and forces this many base intervals for
  // every partitioned attribute.
  size_t num_intervals_override = 0;

  // When > 0, replaces the schema's quantitative-attribute count `n` in
  // Equation 2 (the paper's n' refinement: if no rule will have more than
  // n' quantitative attributes, fewer intervals suffice).
  size_t max_quantitative_per_rule = 0;

  // Taxonomies over categorical attributes (Section 1.1 / [SA95]), keyed
  // by attribute name. A taxonomized attribute's values are mapped in DFS
  // leaf order so interior nodes become contiguous ranges; every value in
  // the data must be a leaf of the taxonomy.
  std::vector<std::pair<std::string, Taxonomy>> taxonomies;
};

// Maps `table` to the integer domain. A quantitative attribute is
// partitioned only if its number of distinct values exceeds the required
// interval count (Section 3: "whether to partition ... and how many
// partitions"); otherwise each distinct value maps to its own consecutive
// integer, order preserved.
Result<MappedTable> MapTable(const Table& table, const MapOptions& options);

// Maps `table` under *existing* attribute metadata instead of deriving a
// fresh partitioning — the append path: rows added to a QBT file must mean
// the same thing as the rows already in it, so labels and intervals are
// frozen. Categorical values are looked up in `attributes`' labels by
// exact text (a value absent from the labels is an error: admitting it
// would change the domain, which is exactly the case that forces a full
// re-convert; so is a label that repeats, which names no one category).
// Partitioned quantitative values are assigned to the existing intervals
// (out-of-range values clip to the edge intervals, matching
// AssignToInterval); unpartitioned quantitative values must match one of
// the existing single-value intervals exactly. Schema names/kinds must
// match `attributes` positionally.
Result<MappedTable> MapTableWithAttributes(
    const Table& table, const std::vector<MappedAttribute>& attributes);

}  // namespace qarm

#endif  // QARM_PARTITION_MAPPER_H_
