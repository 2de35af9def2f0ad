// Base-interval construction for quantitative attributes (Section 3).
//
// Equi-depth partitioning is the paper's choice: Lemma 4 shows it minimizes
// the partial completeness level for a given number of intervals. Equi-width
// is provided as the ablation baseline (Section 7 notes equi-depth's
// weakness on skew; equi-width is strictly worse, and the bench
// bench_partitioning quantifies both).
#ifndef QARM_PARTITION_PARTITIONER_H_
#define QARM_PARTITION_PARTITIONER_H_

#include <cstdint>
#include <vector>

#include "partition/interval.h"

namespace qarm {

// Partitions `sorted` (ascending, one entry per record) into at most
// `num_partitions` intervals of roughly equal record count. Equal raw values
// always land in the same interval, so the result may have fewer than
// `num_partitions` intervals on heavy duplication. Intervals are returned
// sorted, non-overlapping, and cover every input value.
std::vector<Interval> EquiDepthPartition(const std::vector<double>& sorted,
                                         size_t num_partitions);

// Splits [lo, hi] into `num_partitions` equal-width intervals. The returned
// intervals abut exactly: interval i is [lo + i*w, lo + (i+1)*w], closed on
// the right only for the last interval (assignment uses lower_bound, see
// AssignToInterval).
std::vector<Interval> EquiWidthPartition(double lo, double hi,
                                         size_t num_partitions);

// Index of the interval containing `v` among sorted non-overlapping
// `intervals`; values between two intervals (possible for equi-width on
// sparse data) are assigned to the nearest following interval, values beyond
// the last interval to the last. Returns -1 only for an empty interval list.
int64_t AssignToInterval(const std::vector<Interval>& intervals, double v);

// Clustering-based partitioning (the paper's Section 7 future work, via
// [JD88]): 1-D k-means over the values with deterministic quantile seeding,
// returning one interval per non-empty cluster. Unlike equi-depth it keeps
// tight value clusters together even when that unbalances the depths.
// `sorted` is ascending, one entry per record. Deterministic.
std::vector<Interval> KMeansPartition(const std::vector<double>& sorted,
                                      size_t num_partitions,
                                      size_t max_iterations = 50);

}  // namespace qarm

#endif  // QARM_PARTITION_PARTITIONER_H_
