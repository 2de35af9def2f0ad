#include "partition/partitioner.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"

namespace qarm {

std::vector<Interval> EquiDepthPartition(const std::vector<double>& sorted,
                                         size_t num_partitions) {
  QARM_CHECK_GT(num_partitions, 0u);
  QARM_DCHECK(std::is_sorted(sorted.begin(), sorted.end()));
  std::vector<Interval> out;
  if (sorted.empty()) return out;

  const size_t n = sorted.size();
  size_t begin = 0;
  for (size_t p = 0; p < num_partitions && begin < n; ++p) {
    // Ideal end of this partition by rank.
    size_t target =
        (p + 1 == num_partitions)
            ? n
            : static_cast<size_t>(
                  std::llround(static_cast<double>((p + 1) * n) /
                               static_cast<double>(num_partitions)));
    size_t end = std::max(target, begin + 1);
    // Never split a run of equal values across partitions: push the boundary
    // forward to the first distinct value.
    while (end < n && sorted[end] == sorted[end - 1]) ++end;
    out.push_back(Interval{sorted[begin], sorted[end - 1]});
    begin = end;
  }
  // Heavy duplication may leave a tail; extend the last interval over it.
  if (begin < n) out.back().hi = sorted[n - 1];
  return out;
}

std::vector<Interval> EquiWidthPartition(double lo, double hi,
                                         size_t num_partitions) {
  QARM_CHECK_GT(num_partitions, 0u);
  QARM_CHECK_LE(lo, hi);
  std::vector<Interval> out;
  out.reserve(num_partitions);
  double width = (hi - lo) / static_cast<double>(num_partitions);
  if (width == 0.0) {
    out.push_back(Interval{lo, hi});
    return out;
  }
  for (size_t i = 0; i < num_partitions; ++i) {
    double a = lo + width * static_cast<double>(i);
    double b = (i + 1 == num_partitions) ? hi : lo + width * (i + 1);
    out.push_back(Interval{a, b});
  }
  return out;
}

std::vector<Interval> KMeansPartition(const std::vector<double>& sorted,
                                      size_t num_partitions,
                                      size_t max_iterations) {
  QARM_CHECK_GT(num_partitions, 0u);
  QARM_DCHECK(std::is_sorted(sorted.begin(), sorted.end()));
  std::vector<Interval> out;
  if (sorted.empty()) return out;
  const size_t n = sorted.size();

  // 1-D k-means over sorted values: clusters are contiguous runs, so the
  // state is just the k-1 boundary ranks. Seed at equi-depth quantiles.
  size_t k = std::min(num_partitions, n);
  std::vector<size_t> boundary(k + 1);  // boundary[c]..boundary[c+1] is c
  for (size_t c = 0; c <= k; ++c) boundary[c] = c * n / k;

  std::vector<double> prefix(n + 1, 0.0);
  for (size_t i = 0; i < n; ++i) prefix[i + 1] = prefix[i] + sorted[i];

  for (size_t iter = 0; iter < max_iterations; ++iter) {
    // Means of the current clusters.
    std::vector<double> mean(k);
    for (size_t c = 0; c < k; ++c) {
      size_t lo = boundary[c], hi = boundary[c + 1];
      mean[c] = hi > lo
                    ? (prefix[hi] - prefix[lo]) / static_cast<double>(hi - lo)
                    : (lo < n ? sorted[lo] : sorted[n - 1]);
    }
    // Reassign: each boundary moves to the midpoint of adjacent means.
    bool changed = false;
    std::vector<size_t> next = boundary;
    for (size_t c = 1; c < k; ++c) {
      double cut = (mean[c - 1] + mean[c]) * 0.5;
      size_t pos = static_cast<size_t>(
          std::lower_bound(sorted.begin(), sorted.end(), cut) -
          sorted.begin());
      pos = std::clamp(pos, next[c - 1], next[c + 1]);
      if (pos != next[c]) {
        next[c] = pos;
        changed = true;
      }
    }
    boundary = std::move(next);
    if (!changed) break;
  }

  for (size_t c = 0; c < k; ++c) {
    size_t lo = boundary[c], hi = boundary[c + 1];
    if (hi <= lo) continue;  // empty cluster
    // Never split runs of equal values: extend to the run end.
    Interval interval{sorted[lo], sorted[hi - 1]};
    if (!out.empty() && out.back().hi == interval.lo) {
      out.back().hi = interval.hi;  // merge clusters split inside a run
      continue;
    }
    out.push_back(interval);
  }
  return out;
}

int64_t AssignToInterval(const std::vector<Interval>& intervals, double v) {
  if (intervals.empty()) return -1;
  // First interval whose hi >= v.
  size_t lo = 0, hi = intervals.size();
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (intervals[mid].hi < v) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == intervals.size()) return static_cast<int64_t>(intervals.size()) - 1;
  return static_cast<int64_t>(lo);
}

}  // namespace qarm
