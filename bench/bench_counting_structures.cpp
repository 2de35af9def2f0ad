// Counting-structure microbenchmarks (Section 5.2 ablation): the
// n-dimensional array (with and without the prefix-sum collection
// optimization) vs the R*-tree, across dimensionalities and rectangle
// counts. Reports per-pass cost: processing all points plus collecting all
// rectangle counts. The structures are called directly; which one a mining
// pass uses is CountSupports' decision alone.
//
// Before timing anything, main() counts one workload with all three
// structures and exits 1 if their counts differ.
#include <algorithm>
#include <cstdio>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/random.h"
#include "index/ndim_array.h"
#include "index/rstar_tree.h"

namespace qarm {
namespace {

struct Workload {
  std::vector<int32_t> dims;
  std::vector<IntRect> rects;
  std::vector<std::vector<int32_t>> points;
};

Workload MakeWorkload(size_t num_dims, int32_t domain, size_t num_rects,
                      size_t num_points) {
  Rng rng(99);
  Workload w;
  w.dims.assign(num_dims, domain);
  for (size_t i = 0; i < num_rects; ++i) {
    IntRect rect;
    for (size_t d = 0; d < num_dims; ++d) {
      int32_t a = static_cast<int32_t>(rng.UniformInt(0, domain - 1));
      int32_t b = static_cast<int32_t>(rng.UniformInt(0, domain - 1));
      rect.lo.push_back(std::min(a, b));
      rect.hi.push_back(std::max(a, b));
    }
    w.rects.push_back(std::move(rect));
  }
  for (size_t i = 0; i < num_points; ++i) {
    std::vector<int32_t> p;
    for (size_t d = 0; d < num_dims; ++d) {
      p.push_back(static_cast<int32_t>(rng.UniformInt(0, domain - 1)));
    }
    w.points.push_back(std::move(p));
  }
  return w;
}

// One pass over the dense grid: bump a cell per point, then sum each
// rectangle's cells — by inclusion-exclusion over prefix sums, or by the
// paper's cell sweep.
std::vector<uint64_t> CountWithArray(const Workload& w, bool prefix_sums) {
  NDimArray array(w.dims);
  for (const auto& p : w.points) array.Increment(p.data());
  if (prefix_sums) array.BuildPrefixSums();
  std::vector<uint64_t> counts;
  counts.reserve(w.rects.size());
  for (const IntRect& rect : w.rects) counts.push_back(array.CountRect(rect));
  return counts;
}

// One pass over an R*-tree of the rectangles: every point bumps the count
// of each rectangle containing it.
std::vector<uint64_t> CountWithTree(const Workload& w) {
  const size_t dims = w.dims.size();
  RStarTree tree(dims);
  for (size_t i = 0; i < w.rects.size(); ++i) {
    RStarRect rect;
    for (size_t d = 0; d < dims; ++d) {
      rect.lo[d] = static_cast<double>(w.rects[i].lo[d]);
      rect.hi[d] = static_cast<double>(w.rects[i].hi[d]);
    }
    tree.Insert(rect, static_cast<int32_t>(i));
  }
  std::vector<uint64_t> counts(w.rects.size(), 0);
  double coords[kRStarMaxDims];
  for (const auto& p : w.points) {
    for (size_t d = 0; d < dims; ++d) coords[d] = static_cast<double>(p[d]);
    tree.ForEachContaining(
        coords, [&counts](int32_t id) { ++counts[static_cast<size_t>(id)]; });
  }
  return counts;
}

template <typename CountPass>
void RunPass(benchmark::State& state, const Workload& w,
             const CountPass& count_pass) {
  for (auto _ : state) {
    std::vector<uint64_t> counts = count_pass(w);
    benchmark::DoNotOptimize(counts);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(w.points.size()));
}

Workload ArgsWorkload(const benchmark::State& state) {
  return MakeWorkload(static_cast<size_t>(state.range(0)), 32,
                      static_cast<size_t>(state.range(1)), 20000);
}

void BM_ArrayPrefix(benchmark::State& state) {
  RunPass(state, ArgsWorkload(state),
          [](const Workload& w) { return CountWithArray(w, true); });
}
BENCHMARK(BM_ArrayPrefix)
    ->Args({1, 1000})
    ->Args({2, 1000})
    ->Args({2, 10000})
    ->Args({3, 1000});

void BM_ArraySweep(benchmark::State& state) {
  RunPass(state, ArgsWorkload(state),
          [](const Workload& w) { return CountWithArray(w, false); });
}
BENCHMARK(BM_ArraySweep)
    ->Args({1, 1000})
    ->Args({2, 1000})
    ->Args({2, 10000})
    ->Args({3, 1000});

void BM_RStarTree(benchmark::State& state) {
  RunPass(state, ArgsWorkload(state), CountWithTree);
}
BENCHMARK(BM_RStarTree)
    ->Args({1, 1000})
    ->Args({2, 1000})
    ->Args({2, 10000})
    ->Args({3, 1000});

// The heuristic's decision point: high dimensionality with a big domain,
// where the dense grid would be enormous.
void BM_TreeHighDim(benchmark::State& state) {
  RunPass(state, MakeWorkload(5, 50, 2000, 20000), CountWithTree);
}
BENCHMARK(BM_TreeHighDim);

// The three structures must count the same workload identically, or the
// timings compare different answers.
bool StructuresAgree() {
  const Workload w = MakeWorkload(3, 32, 1000, 20000);
  const std::vector<uint64_t> prefix = CountWithArray(w, true);
  const std::vector<uint64_t> sweep = CountWithArray(w, false);
  const std::vector<uint64_t> tree = CountWithTree(w);
  for (size_t i = 0; i < w.rects.size(); ++i) {
    if (prefix[i] != sweep[i] || prefix[i] != tree[i]) {
      std::fprintf(stderr,
                   "rectangle %zu: prefix sums %llu, sweep %llu, R*-tree "
                   "%llu\n",
                   i, static_cast<unsigned long long>(prefix[i]),
                   static_cast<unsigned long long>(sweep[i]),
                   static_cast<unsigned long long>(tree[i]));
      return false;
    }
  }
  return true;
}

}  // namespace
}  // namespace qarm

int main(int argc, char** argv) {
  if (!qarm::StructuresAgree()) return 1;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
