// Parallel support-counting thread sweep.
//
// Measures the level-2 CountSupports pass (the dominant scan of each
// Apriori pass, Section 5 of the paper) at 1, 2, 4 and 8 threads on two
// configurations, and emits a machine-readable JSON report alongside the
// human-readable tables:
//
//   financial         the synthetic financial dataset (few super-candidates,
//                     wide quantitative rectangles);
//   wide_categorical  4 categorical attributes x 25 values and 2
//                     quantitative attributes x 20 values at minsup 0.001:
//                     thousands of super-candidates with categorical items,
//                     the regime where the scan's shared per-item row masks
//                     matter.
//
//   $ ./bench_parallel_counting [--records=N] [--seed=S] [--minsup=F]
//                               [--k=K] [--reps=R] [--out=FILE]
//
// --minsup and --k apply to the financial configuration. Every point
// reports the median of R reps with the min/max spread of total and scan
// time. Speedups are relative to the single-thread run of the same pass.
// The JSON records the CPU count so results from machines with fewer cores
// than threads (where no speedup is physically possible) are
// interpretable.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/cpu_dispatch.h"
#include "common/random.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/candidate_gen.h"
#include "core/frequent_items.h"
#include "core/support_counting.h"
#include "partition/mapper.h"
#include "table/datagen.h"

namespace {

uint64_t SpinWork(uint64_t iters) {
  volatile uint64_t acc = 0;
  for (uint64_t i = 0; i < iters; ++i) acc = acc + i * 2654435761ull;
  return acc;
}

// How many calibrated spin tasks actually run concurrently. Containers and
// CI runners often report a nominal hardware_concurrency that cgroup quotas
// cut down; timing N tasks against one task measures what the scheduler
// really grants, which is what thread-sweep speedups are limited by.
double MeasureEffectiveConcurrency(unsigned nominal) {
  const uint64_t iters = 20000000;
  SpinWork(iters);  // warm up
  qarm::Timer serial_timer;
  SpinWork(iters);
  const double serial = serial_timer.ElapsedSeconds();

  const unsigned n = std::max(2u, nominal);
  std::vector<std::thread> workers;
  qarm::Timer parallel_timer;
  for (unsigned i = 0; i < n; ++i) {
    workers.emplace_back([iters] { SpinWork(iters); });
  }
  for (std::thread& w : workers) w.join();
  const double parallel = parallel_timer.ElapsedSeconds();
  if (parallel <= 0 || serial <= 0) return 1.0;
  const double effective = serial * static_cast<double>(n) / parallel;
  return std::clamp(effective, 1.0, static_cast<double>(n));
}

// One counting pass to sweep: a mapped table, its catalog and its level-2
// candidates.
struct Config {
  std::string name;
  double minsup = 0;
  qarm::MappedTable table;
  qarm::ItemCatalog catalog;
  qarm::ItemsetSet c2{2};
};

qarm::ItemsetSet Level2Candidates(const qarm::ItemCatalog& catalog) {
  qarm::ItemsetSet l1(1);
  for (size_t i = 0; i < catalog.num_items(); ++i) {
    l1.AppendVector({static_cast<int32_t>(i)});
  }
  return qarm::GenerateCandidates(catalog, l1);
}

// 4 categorical attributes x 25 values and 2 quantitative attributes x 20
// values, uniform and independent.
qarm::MappedTable WideCategoricalTable(size_t records, uint64_t seed) {
  using namespace qarm;
  std::vector<MappedAttribute> attrs;
  for (int a = 0; a < 4; ++a) {
    MappedAttribute attr;
    attr.name = StrFormat("c%d", a);
    attr.kind = AttributeKind::kCategorical;
    attr.source_type = ValueType::kString;
    for (int v = 0; v < 25; ++v) attr.labels.push_back(StrFormat("v%d", v));
    attrs.push_back(std::move(attr));
  }
  for (int a = 0; a < 2; ++a) {
    MappedAttribute attr;
    attr.name = StrFormat("q%d", a);
    attr.kind = AttributeKind::kQuantitative;
    attr.source_type = ValueType::kInt64;
    attr.partitioned = false;
    for (int v = 0; v < 20; ++v) {
      attr.intervals.push_back(
          Interval{static_cast<double>(v), static_cast<double>(v)});
    }
    attrs.push_back(std::move(attr));
  }
  MappedTable table(std::move(attrs), records);
  Rng rng(seed);
  for (size_t r = 0; r < records; ++r) {
    for (size_t a = 0; a < 6; ++a) {
      table.set_value(r, a,
                      static_cast<int32_t>(rng.UniformInt(0, a < 4 ? 24 : 19)));
    }
  }
  return table;
}

// Super-candidates with at least one categorical item: distinct
// (categorical items, quantitative attributes) keys with a categorical part.
size_t CategoricalGroups(const qarm::MappedTable& table,
                         const qarm::ItemCatalog& catalog,
                         const qarm::ItemsetSet& candidates) {
  std::set<std::string> keys;
  for (size_t c = 0; c < candidates.size(); ++c) {
    const int32_t* ids = candidates.itemset(c);
    std::string key;
    bool has_cat = false;
    for (size_t i = 0; i < candidates.k(); ++i) {
      const qarm::RangeItem& item = catalog.item(ids[i]);
      const bool ranged =
          table.attribute(static_cast<size_t>(item.attr)).ranged();
      has_cat = has_cat || !ranged;
      // Ranged items key by attribute (negative), categorical ones by id.
      key += qarm::StrFormat("%d,", ranged ? -1 - item.attr : ids[i]);
    }
    if (has_cat) keys.insert(std::move(key));
  }
  return keys.size();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace qarm;
  const size_t records = bench::FlagU64(argc, argv, "records", 500000);
  const uint64_t seed = bench::FlagU64(argc, argv, "seed", 42);
  const double minsup = bench::FlagDouble(argc, argv, "minsup", 0.10);
  const double k = bench::FlagDouble(argc, argv, "k", 3.0);
  const size_t reps = std::max<size_t>(1, bench::FlagU64(argc, argv, "reps", 5));
  std::string out = "BENCH_parallel_counting.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) out = argv[i] + 6;
  }

  MinerOptions options;
  options.max_support = 0.40;
  options.partial_completeness = k;

  std::vector<Config> configs;
  {
    Table data = MakeFinancialDataset(records, seed);
    MapOptions map_options;
    map_options.partial_completeness = k;
    map_options.minsup = minsup;
    Result<MappedTable> mapped = MapTable(data, map_options);
    if (!mapped.ok()) {
      std::fprintf(stderr, "mapping failed: %s\n",
                   mapped.status().ToString().c_str());
      return 1;
    }
    MinerOptions config_options = options;
    config_options.minsup = minsup;
    ItemCatalog catalog = ItemCatalog::Build(*mapped, config_options);
    ItemsetSet c2 = Level2Candidates(catalog);
    configs.push_back(Config{"financial", minsup, std::move(*mapped),
                             std::move(catalog), std::move(c2)});
  }
  {
    const double wide_minsup = 0.001;
    MappedTable table = WideCategoricalTable(records, seed);
    MinerOptions config_options = options;
    config_options.minsup = wide_minsup;
    ItemCatalog catalog = ItemCatalog::Build(table, config_options);
    ItemsetSet c2 = Level2Candidates(catalog);
    configs.push_back(Config{"wide_categorical", wide_minsup, std::move(table),
                             std::move(catalog), std::move(c2)});
  }

  const unsigned hw = std::thread::hardware_concurrency();
  const double effective_concurrency = MeasureEffectiveConcurrency(hw);
  if (hw <= 1) {
    std::fprintf(stderr,
                 "WARNING: hardware_concurrency is 1 — no parallel speedup "
                 "is physically possible; multi-thread speedups are "
                 "reported as null.\n");
  }

  std::string json = "{\n";
  json += StrFormat(
      "  \"bench\": \"parallel_counting\",\n"
      "  \"records\": %zu,\n  \"seed\": %llu,\n  \"cpus\": %u,\n"
      "  \"hardware_concurrency\": %u,\n"
      "  \"effective_concurrency\": %.2f,\n  \"isa\": \"%s\",\n"
      "  \"reps\": %zu,\n  \"statistic\": \"median of reps, min/max spread\",\n"
      "  \"configs\": [",
      records, static_cast<unsigned long long>(seed), hw, hw,
      effective_concurrency, IsaName(ActiveIsa()), reps);

  for (size_t ci = 0; ci < configs.size(); ++ci) {
    const Config& config = configs[ci];
    MinerOptions config_options = options;
    config_options.minsup = config.minsup;
    const size_t cat_groups =
        CategoricalGroups(config.table, config.catalog, config.c2);
    std::printf(
        "%sParallel support counting: level-2 pass, %s\n"
        "records %zu, frequent items %zu, candidates %zu, categorical "
        "groups %zu, minsup %.2f%%, hardware threads %u (effective %.1f), "
        "isa %s, median of %zu reps\n\n",
        ci > 0 ? "\n" : "", config.name.c_str(), config.table.num_rows(),
        config.catalog.num_items(), config.c2.size(), cat_groups,
        config.minsup * 100, hw, effective_concurrency, IsaName(ActiveIsa()),
        reps);

    struct Point {
      size_t threads;
      CountingStats stats;  // of the first rep; counters never vary
      double total, total_min, total_max;
      double scan, scan_min, scan_max;
      double group, reduce, build;
    };
    std::vector<Point> points;
    std::vector<uint32_t> baseline_counts;

    std::vector<int> widths = {8, 10, 12, 12, 12, 12, 10};
    bench::PrintRow({"threads", "total (s)", "group (s)", "scan (s)",
                     "reduce (s)", "build (s)", "speedup"},
                    widths);
    bench::PrintSeparator(widths);

    const size_t sweep[] = {1, 2, 4, 8};
    for (size_t threads : sweep) {
      MinerOptions run_options = config_options;
      run_options.num_threads = threads;
      Point p;
      p.threads = threads;
      std::vector<double> totals, groups, scans, reduces, builds;
      for (size_t rep = 0; rep < reps; ++rep) {
        CountingStats stats;
        Timer timer;
        std::vector<uint32_t> counts = CountSupports(
            config.table, config.catalog, config.c2, run_options, &stats);
        totals.push_back(timer.ElapsedSeconds());
        if (threads == 1 && rep == 0) baseline_counts = counts;
        if (counts != baseline_counts) {
          std::fprintf(stderr, "FATAL: %s counts diverge at %zu threads\n",
                       config.name.c_str(), threads);
          return 1;
        }
        if (rep == 0) p.stats = stats;
        groups.push_back(stats.group_seconds);
        scans.push_back(stats.scan_seconds);
        reduces.push_back(stats.reduce_seconds);
        builds.push_back(stats.build_seconds);
      }
      p.total = Median(totals);
      p.total_min = *std::min_element(totals.begin(), totals.end());
      p.total_max = *std::max_element(totals.begin(), totals.end());
      p.scan = Median(scans);
      p.scan_min = *std::min_element(scans.begin(), scans.end());
      p.scan_max = *std::max_element(scans.begin(), scans.end());
      p.group = Median(groups);
      p.reduce = Median(reduces);
      p.build = Median(builds);
      points.push_back(p);
      // A one-core box cannot speed up a multi-thread run: report the ratio
      // only where it is physically meaningful.
      const bool speedup_meaningful = threads == 1 || hw > 1;
      bench::PrintRow(
          {StrFormat("%zu", threads), StrFormat("%.3f", p.total),
           StrFormat("%.3f", p.group), StrFormat("%.3f", p.scan),
           StrFormat("%.3f", p.reduce), StrFormat("%.3f", p.build),
           speedup_meaningful
               ? StrFormat("%.2fx", points.front().total / p.total)
               : std::string("n/a")},
          widths);
    }

    if (ci > 0) json += ',';
    json += StrFormat(
        "\n    {\"name\": \"%s\", \"records\": %zu, \"minsup\": %.4f,"
        " \"frequent_items\": %zu, \"candidates\": %zu,"
        " \"super_candidates\": %zu, \"categorical_groups\": %zu,"
        " \"sweep\": [",
        config.name.c_str(), config.table.num_rows(), config.minsup,
        config.catalog.num_items(), config.c2.size(),
        points.front().stats.num_super_candidates, cat_groups);
    for (size_t i = 0; i < points.size(); ++i) {
      const Point& p = points[i];
      if (i > 0) json += ',';
      const bool speedup_meaningful = p.threads == 1 || hw > 1;
      const double scan_rows_per_sec =
          p.scan > 0 ? static_cast<double>(config.table.num_rows()) / p.scan
                     : 0.0;
      json += StrFormat(
          "\n      {\"threads\": %zu, \"threads_used\": %zu,"
          " \"total_seconds\": %.6f, \"total_seconds_min\": %.6f,"
          " \"total_seconds_max\": %.6f, \"group_seconds\": %.6f,"
          " \"scan_seconds\": %.6f,"
          " \"scan_seconds_min\": %.6f, \"scan_seconds_max\": %.6f,"
          " \"reduce_seconds\": %.6f, \"build_seconds\": %.6f,"
          " \"speedup\": %s, \"scan_rows_per_sec\": %.0f,"
          " \"array_counters\": %zu,"
          " \"tree_counters\": %zu, \"direct_counters\": %zu,"
          " \"atomic_shared_counters\": %zu, \"counter_bytes\": %llu,"
          " \"replicated_bytes\": %llu}",
          p.threads, p.stats.threads_used, p.total, p.total_min, p.total_max,
          p.group, p.scan, p.scan_min, p.scan_max, p.reduce, p.build,
          speedup_meaningful
              ? StrFormat("%.4f", points.front().total / p.total).c_str()
              : "null",
          scan_rows_per_sec, p.stats.num_array_counters,
          p.stats.num_tree_counters, p.stats.num_direct,
          p.stats.num_atomic_shared,
          static_cast<unsigned long long>(p.stats.counter_bytes),
          static_cast<unsigned long long>(p.stats.replicated_bytes));
    }
    json += "\n    ]}";
  }
  json += "\n  ]\n}\n";

  FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("\nwrote %s\n", out.c_str());
  return 0;
}
