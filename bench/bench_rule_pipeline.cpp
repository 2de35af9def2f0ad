// Post-counting pipeline thread sweep.
//
// Measures the three phases that run after support counting — candidate
// generation (all levels), rule generation + decode, and interest
// evaluation — on the synthetic financial workload at 1, 2, 4 and 8
// threads, and emits a machine-readable JSON report alongside the
// human-readable table.
//
//   $ ./bench_rule_pipeline [--records=N] [--seed=S] [--minsup=F]
//                           [--minconf=F] [--interest=R] [--k=K]
//                           [--max-itemset-size=M] [--reps=R] [--out=FILE]
//
// Every run's output is checked against the single-thread baseline; any
// divergence is a hard failure (exit 1). Speedups are relative to the
// single-thread run. The JSON records hardware_concurrency so results from
// machines with fewer cores than threads (where no speedup is physically
// possible) are interpretable.
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/apriori_quant.h"
#include "core/candidate_gen.h"
#include "core/frequent_items.h"
#include "core/interest.h"
#include "core/report.h"
#include "core/rules.h"
#include "partition/mapper.h"
#include "table/datagen.h"

int main(int argc, char** argv) {
  using namespace qarm;
  const size_t records = bench::FlagU64(argc, argv, "records", 50000);
  const uint64_t seed = bench::FlagU64(argc, argv, "seed", 42);
  const double minsup = bench::FlagDouble(argc, argv, "minsup", 0.10);
  const double minconf = bench::FlagDouble(argc, argv, "minconf", 0.25);
  const double interest = bench::FlagDouble(argc, argv, "interest", 1.1);
  const double k = bench::FlagDouble(argc, argv, "k", 3.0);
  // Itemset-size cap: without it the level-wise mining (not the pipeline
  // under test) dominates setup time and memory — the financial workload's
  // combined quantitative ranges make L2 huge, so an uncapped C3 join
  // explodes combinatorially.
  const size_t max_itemset_size =
      bench::FlagU64(argc, argv, "max-itemset-size", 2);
  const size_t reps = bench::FlagU64(argc, argv, "reps", 3);
  std::string out = "BENCH_rule_pipeline.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) out = argv[i] + 6;
  }

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

  // Catalog and frequent itemsets are computed once, serially: this bench
  // isolates the post-counting pipeline.
  MinerOptions options;
  options.minsup = minsup;
  options.minconf = minconf;
  options.max_support = 0.40;
  options.partial_completeness = k;
  options.max_itemset_size = max_itemset_size;
  ItemCatalog catalog = ItemCatalog::Build(*mapped, options);
  FrequentItemsetResult frequent =
      MineFrequentItemsets(*mapped, catalog, options);

  // L_{k-1} per level, for re-running candidate generation in isolation.
  // Like the miner, stop at the itemset-size cap: generating candidates
  // one level past it would measure work the miner never does.
  std::map<size_t, ItemsetSet> levels;
  for (size_t k = 1; k <= frequent.itemsets.num_levels(); ++k) {
    if (max_itemset_size != 0 && k >= max_itemset_size) continue;
    if (frequent.itemsets.level_size(k) == 0) continue;
    levels.emplace(k, ItemsetSet(k, frequent.itemsets.level_ids(k)));
  }

  // Interest evaluator built once; its wildcard index is shared read-only
  // by every sweep point.
  InterestEvaluator evaluator(&catalog, &frequent.itemsets, interest,
                              options.interest_mode);
  std::vector<QuantRule> base_rules = GenerateQuantRules(
      frequent.itemsets, catalog, mapped->num_rows(), minconf);

  const unsigned hw = std::thread::hardware_concurrency();
  std::printf(
      "Post-counting pipeline: candgen + rulegen + interest, financial "
      "dataset\nrecords %zu, frequent items %zu, frequent itemsets %zu, "
      "rules %zu, minsup %.0f%%, hardware threads %u, best of %zu reps\n\n",
      mapped->num_rows(), catalog.num_items(), frequent.itemsets.size(),
      base_rules.size(), minsup * 100, hw, reps);

  struct Point {
    size_t threads = 1;
    double candgen_seconds = 0.0;
    double rulegen_seconds = 0.0;
    double interest_seconds = 0.0;
    double total_seconds = 0.0;
    size_t candgen_threads_used = 1;
    size_t rulegen_threads_used = 1;
    size_t interest_threads_used = 1;
  };
  std::vector<Point> points;

  // Single-thread baselines for the divergence check.
  std::vector<std::vector<int32_t>> baseline_candidates;
  std::string baseline_rules_json;
  std::vector<bool> baseline_flags;

  std::vector<int> widths = {8, 12, 12, 12, 12, 10};
  bench::PrintRow({"threads", "candgen (s)", "rulegen (s)", "interest (s)",
                   "total (s)", "speedup"},
                  widths);
  bench::PrintSeparator(widths);

  const size_t sweep[] = {1, 2, 4, 8};
  for (size_t threads : sweep) {
    Point best;
    best.threads = threads;
    for (size_t rep = 0; rep < reps; ++rep) {
      Point point;
      point.threads = threads;

      // Phase 1: candidate generation, every level.
      std::vector<std::vector<int32_t>> all_candidates;
      Timer timer;
      for (const auto& [size, level] : levels) {
        CandidateGenStats stats;
        ItemsetSet candidates =
            GenerateCandidates(catalog, level, threads, &stats);
        point.candgen_threads_used =
            std::max(point.candgen_threads_used, stats.threads_used);
        for (size_t c = 0; c < candidates.size(); ++c) {
          all_candidates.push_back(candidates.itemset_vector(c));
        }
      }
      point.candgen_seconds = timer.ElapsedSeconds();

      // Phase 2: rule generation + decode.
      timer.Reset();
      std::vector<QuantRule> rules =
          GenerateQuantRules(frequent.itemsets, catalog, mapped->num_rows(),
                             minconf, threads, &point.rulegen_threads_used);
      point.rulegen_seconds = timer.ElapsedSeconds();

      // Phase 3: interest evaluation on a fresh copy of the rules.
      std::vector<QuantRule> evaluated = base_rules;
      timer.Reset();
      evaluator.EvaluateRules(&evaluated, threads,
                              &point.interest_threads_used);
      point.interest_seconds = timer.ElapsedSeconds();
      point.total_seconds = point.candgen_seconds + point.rulegen_seconds +
                            point.interest_seconds;

      // Divergence check against the 1-thread baseline of rep 0.
      std::string rules_json;
      for (const QuantRule& rule : rules) {
        rules_json += RuleToJson(rule, *mapped);
        rules_json += '\n';
      }
      std::vector<bool> flags;
      flags.reserve(evaluated.size());
      for (const QuantRule& rule : evaluated) {
        flags.push_back(rule.interesting);
      }
      if (threads == 1 && rep == 0) {
        baseline_candidates = std::move(all_candidates);
        baseline_rules_json = std::move(rules_json);
        baseline_flags = std::move(flags);
      } else if (all_candidates != baseline_candidates ||
                 rules_json != baseline_rules_json ||
                 flags != baseline_flags) {
        std::fprintf(stderr, "FATAL: output diverges at %zu threads\n",
                     threads);
        return 1;
      }

      if (rep == 0 || point.total_seconds < best.total_seconds) {
        const size_t t = best.threads;
        best = point;
        best.threads = t;
      }
    }
    points.push_back(best);
    double speedup = points.front().total_seconds / best.total_seconds;
    bench::PrintRow({StrFormat("%zu", threads),
                     StrFormat("%.3f", best.candgen_seconds),
                     StrFormat("%.3f", best.rulegen_seconds),
                     StrFormat("%.3f", best.interest_seconds),
                     StrFormat("%.3f", best.total_seconds),
                     StrFormat("%.2fx", speedup)},
                    widths);
  }

  std::string json = "{\n";
  json += StrFormat(
      "  \"bench\": \"rule_pipeline\",\n"
      "  \"records\": %zu,\n  \"seed\": %llu,\n  \"minsup\": %.4f,\n"
      "  \"minconf\": %.4f,\n  \"interest_level\": %.4f,\n"
      "  \"frequent_items\": %zu,\n  \"frequent_itemsets\": %zu,\n"
      "  \"rules\": %zu,\n  \"hardware_concurrency\": %u,\n"
      "  \"reps\": %zu,\n  \"sweep\": [",
      mapped->num_rows(), static_cast<unsigned long long>(seed), minsup,
      minconf, interest, catalog.num_items(), frequent.itemsets.size(),
      base_rules.size(), hw, reps);
  for (size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    if (i > 0) json += ',';
    json += StrFormat(
        "\n    {\"threads\": %zu, \"candgen_seconds\": %.6f,"
        " \"rulegen_seconds\": %.6f, \"interest_seconds\": %.6f,"
        " \"total_seconds\": %.6f, \"speedup\": %.4f,"
        " \"candgen_threads_used\": %zu, \"rulegen_threads_used\": %zu,"
        " \"interest_threads_used\": %zu}",
        p.threads, p.candgen_seconds, p.rulegen_seconds, p.interest_seconds,
        p.total_seconds, points.front().total_seconds / p.total_seconds,
        p.candgen_threads_used, p.rulegen_threads_used,
        p.interest_threads_used);
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
