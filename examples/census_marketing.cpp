// Domain example: mining a financial-services customer table (the stand-in
// for the paper's Section 6 dataset) for marketing insights.
//
//   $ ./census_marketing [num_records] [seed]
//
// Shows the difference the interest measure makes: all rules vs the
// interesting ones, plus run statistics (passes, counting engines used,
// achieved partial completeness).
#include <cstdio>
#include <cstdlib>

#include "core/miner.h"
#include "core/rules.h"
#include "table/datagen.h"

int main(int argc, char** argv) {
  using namespace qarm;

  size_t num_records = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 20000;
  uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 42;

  std::printf("Generating %zu customer records (seed %llu)...\n", num_records,
              static_cast<unsigned long long>(seed));
  Table data = MakeFinancialDataset(num_records, seed);
  std::printf("%s\n", data.Head(5).ToString().c_str());

  MinerOptions options;
  options.minsup = 0.20;
  options.minconf = 0.50;
  options.max_support = 0.40;
  options.partial_completeness = 2.5;
  options.interest_level = 1.5;

  QuantitativeRuleMiner miner(options);
  Result<MiningResult> result = miner.Mine(data);
  if (!result.ok()) {
    std::fprintf(stderr, "mining failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  const MiningStats& stats = result->stats;
  std::printf("Run summary:\n");
  std::printf("  frequent items:               %zu (+%zu pruned by Lemma 5)\n",
              stats.num_frequent_items, stats.items_pruned_by_interest);
  std::printf("  achieved partial completeness: %.2f (requested %.2f)\n",
              stats.achieved_partial_completeness,
              options.partial_completeness);
  for (const PassStats& pass : stats.passes) {
    std::printf(
        "  pass %zu: %zu candidates -> %zu frequent "
        "(%zu super-candidates: %zu array / %zu member / %zu direct) "
        "%.0f ms\n",
        pass.k, pass.num_candidates, pass.num_frequent,
        pass.counting.num_super_candidates, pass.counting.num_array_counters,
        pass.counting.num_member_counters, pass.counting.num_direct,
        pass.seconds * 1e3);
  }
  std::printf("  rules: %zu total, %zu interesting\n\n", stats.num_rules,
              stats.num_interesting_rules);

  std::printf("Interesting rules (interest level %.1f):\n",
              options.interest_level);
  size_t shown = 0;
  for (const QuantRule& rule : result->rules) {
    if (!rule.interesting) continue;
    std::printf("  %s\n", RuleToString(rule, result->mapped).c_str());
    if (++shown >= 25) {
      std::printf("  ... (%zu more)\n", stats.num_interesting_rules - shown);
      break;
    }
  }
  return 0;
}
