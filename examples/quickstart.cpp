// Quickstart: mine quantitative association rules from the People table of
// the paper's Figures 1 and 3.
//
//   $ ./quickstart
//
// Walks the five-step decomposition end to end and prints every frequent
// itemset and rule, reproducing the paper's worked example.
#include <cstdio>
#include <string>

#include "core/miner.h"
#include "core/report.h"
#include "core/rules.h"
#include "table/datagen.h"

int main() {
  using namespace qarm;

  Table people = MakePeopleTable();
  std::printf("Input table (Figure 1):\n%s\n", people.ToString().c_str());

  MinerOptions options;
  options.minsup = 0.40;   // 40%% = 2 of 5 records
  options.minconf = 0.50;  // 50%%
  options.max_support = 1.0;
  options.num_intervals_override = 4;  // Age -> 4 base intervals (Figure 3b)

  QuantitativeRuleMiner miner(options);
  Result<MiningResult> result = miner.Mine(people);
  if (!result.ok()) {
    std::fprintf(stderr, "mining failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  std::printf("Frequent itemsets (minimum support %.0f%%):\n",
              options.minsup * 100);
  ItemLabels labels(&result->mapped.attributes());
  for (const FrequentRangeItemset& f : result->frequent_itemsets) {
    std::string items;
    OutputWriter out(&items);
    WriteItemsText(f.items, labels, &out);
    std::printf("  %-45s support %.0f%% (%llu records)\n", items.c_str(),
                f.support * 100,
                static_cast<unsigned long long>(f.count));
  }

  std::printf("\nRules (minimum confidence %.0f%%):\n",
              options.minconf * 100);
  for (const QuantRule& rule : result->rules) {
    std::printf("  %s\n", RuleToString(rule, result->mapped).c_str());
  }

  std::printf("\nStats: %zu frequent items, %zu rules, %.1f ms total\n",
              result->stats.num_frequent_items, result->stats.num_rules,
              result->stats.total_seconds * 1e3);
  return 0;
}
