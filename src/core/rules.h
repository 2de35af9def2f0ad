// Quantitative association rules (step 4 of the decomposition) and their
// rendering.
#ifndef QARM_CORE_RULES_H_
#define QARM_CORE_RULES_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/frequent_items.h"
#include "core/item.h"
#include "mining/rulegen.h"

namespace qarm {

// A rule X => Y over quantitative/categorical items.
struct QuantRule {
  RangeItemset antecedent;
  RangeItemset consequent;
  uint64_t count = 0;  // records supporting X ∪ Y
  double support = 0.0;
  double confidence = 0.0;
  // Set by the interest evaluator (true when no interest level is given).
  bool interesting = true;

  // X ∪ Y, attribute-sorted.
  RangeItemset UnionItemset() const;
};

// Generates all rules with confidence >= minconf from the frequent itemsets
// (ap-genrules over the store's item ids, mining/rulegen.h), decoding each
// rule into ranges as it is emitted. With `num_threads > 1` (0 = all
// hardware cores) itemset chunks fan out across a worker pool; the rules
// are identical, in the same order, at any thread count. `threads_used`,
// when non-null, receives the parallelism actually applied.
std::vector<QuantRule> GenerateQuantRules(
    const FrequentItemsetStore& itemsets, const ItemCatalog& catalog,
    size_t num_records, double minconf, size_t num_threads = 1,
    size_t* threads_used = nullptr);

// "<Age: 20..29> and <Married: Yes> => <NumCars: 2> (support 40%,
//  confidence 100%)".
std::string RuleToString(const QuantRule& rule, const MappedTable& table);

}  // namespace qarm

#endif  // QARM_CORE_RULES_H_
