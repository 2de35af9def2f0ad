#include "core/rules.h"

#include <algorithm>

#include "common/string_util.h"

namespace qarm {

RangeItemset QuantRule::UnionItemset() const {
  RangeItemset all = antecedent;
  all.insert(all.end(), consequent.begin(), consequent.end());
  std::sort(all.begin(), all.end());
  return all;
}

std::vector<QuantRule> GenerateQuantRules(
    const FrequentItemsetStore& itemsets, const ItemCatalog& catalog,
    size_t num_records, double minconf, size_t num_threads,
    size_t* threads_used) {
  return GenerateRulesAs<QuantRule>(
      itemsets, num_records, minconf, num_threads, threads_used,
      [&catalog](const RuleView& view) {
        QuantRule rule;
        rule.antecedent = catalog.Decode(view.antecedent, view.antecedent_size);
        rule.consequent = catalog.Decode(view.consequent, view.consequent_size);
        rule.count = view.count;
        rule.support = view.support;
        rule.confidence = view.confidence;
        return rule;
      });
}

std::string RuleToString(const QuantRule& rule, const MappedTable& table) {
  return StrFormat("%s => %s (support %.1f%%, confidence %.1f%%)",
                   ItemsetToString(rule.antecedent, table).c_str(),
                   ItemsetToString(rule.consequent, table).c_str(),
                   rule.support * 100.0, rule.confidence * 100.0);
}

}  // namespace qarm
