// The rule renderer: every way a rule becomes bytes. The mine output
// formats (text, CSV, JSON), the JSON object the serving engine and
// `qarm rules dump --format=json` give a stored rule, and the `rules dump`
// text line all render here. Items render from an ItemLabels table
// (partition/item_labels.h), which builds each item's text and JSON once,
// and every format writes through an OutputWriter
// (common/output_writer.h), so an output costs time and memory in
// proportion to its rules, not a document-sized string.
#ifndef QARM_CORE_REPORT_H_
#define QARM_CORE_REPORT_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/output_writer.h"
#include "core/miner.h"
#include "core/rules.h"
#include "partition/item_labels.h"
#include "storage/rules_format.h"

namespace qarm {

enum class RuleFormat { kText, kCsv, kJson };

struct RuleOutputOptions {
  RuleFormat format = RuleFormat::kText;
  // Skip rules the interest filter did not flag.
  bool interesting_only = false;
  // Text only: the frequent itemsets first, one per line.
  bool show_itemsets = false;
  // Text only: "  [interesting]" after each interesting rule.
  bool mark_interesting = false;
};

// Writes `result`'s rules in `options.format` and returns how many it
// wrote (it stops early once `out` fails):
//   text: "<Age: 20..29> and <Married: Yes> => <NumCars: 2> (support
//         40.0%, confidence 100.0%)" per line;
//   CSV:  antecedent,consequent,support,confidence,count,interesting,
//         each side in the text syntax, quoted when it holds , " CR or LF;
//   JSON: {"stats":{..},"rules":[..]} and a newline, each rule as
//         RuleToJson gives it.
size_t WriteMiningResult(const MiningResult& result,
                         const RuleOutputOptions& options, OutputWriter* out);

// "<Age: 20..29> and <Married: Yes>": an itemset in the text syntax.
void WriteItemsText(const RangeItemset& items, ItemLabels& labels,
                    OutputWriter* out);

// Stored rule `id` as the serving engine's JSON object:
//   {"id":3,"antecedent":[..],"consequent":[..],"support":0.4,
//    "confidence":1,"lift":1.5,"count":12,"interesting":true}
// Every item must be in `labels` (RuleCatalog::labels() holds them all).
void WriteStoredRuleJson(uint32_t id, const StoredRule& rule,
                         const ItemLabels& labels, OutputWriter* out);

// Stored rule as a `qarm rules dump` text line, newline included:
//   "Age[20..29] AND Married=Yes => NumCars[2..2] (conf 71.2%, sup 12.3%,
//    lift 1.35, count 123)", then "  [interesting]" when flagged.
void WriteStoredRuleText(const StoredRule& rule, const ItemLabels& labels,
                         OutputWriter* out);

// One rule as a JSON object (one-rule convenience over the same code):
//   {"antecedent":[{"attribute":"Age","kind":"quantitative",
//                   "lo":23,"hi":29,"display":"23..29"}, ...],
//    "consequent":[...],
//    "support":0.6,"confidence":1.0,"count":3,"interesting":true}
// For quantitative items lo/hi are the raw bounds; for categorical items
// they are omitted and "value" carries the label (taxonomy interior nodes
// report the node name).
std::string RuleToJson(const QuantRule& rule, const MappedTable& mapped);

// Run statistics as a JSON object.
std::string StatsToJson(const MiningStats& stats);

}  // namespace qarm

#endif  // QARM_CORE_REPORT_H_
