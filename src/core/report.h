// Machine-readable exports of mining results (JSON and CSV), for piping
// qarm output into downstream tooling. No external dependencies; the JSON
// is hand-emitted and escaped.
#ifndef QARM_CORE_REPORT_H_
#define QARM_CORE_REPORT_H_

#include <string>
#include <vector>

#include "core/miner.h"
#include "core/rules.h"

namespace qarm {

// One rule as a JSON object:
//   {"antecedent":[{"attribute":"Age","kind":"quantitative",
//                   "lo":23,"hi":29,"display":"23..29"}, ...],
//    "consequent":[...],
//    "support":0.6,"confidence":1.0,"count":3,"interesting":true}
// For quantitative items lo/hi are the raw bounds; for categorical items
// they are omitted and "value" carries the label (taxonomy interior nodes
// report the node name).
std::string RuleToJson(const QuantRule& rule, const MappedTable& mapped);

// The whole result: {"num_records":..,"stats":{..},"rules":[..]}.
// With `interesting_only`, rules not flagged interesting are skipped.
std::string MiningResultToJson(const MiningResult& result,
                               bool interesting_only = false);

// Run statistics as a JSON object.
std::string StatsToJson(const MiningStats& stats);

// Rules as CSV: antecedent,consequent,support,confidence,count,interesting.
// Sides are rendered with the human-readable item syntax; fields containing
// commas are double-quoted.
std::string RulesToCsv(const std::vector<QuantRule>& rules,
                       const MappedTable& mapped);

}  // namespace qarm

#endif  // QARM_CORE_REPORT_H_
