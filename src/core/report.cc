#include "core/report.h"

#include "common/string_util.h"
#include "storage/stats_fields.h"
#include "table/csv.h"

namespace qarm {

namespace {

std::string SideToJson(const RangeItemset& side, const MappedTable& mapped) {
  std::string out = "[";
  for (size_t i = 0; i < side.size(); ++i) {
    if (i > 0) out += ',';
    AppendItemJson(mapped.attribute(static_cast<size_t>(side[i].attr)),
                   side[i].lo, side[i].hi, &out);
  }
  out += "]";
  return out;
}

}  // namespace

std::string RuleToJson(const QuantRule& rule, const MappedTable& mapped) {
  std::string out = "{";
  out += "\"antecedent\":" + SideToJson(rule.antecedent, mapped);
  out += ",\"consequent\":" + SideToJson(rule.consequent, mapped);
  out += StrFormat(",\"support\":%.6f,\"confidence\":%.6f,\"count\":%llu",
                   rule.support, rule.confidence,
                   static_cast<unsigned long long>(rule.count));
  out += ",\"interesting\":";
  out += rule.interesting ? "true" : "false";
  out += "}";
  return out;
}

std::string StatsToJson(const MiningStats& stats) { return StatsJson(stats); }

std::string MiningResultToJson(const MiningResult& result,
                               bool interesting_only) {
  std::string out = "{";
  out += "\"stats\":" + StatsToJson(result.stats);
  out += ",\"rules\":[";
  bool first = true;
  for (const QuantRule& rule : result.rules) {
    if (interesting_only && !rule.interesting) continue;
    if (!first) out += ',';
    first = false;
    out += RuleToJson(rule, result.mapped);
  }
  out += "]}";
  return out;
}

std::string RulesToCsv(const std::vector<QuantRule>& rules,
                       const MappedTable& mapped) {
  std::string out = "antecedent,consequent,support,confidence,count,interesting\n";
  for (const QuantRule& rule : rules) {
    out += CsvQuoteField(ItemsetToString(rule.antecedent, mapped));
    out += ',';
    out += CsvQuoteField(ItemsetToString(rule.consequent, mapped));
    out += StrFormat(",%.6f,%.6f,%llu,%s\n", rule.support, rule.confidence,
                     static_cast<unsigned long long>(rule.count),
                     rule.interesting ? "true" : "false");
  }
  return out;
}

}  // namespace qarm
