#include "core/report.h"

#include "common/string_util.h"
#include "storage/stats_fields.h"
#include "table/csv.h"

namespace qarm {

namespace {

const char* Bool(bool value) { return value ? "true" : "false"; }

// "X => Y (support 40.0%, confidence 100.0%)", no newline.
void WriteRuleText(const QuantRule& rule, ItemLabels& labels,
                   OutputWriter* out) {
  WriteItemsText(rule.antecedent, labels, out);
  out->Write(" => ");
  WriteItemsText(rule.consequent, labels, out);
  out->Write(" (support ");
  out->WriteFixed(rule.support * 100.0, 1);
  out->Write("%, confidence ");
  out->WriteFixed(rule.confidence * 100.0, 1);
  out->Write("%)");
}

// A side in the text syntax as one CSV field, quoted when an item's text
// holds , " CR or LF (" and " holds none of them).
void WriteCsvSide(const RangeItemset& side, ItemLabels& labels,
                  OutputWriter* out) {
  bool quote = false;
  for (const RangeItem& item : side) {
    quote |= labels.Get(item.attr, item.lo, item.hi).csv_quote;
  }
  if (!quote) {
    WriteItemsText(side, labels, out);
    return;
  }
  std::string text;
  OutputWriter side_text(&text);
  WriteItemsText(side, labels, &side_text);
  out->Write(CsvQuoteField(text));
}

// "[item json,...]"; `label` maps an item to its ItemLabel.
template <typename Side, typename LabelOf>
void WriteJsonSide(const Side& side, LabelOf label, OutputWriter* out) {
  out->Write('[');
  for (size_t i = 0; i < side.size(); ++i) {
    if (i > 0) out->Write(',');
    out->Write(label(side[i]).json);
  }
  out->Write(']');
}

void WriteRuleJson(const QuantRule& rule, ItemLabels& labels,
                   OutputWriter* out) {
  auto label = [&labels](const RangeItem& item) -> const ItemLabel& {
    return labels.Get(item.attr, item.lo, item.hi);
  };
  out->Write("{\"antecedent\":");
  WriteJsonSide(rule.antecedent, label, out);
  out->Write(",\"consequent\":");
  WriteJsonSide(rule.consequent, label, out);
  out->Write(",\"support\":");
  out->WriteFixed(rule.support, 6);
  out->Write(",\"confidence\":");
  out->WriteFixed(rule.confidence, 6);
  out->Write(",\"count\":");
  out->WriteUint(rule.count);
  out->Write(",\"interesting\":");
  out->Write(Bool(rule.interesting));
  out->Write('}');
}

}  // namespace

void WriteItemsText(const RangeItemset& items, ItemLabels& labels,
                    OutputWriter* out) {
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out->Write(" and ");
    out->Write(labels.Get(items[i].attr, items[i].lo, items[i].hi).text);
  }
}

size_t WriteMiningResult(const MiningResult& result,
                         const RuleOutputOptions& options, OutputWriter* out) {
  ItemLabels labels(&result.mapped.attributes());
  if (options.format == RuleFormat::kText && options.show_itemsets) {
    out->Format("# %zu frequent itemsets\n", result.frequent_itemsets.size());
    for (const FrequentRangeItemset& f : result.frequent_itemsets) {
      WriteItemsText(f.items, labels, out);
      out->Write("  (support ");
      out->WriteFixed(f.support * 100, 2);
      out->Write("%)\n");
    }
    out->Write('\n');
  }
  if (options.format == RuleFormat::kCsv) {
    out->Write("antecedent,consequent,support,confidence,count,interesting\n");
  } else if (options.format == RuleFormat::kJson) {
    out->Write("{\"stats\":");
    out->Write(StatsJson(result.stats));
    out->Write(",\"rules\":[");
  }
  size_t written = 0;
  for (const QuantRule& rule : result.rules) {
    if (options.interesting_only && !rule.interesting) continue;
    if (!out->ok()) break;
    switch (options.format) {
      case RuleFormat::kText:
        WriteRuleText(rule, labels, out);
        if (options.mark_interesting && rule.interesting) {
          out->Write("  [interesting]");
        }
        out->Write('\n');
        break;
      case RuleFormat::kCsv:
        WriteCsvSide(rule.antecedent, labels, out);
        out->Write(',');
        WriteCsvSide(rule.consequent, labels, out);
        out->Write(',');
        out->WriteFixed(rule.support, 6);
        out->Write(',');
        out->WriteFixed(rule.confidence, 6);
        out->Write(',');
        out->WriteUint(rule.count);
        out->Write(',');
        out->Write(Bool(rule.interesting));
        out->Write('\n');
        break;
      case RuleFormat::kJson:
        if (written > 0) out->Write(',');
        WriteRuleJson(rule, labels, out);
        break;
    }
    ++written;
  }
  if (options.format == RuleFormat::kJson) out->Write("]}\n");
  return written;
}

void WriteStoredRuleJson(uint32_t id, const StoredRule& rule,
                         const ItemLabels& labels, OutputWriter* out) {
  auto label = [&labels](const StoredItem& item) -> const ItemLabel& {
    return labels.Find(item.attr, item.lo, item.hi);
  };
  out->Format("{\"id\":%u,\"antecedent\":", id);
  WriteJsonSide(rule.antecedent, label, out);
  out->Write(",\"consequent\":");
  WriteJsonSide(rule.consequent, label, out);
  out->Format(
      ",\"support\":%s,\"confidence\":%s,\"lift\":%s,\"count\":%llu,"
      "\"interesting\":%s}",
      FormatDouble(rule.support).c_str(),
      FormatDouble(rule.confidence).c_str(), FormatDouble(rule.lift).c_str(),
      static_cast<unsigned long long>(rule.count), Bool(rule.interesting));
}

void WriteStoredRuleText(const StoredRule& rule, const ItemLabels& labels,
                         OutputWriter* out) {
  auto side = [&](const std::vector<StoredItem>& items) {
    for (size_t i = 0; i < items.size(); ++i) {
      const StoredItem& item = items[i];
      if (i > 0) out->Write(" AND ");
      out->Write(labels.attribute(item.attr).name);
      const std::string& display =
          labels.Find(item.attr, item.lo, item.hi).display;
      if (labels.attribute(item.attr).kind == AttributeKind::kQuantitative) {
        out->Write('[');
        out->Write(display);
        out->Write(']');
      } else {
        out->Write('=');
        out->Write(display);
      }
    }
  };
  side(rule.antecedent);
  out->Write(" => ");
  side(rule.consequent);
  out->Format(" (conf %.1f%%, sup %.1f%%", rule.confidence * 100,
              rule.support * 100);
  if (rule.lift > 0) out->Format(", lift %.2f", rule.lift);
  out->Format(", count %llu)", static_cast<unsigned long long>(rule.count));
  if (rule.interesting) out->Write("  [interesting]");
  out->Write('\n');
}

std::string RuleToString(const QuantRule& rule, const MappedTable& table) {
  ItemLabels labels(&table.attributes());
  std::string text;
  OutputWriter out(&text);
  WriteRuleText(rule, labels, &out);
  return text;
}

std::string RuleToJson(const QuantRule& rule, const MappedTable& mapped) {
  ItemLabels labels(&mapped.attributes());
  std::string json;
  OutputWriter out(&json);
  WriteRuleJson(rule, labels, &out);
  return json;
}

std::string StatsToJson(const MiningStats& stats) { return StatsJson(stats); }

}  // namespace qarm
