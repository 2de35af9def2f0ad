#include "core/report.h"

#include <gtest/gtest.h>

#include "core/miner.h"
#include "table/datagen.h"

namespace qarm {
namespace {

MiningResult MinePeople() {
  MinerOptions options;
  options.minsup = 0.4;
  options.minconf = 0.5;
  options.max_support = 1.0;
  options.num_intervals_override = 4;
  QuantitativeRuleMiner miner(options);
  return std::move(miner.Mine(MakePeopleTable())).value();
}

TEST(RuleToJsonTest, ContainsFields) {
  MiningResult result = MinePeople();
  ASSERT_FALSE(result.rules.empty());
  std::string json = RuleToJson(result.rules[0], result.mapped);
  EXPECT_NE(json.find("\"antecedent\":["), std::string::npos);
  EXPECT_NE(json.find("\"consequent\":["), std::string::npos);
  EXPECT_NE(json.find("\"support\":"), std::string::npos);
  EXPECT_NE(json.find("\"confidence\":"), std::string::npos);
  EXPECT_NE(json.find("\"interesting\":true"), std::string::npos);
}

TEST(RuleToJsonTest, QuantitativeItemHasBounds) {
  MiningResult result = MinePeople();
  // Find a rule involving Age (quantitative).
  for (const QuantRule& r : result.rules) {
    for (const RangeItem& item : r.antecedent) {
      if (item.attr == 0) {
        std::string json = RuleToJson(r, result.mapped);
        EXPECT_NE(json.find("\"kind\":\"quantitative\""), std::string::npos);
        EXPECT_NE(json.find("\"lo\":"), std::string::npos);
        EXPECT_NE(json.find("\"hi\":"), std::string::npos);
        return;
      }
    }
  }
  FAIL() << "no rule over Age found";
}

TEST(MiningResultToJsonTest, WellFormedBraces) {
  MiningResult result = MinePeople();
  std::string json = MiningResultToJson(result);
  // Balanced braces/brackets (a cheap well-formedness proxy).
  int braces = 0, brackets = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_NE(json.find("\"stats\":"), std::string::npos);
  EXPECT_NE(json.find("\"passes\":["), std::string::npos);
}

TEST(MiningResultToJsonTest, InterestingOnlyFilters) {
  Table data = MakeFinancialDataset(1500, 8);
  MinerOptions options;
  options.minsup = 0.2;
  options.minconf = 0.3;
  options.partial_completeness = 3.0;
  options.interest_level = 1.5;
  QuantitativeRuleMiner miner(options);
  auto result = miner.Mine(data);
  ASSERT_TRUE(result.ok());
  std::string all = MiningResultToJson(*result, false);
  std::string filtered = MiningResultToJson(*result, true);
  EXPECT_LT(filtered.size(), all.size());
  EXPECT_EQ(filtered.find("\"interesting\":false"), std::string::npos);
}

TEST(RulesToCsvTest, HeaderAndRows) {
  MiningResult result = MinePeople();
  std::string csv = RulesToCsv(result.rules, result.mapped);
  EXPECT_EQ(csv.rfind(
                "antecedent,consequent,support,confidence,count,interesting\n",
                0),
            0u);
  size_t lines = 0;
  for (char c : csv) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, result.rules.size() + 1);
}

TEST(RulesToCsvTest, QuotesFieldsWithCommas) {
  // Multi-item antecedents render with " and " (no comma), but a label with
  // a comma must be quoted.
  MappedTable mapped(
      {[] {
        MappedAttribute attr;
        attr.name = "city";
        attr.kind = AttributeKind::kCategorical;
        attr.labels = {"San Jose, CA"};
        return attr;
      }()},
      0);
  QuantRule rule;
  rule.antecedent = {RangeItem{0, 0, 0}};
  rule.consequent = {RangeItem{0, 0, 0}};
  std::string csv = RulesToCsv({rule}, mapped);
  EXPECT_NE(csv.find("\"<city: San Jose, CA>\""), std::string::npos);
}

}  // namespace
}  // namespace qarm
