// Golden bytes of every rule output: the mine text (with --itemsets and
// the "[interesting]" marks, and --interesting-only), CSV and JSON
// formats, and the /rules, /topk and /match bodies of RuleService. The
// fixture (tests/golden/render/fixture.csv, a taxonomy over Drink) has a
// taxonomy node, a label that needs CSV quoting ("Oslo, NO") and one that
// needs JSON escaping (Back\slash "Q"). The JSON golden masks the "stats"
// object, which carries timings. cli_render_golden pins the same formats,
// and `rules dump`, as the qarm CLI prints them.
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/output_writer.h"
#include "core/miner.h"
#include "core/report.h"
#include "core/rules_export.h"
#include "partition/taxonomy.h"
#include "serve/rule_catalog.h"
#include "serve/rule_service.h"
#include "table/csv.h"

namespace qarm {
namespace {

std::string ReadGolden(const std::string& name) {
  std::ifstream in(std::string(QARM_RENDER_GOLDEN_DIR) + "/" + name,
                   std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

// Compares `actual` with the golden file `name`. On a mismatch the actual
// bytes are left in the test's temp directory, to diff against the golden.
void ExpectGolden(const std::string& name, const std::string& actual) {
  if (actual == ReadGolden(name)) return;
  const std::string path = ::testing::TempDir() + "render_golden_" + name;
  std::ofstream(path, std::ios::binary) << actual;
  ADD_FAILURE() << name << " differs from its golden; the actual bytes are "
                << "in " << path;
}

MinerOptions FixtureOptions() {
  MinerOptions options;
  options.minsup = 0.2;
  options.minconf = 0.6;
  options.max_support = 0.6;
  options.partial_completeness = 5.0;
  options.interest_level = 1.1;
  options.taxonomies.emplace_back(
      "Drink", Taxonomy::Make({{"hot", "drinks"},
                               {"cold", "drinks"},
                               {"coffee", "hot"},
                               {"tea", "hot"},
                               {"soda", "cold"},
                               {"juice", "cold"}})
                   .value());
  return options;
}

const MiningResult& Fixture() {
  static const MiningResult* result = [] {
    const Schema schema =
        Schema::Parse("Age:quant,Drink:cat,City:cat,Cars:quant").value();
    const Table table =
        ReadCsv(std::string(QARM_RENDER_GOLDEN_DIR) + "/fixture.csv", schema)
            .value();
    return new MiningResult(
        QuantitativeRuleMiner(FixtureOptions()).Mine(table).value());
  }();
  return *result;
}

// `result` in one mine output format, as `qarm` prints it.
std::string Render(const MiningResult& result, RuleFormat format,
                   bool interesting_only, bool show_itemsets = false) {
  RuleOutputOptions options;
  options.format = format;
  options.interesting_only = interesting_only;
  options.show_itemsets = show_itemsets;
  options.mark_interesting = true;
  std::string bytes;
  OutputWriter out(&bytes);
  WriteMiningResult(result, options, &out);
  EXPECT_TRUE(out.Finish().ok());
  return bytes;
}

std::string MineText(const MiningResult& result, bool interesting_only,
                     bool show_itemsets) {
  return Render(result, RuleFormat::kText, interesting_only, show_itemsets);
}

std::string MineCsv(const MiningResult& result, bool interesting_only) {
  return Render(result, RuleFormat::kCsv, interesting_only);
}

std::string MineJson(const MiningResult& result, bool interesting_only) {
  return Render(result, RuleFormat::kJson, interesting_only);
}

// Replaces the "stats" object, which carries timings, with {}.
std::string MaskStats(const std::string& json) {
  const std::string head = "{\"stats\":";
  const size_t rules = json.find(",\"rules\":[");
  if (json.rfind(head, 0) != 0 || rules == std::string::npos) return json;
  return head + "{}" + json.substr(rules);
}

TEST(RenderGoldenTest, FixtureHasEveryCase) {
  const MiningResult& result = Fixture();
  ASSERT_GT(result.rules.size(), 10u);
  const std::string text = MineText(result, false, true);
  EXPECT_NE(text.find("<Drink: hot>"), std::string::npos);
  EXPECT_NE(text.find("Oslo, NO"), std::string::npos);
  EXPECT_NE(text.find("Back\\slash \"Q\""), std::string::npos);
  EXPECT_NE(text.find("  [interesting]"), std::string::npos);
  EXPECT_NE(text.find(" and "), std::string::npos);
  size_t interesting = 0;
  for (const QuantRule& rule : result.rules) interesting += rule.interesting;
  EXPECT_GT(interesting, 0u);
  EXPECT_LT(interesting, result.rules.size());
}

TEST(RenderGoldenTest, MineText) {
  ExpectGolden("mine.txt", MineText(Fixture(), false, true));
  ExpectGolden("mine_interesting.txt", MineText(Fixture(), true, false));
}

TEST(RenderGoldenTest, MineCsv) {
  ExpectGolden("mine.csv", MineCsv(Fixture(), false));
  ExpectGolden("mine_interesting.csv", MineCsv(Fixture(), true));
}

TEST(RenderGoldenTest, MineJsonRules) {
  ExpectGolden("mine.json", MaskStats(MineJson(Fixture(), false)));
  ExpectGolden("mine_interesting.json", MaskStats(MineJson(Fixture(), true)));
}

// The three rule-rendering endpoints, through RuleService::Handle, each
// query twice: the second answer comes from the cache.
TEST(RenderGoldenTest, ServeBodies) {
  std::shared_ptr<const RuleCatalog> catalog =
      RuleCatalog::Build(ExportRuleSet(Fixture(), FixtureOptions())).value();
  RuleService service(catalog, RuleServiceOptions());
  const std::vector<HttpRequest> requests = {
      {"GET", "/rules", {}},
      {"GET", "/rules", {{"interesting", "1"}, {"offset", "2"},
                         {"limit", "4"}}},
      {"GET", "/rules", {{"attr", "Drink"}}},
      {"GET", "/topk", {{"metric", "lift"}, {"k", "5"}}},
      {"GET", "/topk", {{"attr", "City"}, {"k", "3"}}},
      {"GET", "/match", {{"Age", "30"}, {"City", "Oslo, NO"}}},
      {"GET", "/match", {{"Drink", "coffee"}, {"City", "Back\\slash \"Q\""},
                         {"Age", "60"}, {"mode", "antecedent"}}},
  };
  std::string bodies;
  for (const HttpRequest& request : requests) {
    const HttpResponse first = service.Handle(request);
    const HttpResponse second = service.Handle(request);
    EXPECT_EQ(second.body, first.body);
    bodies += RuleService::CanonicalKey(request) + "\n" +
              std::to_string(first.status) + " " + first.body + "\n";
  }
  ExpectGolden("serve.txt", bodies);
}

}  // namespace
}  // namespace qarm
