#include "core/report.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/cpu_dispatch.h"
#include "common/output_writer.h"
#include "core/miner.h"
#include "table/csv.h"
#include "table/datagen.h"
#include "table/schema.h"
#include "testutil.h"

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

// `result` in `format`, rendered through a string sink.
std::string Render(const MiningResult& result, RuleFormat format,
                   bool interesting_only = false) {
  RuleOutputOptions options;
  options.format = format;
  options.interesting_only = interesting_only;
  std::string bytes;
  OutputWriter out(&bytes);
  WriteMiningResult(result, options, &out);
  EXPECT_TRUE(out.Finish().ok());
  return bytes;
}

// `rules` over `mapped` as CSV.
std::string RulesCsv(std::vector<QuantRule> rules, MappedTable mapped) {
  MiningResult result(std::move(mapped));
  result.rules = std::move(rules);
  return Render(result, RuleFormat::kCsv);
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

// The rule comparison the miner tests share must be at least as strict as
// comparing RuleToJson text, which rounds support and confidence to six
// decimals.
TEST(SameRulesTest, CatchesWhatRuleToJsonRoundsAway) {
  const MiningResult want = MinePeople();
  ASSERT_FALSE(want.rules.empty());
  EXPECT_TRUE(testutil::SameRules(want, want));

  MiningResult got = MinePeople();
  got.rules[0].support = std::nextafter(got.rules[0].support, 2.0);
  ASSERT_EQ(RuleToJson(got.rules[0], got.mapped),
            RuleToJson(want.rules[0], want.mapped));
  EXPECT_FALSE(testutil::SameRules(got, want));

  got = MinePeople();
  got.rules.back().interesting = !got.rules.back().interesting;
  EXPECT_FALSE(testutil::SameRules(got, want));

  got = MinePeople();
  got.rules.pop_back();
  EXPECT_FALSE(testutil::SameRules(got, want));

  got = MinePeople();
  MappedAttribute renamed = got.mapped.attribute(0);
  renamed.name += "_renamed";
  got.mapped.set_attribute(0, renamed);
  EXPECT_FALSE(testutil::SameRules(got, want));
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
  std::string json = Render(result, RuleFormat::kJson);
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
  std::string all = Render(*result, RuleFormat::kJson, false);
  std::string filtered = Render(*result, RuleFormat::kJson, true);
  EXPECT_LT(filtered.size(), all.size());
  EXPECT_EQ(filtered.find("\"interesting\":false"), std::string::npos);
}

// A pass whose fields count up from `base`: integers base+1, base+2, ...
// and seconds (base+n)/64, which print exactly under %.6f.
PassStats GoldenPass(size_t k, size_t base, SimdIsa isa) {
  auto sec = [base](size_t n) { return static_cast<double>(base + n) / 64; };
  PassStats pass;
  pass.k = k;
  pass.num_candidates = base + 1;
  pass.num_frequent = base + 2;
  pass.candgen.threads_used = base + 3;
  pass.candgen.join_candidates = base + 4;
  pass.candgen.peak_materialized = base + 5;
  pass.candgen.join_seconds = sec(6);
  pass.candgen.seconds = sec(8);
  CountingStats& counting = pass.counting;
  counting.num_super_candidates = base + 9;
  counting.num_array_counters = base + 10;
  counting.num_direct = base + 12;
  counting.num_member_counters = base + 13;
  counting.threads_used = base + 15;
  counting.isa = isa;
  counting.io = {base + 16, base + 17, sec(18)};
  counting.counter_bytes = base + 21;
  counting.replicated_bytes = base + 22;
  counting.group_seconds = sec(23);
  counting.build_seconds = sec(24);
  counting.scan_seconds = sec(25);
  counting.reduce_seconds = sec(26);
  pass.seconds = sec(27);
  return pass;
}

// Every field of MiningStats, and of every struct it holds, set to a
// distinct value: two passes, a distributed section with two passes and two
// workers, and an enabled checkpoint.
MiningStats GoldenStats() {
  MiningStats stats;
  stats.num_records = 1001;
  stats.num_threads = 3;
  stats.num_frequent_items = 41;
  stats.items_pruned_by_interest = 7;
  stats.achieved_partial_completeness = 1.234567;
  stats.num_rules = 52;
  stats.num_interesting_rules = 19;
  stats.pass1_io = {11, 90112, 0.003125};
  stats.checkpoint.enabled = true;
  stats.checkpoint.resumed = false;
  stats.checkpoint.resumed_passes = 12;
  stats.checkpoint.checkpoints_written = 13;
  stats.checkpoint.last_checkpoint_bytes = 70001;
  stats.checkpoint.write_seconds = 0.046875;
  stats.map_seconds = 0.25;
  stats.pass1_seconds = 0.75;
  stats.itemset_seconds = 4.125;
  stats.candgen_seconds = 0.0625;
  stats.rulegen_seconds = 1.375;
  stats.interest_seconds = 0.875;
  stats.total_seconds = 9.5;
  stats.candgen_threads_used = 4;
  stats.rulegen_threads_used = 8;
  stats.interest_threads_used = 9;
  stats.passes = {GoldenPass(2, 100, SimdIsa::kAvx2),
                  GoldenPass(3, 200, SimdIsa::kScalar)};
  stats.dist.num_workers = 2;
  stats.dist.workers_respawned = 17;
  for (size_t base : {300, 400}) {
    DistPassStats pass;
    pass.k = base / 100 - 2;
    pass.bytes_sent = base + 1;
    pass.bytes_received = base + 2;
    pass.exchange_seconds = static_cast<double>(base + 3) / 64;
    pass.merge_seconds = static_cast<double>(base + 4) / 64;
    stats.dist.passes.push_back(pass);
  }
  for (size_t base : {500, 600}) {
    DistWorkerStats worker;
    worker.worker_id = static_cast<uint32_t>(base / 100);
    worker.endpoint = base == 500 ? "" : "host-b:7070";
    worker.respawns = base + 1;
    worker.reconnects = base + 2;
    worker.redistributed = base + 3;
    worker.heartbeats = base + 4;
    worker.heartbeat_timeouts = base + 5;
    worker.frames_retried = base + 6;
    worker.bytes_sent = base + 7;
    worker.bytes_received = base + 8;
    stats.dist.workers.push_back(worker);
  }
  return stats;
}

TEST(StatsJsonTest, EveryFieldHasItsKeyAndFormat) {
  const std::string expected =
      "{\"num_records\":1001,\"num_threads\":3,\"num_frequent_items\":41,"
      "\"items_pruned_by_interest\":7,"
      "\"achieved_partial_completeness\":1.234567,"
      "\"num_rules\":52,\"num_interesting_rules\":19,"
      "\"total_seconds\":9.500000,\"map_seconds\":0.250000,"
      "\"pass1_seconds\":0.750000,\"itemset_seconds\":4.125000,"
      "\"candgen_seconds\":0.062500,\"rulegen_seconds\":1.375000,"
      "\"interest_seconds\":0.875000,\"candgen_threads_used\":4,"
      "\"rulegen_threads_used\":8,\"interest_threads_used\":9,"
      "\"pass1_io\":{\"blocks_read\":11,\"bytes_read\":90112,"
      "\"checksum_seconds\":0.003125},"
      "\"checkpoint\":{\"enabled\":true,\"resumed\":false,"
      "\"resumed_passes\":12,\"checkpoints_written\":13,"
      "\"last_checkpoint_bytes\":70001,\"write_seconds\":0.046875},"
      "\"passes\":["
      "{\"k\":2,\"candidates\":101,\"frequent\":102,"
      "\"candgen\":{\"threads_used\":103,\"join_candidates\":104,"
      "\"peak_materialized\":105,\"join_seconds\":1.656250,"
      "\"seconds\":1.687500},"
      "\"super_candidates\":109,\"array_counters\":110,"
      "\"direct_counters\":112,"
      "\"member_counters\":113,\"threads_used\":115,\"isa\":\"avx2\","
      "\"io\":{\"blocks_read\":116,\"bytes_read\":117,"
      "\"checksum_seconds\":1.843750},"
      "\"counter_bytes\":121,\"replicated_bytes\":122,"
      "\"group_seconds\":1.921875,\"build_seconds\":1.937500,"
      "\"scan_seconds\":1.953125,\"reduce_seconds\":1.968750,"
      "\"seconds\":1.984375},"
      "{\"k\":3,\"candidates\":201,\"frequent\":202,"
      "\"candgen\":{\"threads_used\":203,\"join_candidates\":204,"
      "\"peak_materialized\":205,\"join_seconds\":3.218750,"
      "\"seconds\":3.250000},"
      "\"super_candidates\":209,\"array_counters\":210,"
      "\"direct_counters\":212,"
      "\"member_counters\":213,\"threads_used\":215,\"isa\":\"scalar\","
      "\"io\":{\"blocks_read\":216,\"bytes_read\":217,"
      "\"checksum_seconds\":3.406250},"
      "\"counter_bytes\":221,\"replicated_bytes\":222,"
      "\"group_seconds\":3.484375,\"build_seconds\":3.500000,"
      "\"scan_seconds\":3.515625,\"reduce_seconds\":3.531250,"
      "\"seconds\":3.546875}],"
      "\"distributed\":{\"num_workers\":2,\"workers_respawned\":17,"
      "\"passes\":["
      "{\"k\":1,\"bytes_sent\":301,\"bytes_received\":302,"
      "\"exchange_seconds\":4.734375,\"merge_seconds\":4.750000},"
      "{\"k\":2,\"bytes_sent\":401,\"bytes_received\":402,"
      "\"exchange_seconds\":6.296875,\"merge_seconds\":6.312500}],"
      "\"workers\":["
      "{\"worker_id\":5,\"endpoint\":\"\",\"respawns\":501,"
      "\"reconnects\":502,\"redistributed\":503,\"heartbeats\":504,"
      "\"heartbeat_timeouts\":505,\"frames_retried\":506,"
      "\"bytes_sent\":507,\"bytes_received\":508},"
      "{\"worker_id\":6,\"endpoint\":\"host-b:7070\",\"respawns\":601,"
      "\"reconnects\":602,\"redistributed\":603,\"heartbeats\":604,"
      "\"heartbeat_timeouts\":605,\"frames_retried\":606,"
      "\"bytes_sent\":607,\"bytes_received\":608}]}}";
  EXPECT_EQ(StatsToJson(GoldenStats()), expected);
}

TEST(StatsJsonTest, DistributedAndWorkersOnlyWhenPresent) {
  MiningStats stats = GoldenStats();
  stats.dist.workers.clear();
  const std::string json = StatsToJson(stats);
  EXPECT_EQ(json.find("\"workers\":"), std::string::npos) << json;
  const std::string tail = "\"merge_seconds\":6.312500}]}}";
  ASSERT_GE(json.size(), tail.size());
  EXPECT_EQ(json.substr(json.size() - tail.size()), tail);

  EXPECT_EQ(StatsToJson(MiningStats{}),
            "{\"num_records\":0,\"num_threads\":1,\"num_frequent_items\":0,"
            "\"items_pruned_by_interest\":0,"
            "\"achieved_partial_completeness\":1.000000,"
            "\"num_rules\":0,\"num_interesting_rules\":0,"
            "\"total_seconds\":0.000000,\"map_seconds\":0.000000,"
            "\"pass1_seconds\":0.000000,\"itemset_seconds\":0.000000,"
            "\"candgen_seconds\":0.000000,\"rulegen_seconds\":0.000000,"
            "\"interest_seconds\":0.000000,\"candgen_threads_used\":1,"
            "\"rulegen_threads_used\":1,\"interest_threads_used\":1,"
            "\"pass1_io\":{\"blocks_read\":0,\"bytes_read\":0,"
            "\"checksum_seconds\":0.000000},"
            "\"checkpoint\":{\"enabled\":false,\"resumed\":false,"
            "\"resumed_passes\":0,\"checkpoints_written\":0,"
            "\"last_checkpoint_bytes\":0,\"write_seconds\":0.000000},"
            "\"passes\":[]}");
}

TEST(StatsJsonTest, EndpointIsEscaped) {
  MiningStats stats = GoldenStats();
  stats.dist.workers[1].endpoint = "a\"b\\c";
  const std::string json = StatsToJson(stats);
  EXPECT_NE(json.find("\"endpoint\":\"a\\\"b\\\\c\","), std::string::npos)
      << json;
}

TEST(RulesToCsvTest, HeaderAndRows) {
  MiningResult result = MinePeople();
  std::string csv = Render(result, RuleFormat::kCsv);
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
  std::string csv = RulesCsv({rule}, std::move(mapped));
  EXPECT_NE(csv.find("\"<city: San Jose, CA>\""), std::string::npos);
}

// A quoted CSV input cell may hold a bare \r, and it becomes a category
// label; the rule output must quote it, or a CSV reader ends the row there.
TEST(RulesToCsvTest, LabelWithCarriageReturnReadsBackAsOneRow) {
  MappedTable mapped(
      {[] {
        MappedAttribute attr;
        attr.name = "note";
        attr.kind = AttributeKind::kCategorical;
        attr.labels = {"a\rb", "c"};
        return attr;
      }()},
      0);
  QuantRule first;
  first.antecedent = {RangeItem{0, 0, 0}};
  first.consequent = {RangeItem{0, 1, 1}};
  QuantRule second;
  second.antecedent = {RangeItem{0, 1, 1}};
  second.consequent = {RangeItem{0, 0, 0}};
  const std::string csv = RulesCsv({first, second}, std::move(mapped));
  const Schema schema =
      Schema::Parse("antecedent:cat,consequent:cat,support:quant:double,"
                    "confidence:quant:double,count:quant,interesting:cat")
          .value();
  auto table = ReadCsvString(csv, schema);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  ASSERT_EQ(table->num_rows(), 2u);
  EXPECT_EQ(table->Get(0, 0).ToString(), "<note: a\rb>");
  EXPECT_EQ(table->Get(1, 1).ToString(), "<note: a\rb>");
}

}  // namespace
}  // namespace qarm
