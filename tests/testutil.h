// Shared helpers for QARM tests: small-table builders and brute-force
// reference implementations that mining components are checked against.
#ifndef QARM_TESTS_TESTUTIL_H_
#define QARM_TESTS_TESTUTIL_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/output_writer.h"
#include "core/item.h"
#include "core/miner.h"
#include "core/report.h"
#include "core/rules.h"
#include "mining/apriori.h"
#include "partition/item_labels.h"
#include "partition/mapped_table.h"
#include "storage/attr_metadata.h"
#include "table/table.h"

namespace qarm {
namespace testutil {

// An itemset in the mine text syntax, "<Age: 1..3> and <Married: No>",
// through the rule renderer.
inline std::string ItemsText(const RangeItemset& items,
                             const MappedTable& table) {
  ItemLabels labels(&table.attributes());
  std::string text;
  OutputWriter out(&text);
  WriteItemsText(items, labels, &out);
  return text;
}

// Row r of a mapped table as one record (num_attributes() values).
inline std::vector<int32_t> RecordAt(const MappedTable& table, size_t r) {
  std::vector<int32_t> record(table.num_attributes());
  for (size_t a = 0; a < record.size(); ++a) record[a] = table.value(r, a);
  return record;
}

// Brute-force support count of an itemset over a mapped table.
inline uint64_t BruteForceSupport(const MappedTable& table,
                                  const RangeItemset& itemset) {
  uint64_t count = 0;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (RecordSupports(RecordAt(table, r).data(), itemset)) ++count;
  }
  return count;
}

// Brute-force frequent itemsets over boolean transactions (reference for
// Apriori). Returns sorted itemsets with counts.
inline std::vector<FrequentItemset> BruteForceFrequent(
    const std::vector<Transaction>& transactions, double minsup,
    size_t max_size = 6) {
  std::set<int32_t> universe;
  for (const Transaction& t : transactions) {
    universe.insert(t.begin(), t.end());
  }
  std::vector<int32_t> items(universe.begin(), universe.end());
  uint64_t min_count = static_cast<uint64_t>(
      minsup * static_cast<double>(transactions.size()) + 0.9999999);
  if (min_count == 0) min_count = 1;

  std::vector<FrequentItemset> result;
  // Enumerate subsets level by level, extending only frequent ones.
  std::vector<std::vector<int32_t>> level;
  for (int32_t item : items) level.push_back({item});
  while (!level.empty() && level[0].size() <= max_size) {
    std::vector<std::vector<int32_t>> next;
    for (const std::vector<int32_t>& set : level) {
      uint64_t count = 0;
      for (const Transaction& t : transactions) {
        if (std::includes(t.begin(), t.end(), set.begin(), set.end())) {
          ++count;
        }
      }
      if (count >= min_count) {
        result.push_back(FrequentItemset{set, count});
        for (int32_t item : items) {
          if (item > set.back()) {
            std::vector<int32_t> extended = set;
            extended.push_back(item);
            next.push_back(std::move(extended));
          }
        }
      }
    }
    level = std::move(next);
  }
  std::sort(result.begin(), result.end(),
            [](const FrequentItemset& a, const FrequentItemset& b) {
              if (a.items.size() != b.items.size()) {
                return a.items.size() < b.items.size();
              }
              return a.items < b.items;
            });
  return result;
}

// Builds a MappedTable directly (bypassing MapTable) from explicit data:
// attrs[i] describes attribute i, rows are mapped integer values.
inline MappedTable MakeMappedTable(
    std::vector<MappedAttribute> attrs,
    const std::vector<std::vector<int32_t>>& rows) {
  MappedTable table(std::move(attrs), rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    for (size_t a = 0; a < rows[r].size(); ++a) {
      table.set_value(r, a, rows[r][a]);
    }
  }
  return table;
}

// A quantitative mapped attribute whose mapped ids are the raw values
// 0..domain-1 (single-value intervals).
inline MappedAttribute QuantAttr(const std::string& name, int32_t domain) {
  MappedAttribute attr;
  attr.name = name;
  attr.kind = AttributeKind::kQuantitative;
  attr.source_type = ValueType::kInt64;
  attr.partitioned = false;
  for (int32_t v = 0; v < domain; ++v) {
    attr.intervals.push_back(
        Interval{static_cast<double>(v), static_cast<double>(v)});
  }
  return attr;
}

// A categorical mapped attribute with the given labels.
inline MappedAttribute CatAttr(const std::string& name,
                               std::vector<std::string> labels) {
  MappedAttribute attr;
  attr.name = name;
  attr.kind = AttributeKind::kCategorical;
  attr.source_type = ValueType::kString;
  attr.labels = std::move(labels);
  return attr;
}

// Three attributes cycling with periods 3, 2, and 9 (income == (r/3)%3 is
// independent of cars == r%3 over a period of 9). Any row count that is a
// multiple of 18 yields exactly proportional single/pair/triple supports,
// so appending another multiple of 18 rows preserves every item and every
// frequent itemset.
inline MappedTable MakeCyclingTable(size_t num_rows) {
  MappedAttribute income;
  income.name = "income";
  income.kind = AttributeKind::kQuantitative;
  income.source_type = ValueType::kInt64;
  income.partitioned = true;
  income.intervals = {{0, 999}, {1000, 4999}, {5000, 9999}};
  MappedAttribute married = CatAttr("married", {"no", "yes"});
  MappedAttribute cars = CatAttr("cars", {"zero", "one", "two"});

  MappedTable table({income, married, cars}, num_rows);
  for (size_t r = 0; r < num_rows; ++r) {
    table.set_value(r, 0, static_cast<int32_t>((r / 3) % 3));
    table.set_value(r, 1, static_cast<int32_t>(r % 2));
    table.set_value(r, 2, static_cast<int32_t>(r % 3));
  }
  return table;
}

// Sorts rule-free itemset collections for order-insensitive comparison.
inline std::vector<FrequentItemset> Sorted(std::vector<FrequentItemset> v) {
  std::sort(v.begin(), v.end(),
            [](const FrequentItemset& a, const FrequentItemset& b) {
              if (a.items.size() != b.items.size()) {
                return a.items.size() < b.items.size();
              }
              return a.items < b.items;
            });
  return v;
}

// True when `a` and `b` are the same bits: -0 differs from 0, and a NaN
// equals itself.
inline bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

// Checks that `got` holds `want`'s rules in `want`'s order, each decoded
// through its own table: the decode metadata once (as its encoded bytes,
// so intervals compare bit for bit), then per rule the antecedent and
// consequent items, the count, support and confidence bit for bit, and the
// interest flag. On the first mismatch the message shows both rules'
// RuleToJson.
inline ::testing::AssertionResult SameRules(
    const std::vector<QuantRule>& got, const MappedTable& got_table,
    const std::vector<QuantRule>& want, const MappedTable& want_table) {
  if (EncodeAttributeMetadata(got_table.attributes()) !=
      EncodeAttributeMetadata(want_table.attributes())) {
    return ::testing::AssertionFailure() << "the decode metadata differs";
  }
  const size_t common = std::min(got.size(), want.size());
  for (size_t i = 0; i < common; ++i) {
    const QuantRule& g = got[i];
    const QuantRule& w = want[i];
    if (g.antecedent != w.antecedent || g.consequent != w.consequent ||
        g.count != w.count || !SameBits(g.support, w.support) ||
        !SameBits(g.confidence, w.confidence) ||
        g.interesting != w.interesting) {
      return ::testing::AssertionFailure()
             << "rule " << i << " differs:\n  got  "
             << RuleToJson(g, got_table) << "\n  want "
             << RuleToJson(w, want_table);
    }
  }
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << "got " << got.size() << " rules, want " << want.size();
  }
  return ::testing::AssertionSuccess();
}

inline ::testing::AssertionResult SameRules(const MiningResult& got,
                                            const MiningResult& want) {
  return SameRules(got.rules, got.mapped, want.rules, want.mapped);
}

}  // namespace testutil
}  // namespace qarm

#endif  // QARM_TESTS_TESTUTIL_H_
