// Checks MapTable against a brute-force reference mapping built here, from
// boxed cells: a std::map<Value> for categorical ids, a fully sorted copy
// of each quantitative column, and a per-row linear search over the
// intervals. The partitioners themselves are pinned by partitioner_test.cc;
// the reference only feeds them the sorted copy.
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "partition/mapper.h"
#include "partition/partial_completeness.h"
#include "partition/partitioner.h"
#include "storage/crc32.h"
#include "storage/qbt_writer.h"
#include "table/datagen.h"

namespace qarm {
namespace {

struct RefColumn {
  MappedAttribute attr;
  std::vector<int32_t> cells;
};

RefColumn RefCategorical(const Table& table, size_t c,
                         const Taxonomy* taxonomy) {
  RefColumn out;
  out.attr.name = table.schema().attribute(c).name;
  out.attr.kind = AttributeKind::kCategorical;
  out.attr.source_type = table.schema().attribute(c).type;
  std::map<Value, int32_t> ids;
  if (taxonomy != nullptr) {
    for (const std::string& leaf : taxonomy->leaves_dfs()) {
      ids.emplace(Value(leaf), static_cast<int32_t>(ids.size()));
      out.attr.labels.push_back(leaf);
    }
    out.attr.taxonomy_ranges = taxonomy->interior_ranges();
  } else {
    for (size_t r = 0; r < table.num_rows(); ++r) {
      const Value v = table.Get(r, c);
      if (!v.is_null()) ids.emplace(v, 0);
    }
    int32_t next = 0;
    for (auto& [value, id] : ids) {
      id = next++;
      out.attr.labels.push_back(value.ToString());
    }
  }
  for (size_t r = 0; r < table.num_rows(); ++r) {
    const Value v = table.Get(r, c);
    out.cells.push_back(v.is_null() ? kMissingValue : ids.at(v));
  }
  return out;
}

RefColumn RefQuantitative(const Table& table, size_t c, size_t required,
                          PartitionMethod method) {
  RefColumn out;
  out.attr.name = table.schema().attribute(c).name;
  out.attr.kind = AttributeKind::kQuantitative;
  out.attr.source_type = table.schema().attribute(c).type;
  std::vector<double> sorted;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    const Value v = table.Get(r, c);
    if (!v.is_null()) sorted.push_back(v.AsNumeric());
  }
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> distinct;
  for (double v : sorted) {
    if (distinct.empty() || distinct.back() != v) distinct.push_back(v);
  }
  out.attr.partitioned = distinct.size() > required && distinct.size() > 1;
  if (!out.attr.partitioned) {
    for (double v : distinct) out.attr.intervals.push_back(Interval{v, v});
  } else if (method == PartitionMethod::kEquiDepth) {
    out.attr.intervals = EquiDepthPartition(sorted, required);
  } else if (method == PartitionMethod::kEquiWidth) {
    out.attr.intervals =
        EquiWidthPartition(sorted.front(), sorted.back(), required);
  } else {
    out.attr.intervals = KMeansPartition(sorted, required);
  }
  const std::vector<Interval>& intervals = out.attr.intervals;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    const Value v = table.Get(r, c);
    if (v.is_null()) {
      out.cells.push_back(kMissingValue);
      continue;
    }
    // The first interval reaching v (exactly v when unpartitioned), else
    // the last one.
    const double x = v.AsNumeric();
    size_t i = 0;
    while (i + 1 < intervals.size() &&
           (out.attr.partitioned ? intervals[i].hi < x : intervals[i].lo != x)) {
      ++i;
    }
    out.cells.push_back(static_cast<int32_t>(i));
  }
  return out;
}

Taxonomy StaffTaxonomy() {
  return Taxonomy::Make({{"hourly", "staff"},
                         {"salaried", "staff"},
                         {"manager", "mgmt"},
                         {"executive", "mgmt"},
                         {"staff", "all"},
                         {"mgmt", "all"},
                         {"retired", "other"}})
      .value();
}

// A random table with every column type the mapper distinguishes. The
// spreads vary by seed, from one value per column to all-distinct.
Table RandomTable(uint64_t seed) {
  Rng rng(seed);
  Table table(Schema::Make({{"qi", AttributeKind::kQuantitative,
                             ValueType::kInt64},
                            {"qd", AttributeKind::kQuantitative,
                             ValueType::kDouble},
                            {"qfew", AttributeKind::kQuantitative,
                             ValueType::kInt64},
                            {"cs", AttributeKind::kCategorical,
                             ValueType::kString},
                            {"tax", AttributeKind::kCategorical,
                             ValueType::kString}})
                  .value());
  static const char* kStrings[] = {"b", "a", "", "ab", "Z", "\xc3\xa9",
                                   "\xff", "a\x01", "hourly"};
  const std::vector<std::string> leaves = StaffTaxonomy().leaves_dfs();

  const size_t rows =
      seed <= 2 ? seed - 1 : static_cast<size_t>(rng.UniformInt(2, 3000));
  const int64_t int_spread =
      std::vector<int64_t>{0, 3, 40, 1000000}[seed % 4];
  const double null_rate = (seed % 3) * 0.1;
  for (size_t r = 0; r < rows; ++r) {
    auto cell = [&](Value v) {
      return rng.Bernoulli(null_rate) ? Value::Null() : std::move(v);
    };
    double d = rng.LogNormal(2.0, 1.5);
    if (seed % 2 == 0) d = static_cast<double>(static_cast<int64_t>(d));
    if (rng.Bernoulli(0.3)) d = 7.5;  // a mass point
    table.AppendRowUnchecked(
        {cell(Value(rng.UniformInt(-int_spread, int_spread))),
         cell(Value(d)), cell(Value(rng.UniformInt(0, 2))),
         cell(Value(kStrings[rng.UniformInt(0, 8)])),
         cell(Value(leaves[static_cast<size_t>(
             rng.UniformInt(0, static_cast<int64_t>(leaves.size()) - 2))]))});
  }
  return table;
}

void ExpectSameAttribute(const MappedAttribute& got,
                         const MappedAttribute& want) {
  EXPECT_EQ(got.name, want.name);
  EXPECT_EQ(got.kind, want.kind);
  EXPECT_EQ(got.source_type, want.source_type);
  EXPECT_EQ(got.partitioned, want.partitioned);
  EXPECT_EQ(got.labels, want.labels);
  EXPECT_EQ(got.intervals, want.intervals);
  ASSERT_EQ(got.taxonomy_ranges.size(), want.taxonomy_ranges.size());
  for (size_t i = 0; i < want.taxonomy_ranges.size(); ++i) {
    EXPECT_EQ(got.taxonomy_ranges[i].name, want.taxonomy_ranges[i].name);
    EXPECT_EQ(got.taxonomy_ranges[i].lo, want.taxonomy_ranges[i].lo);
    EXPECT_EQ(got.taxonomy_ranges[i].hi, want.taxonomy_ranges[i].hi);
  }
}

TEST(MapperOracleTest, MatchesBruteForceMapping) {
  const PartitionMethod kMethods[] = {PartitionMethod::kEquiDepth,
                                      PartitionMethod::kEquiWidth,
                                      PartitionMethod::kKMeans};
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    const Table table = RandomTable(seed);
    for (PartitionMethod method : kMethods) {
      for (size_t override_k : {size_t{0}, size_t{1}, size_t{3}, size_t{9}}) {
        SCOPED_TRACE(testing::Message()
                     << "seed " << seed << " method "
                     << static_cast<int>(method) << " intervals "
                     << override_k << " rows " << table.num_rows());
        MapOptions options;
        options.method = method;
        options.num_intervals_override = override_k;
        options.partial_completeness = 3.0;
        options.minsup = 0.3;
        options.taxonomies.emplace_back("tax", StaffTaxonomy());
        const size_t required =
            override_k > 0 ? override_k
                           : IntervalsForPartialCompleteness(
                                 3.0, table.schema().num_quantitative(), 0.3);

        auto mapped = MapTable(table, options);
        ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
        ASSERT_EQ(mapped->num_rows(), table.num_rows());
        ASSERT_EQ(mapped->num_attributes(), table.num_columns());
        for (size_t c = 0; c < table.num_columns(); ++c) {
          SCOPED_TRACE(table.schema().attribute(c).name);
          const bool quantitative = table.schema().attribute(c).kind ==
                                    AttributeKind::kQuantitative;
          const RefColumn ref =
              quantitative ? RefQuantitative(table, c, required, method)
                           : RefCategorical(table, c,
                                            c == 4 ? &options.taxonomies[0]
                                                          .second
                                                   : nullptr);
          ExpectSameAttribute(mapped->attribute(c), ref.attr);
          const int32_t* got = mapped->column(c);
          ASSERT_TRUE(std::equal(ref.cells.begin(), ref.cells.end(), got));
        }
      }
    }
  }
}

// Pins the bytes of a mapped financial table written as QBT, so a change to
// the mapper that moves an interval, a label or an id shows up here.
TEST(MapperOracleTest, MappedFinancialBytesArePinned) {
  MapOptions options;
  options.num_intervals_override = 9;
  auto mapped = MapTable(MakeFinancialDataset(20000, 1), options);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  const std::string path = ::testing::TempDir() + "/mapped_financial.qbt";
  QbtWriteOptions write;
  write.rows_per_block = 1024;
  ASSERT_TRUE(WriteQbt(*mapped, path, write).ok());

  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes.size(), 561432u);
  EXPECT_EQ(Crc32(bytes.data(), bytes.size()), 0x1C4D25A9u);
}

}  // namespace
}  // namespace qarm
