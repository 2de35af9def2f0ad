#include "partition/mapper.h"

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "table/datagen.h"
#include "testutil.h"

namespace qarm {
namespace {

TEST(MapperTest, PeopleTableFigure3Mapping) {
  // Figure 3: Age partitioned into 4 intervals 20..24, 25..29, 30..34,
  // 35..39; Married mapped to integers; NumCars (values 0,1,2) kept raw.
  Table people = MakePeopleTable();
  MapOptions options;
  options.num_intervals_override = 4;
  auto mapped = MapTable(people, options);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

  const MappedAttribute& age = mapped->attribute(0);
  EXPECT_EQ(age.kind, AttributeKind::kQuantitative);
  EXPECT_TRUE(age.partitioned);
  ASSERT_EQ(age.intervals.size(), 4u);
  // With 5 sorted ages {23,25,29,34,38} equi-depth into 4 intervals:
  // boundaries at distinct values; the exact split groups 23,25 | 29 | 34 |
  // 38 (first partition takes two of five).
  EXPECT_EQ(age.intervals.front().lo, 23);
  EXPECT_EQ(age.intervals.back().hi, 38);

  const MappedAttribute& married = mapped->attribute(1);
  EXPECT_EQ(married.kind, AttributeKind::kCategorical);
  ASSERT_EQ(married.labels.size(), 2u);
  // Sorted labels: No < Yes.
  EXPECT_EQ(married.labels[0], "No");
  EXPECT_EQ(married.labels[1], "Yes");

  const MappedAttribute& cars = mapped->attribute(2);
  EXPECT_FALSE(cars.partitioned);
  ASSERT_EQ(cars.intervals.size(), 3u);  // values 0, 1, 2
  EXPECT_TRUE(cars.intervals[0].IsSingleValue());

  // Row 0: Age 23 -> interval 0, Married No -> 0, NumCars 1 -> 1.
  EXPECT_EQ(mapped->value(0, 0), 0);
  EXPECT_EQ(mapped->value(0, 1), 0);
  EXPECT_EQ(mapped->value(0, 2), 1);
}

TEST(MapperTest, DecodeRoundTrip) {
  Table people = MakePeopleTable();
  MapOptions options;
  options.num_intervals_override = 4;
  auto mapped = MapTable(people, options);
  ASSERT_TRUE(mapped.ok());
  // Every record's mapped value decodes to an interval containing the raw
  // value.
  for (size_t r = 0; r < people.num_rows(); ++r) {
    for (size_t c = 0; c < people.num_columns(); ++c) {
      const MappedAttribute& attr = mapped->attribute(c);
      int32_t m = mapped->value(r, c);
      if (attr.kind == AttributeKind::kQuantitative) {
        Interval raw = attr.RawInterval(m, m);
        EXPECT_TRUE(raw.Contains(people.column(c).GetNumeric(r)));
      } else {
        EXPECT_EQ(attr.labels[static_cast<size_t>(m)],
                  people.Get(r, c).as_string());
      }
    }
  }
}

TEST(MapperTest, UnpartitionedWhenFewDistinctValues) {
  // NumCars has 3 distinct values; with required intervals = 4 it stays
  // unpartitioned and order-preserving.
  Table people = MakePeopleTable();
  MapOptions options;
  options.num_intervals_override = 4;
  auto mapped = MapTable(people, options);
  ASSERT_TRUE(mapped.ok());
  const MappedAttribute& cars = mapped->attribute(2);
  EXPECT_EQ(cars.intervals[0].lo, 0);
  EXPECT_EQ(cars.intervals[1].lo, 1);
  EXPECT_EQ(cars.intervals[2].lo, 2);
}

TEST(MapperTest, Equation2DrivesIntervalCount) {
  Table data = MakeFinancialDataset(2000, 1);
  MapOptions options;
  options.partial_completeness = 2.0;
  options.minsup = 0.2;
  auto mapped = MapTable(data, options);
  ASSERT_TRUE(mapped.ok());
  // n = 5 quantitative attrs, m = 0.2, K = 2 -> 50 intervals.
  size_t income = 0;  // monthly_income column
  const MappedAttribute& attr = mapped->attribute(income);
  EXPECT_TRUE(attr.partitioned);
  EXPECT_LE(attr.intervals.size(), 50u);
  EXPECT_GE(attr.intervals.size(), 45u);  // duplicates may merge a few
}

TEST(MapperTest, MaxQuantPerRuleReducesIntervals) {
  Table data = MakeFinancialDataset(2000, 1);
  MapOptions options;
  options.partial_completeness = 2.0;
  options.minsup = 0.2;
  options.max_quantitative_per_rule = 2;  // n' = 2 -> 20 intervals
  auto mapped = MapTable(data, options);
  ASSERT_TRUE(mapped.ok());
  EXPECT_LE(mapped->attribute(0).intervals.size(), 20u);
}

TEST(MapperTest, EquiWidthMethod) {
  Table data = MakeFinancialDataset(2000, 1);
  MapOptions options;
  options.num_intervals_override = 10;
  options.method = PartitionMethod::kEquiWidth;
  auto mapped = MapTable(data, options);
  ASSERT_TRUE(mapped.ok());
  const MappedAttribute& attr = mapped->attribute(0);
  ASSERT_EQ(attr.intervals.size(), 10u);
  double w0 = attr.intervals[0].hi - attr.intervals[0].lo;
  double w5 = attr.intervals[5].hi - attr.intervals[5].lo;
  EXPECT_NEAR(w0, w5, 1e-6);
}

TEST(MapperTest, RejectsBadOptions) {
  Table people = MakePeopleTable();
  MapOptions options;
  options.minsup = 0.0;
  EXPECT_FALSE(MapTable(people, options).ok());
  options.minsup = 0.2;
  options.partial_completeness = 1.0;
  options.num_intervals_override = 0;
  EXPECT_FALSE(MapTable(people, options).ok());
}

// A NaN cell equals no value, so it has no single-value interval. CSV
// input never holds one; an in-memory table gets a Status, not a silently
// misplaced cell.
TEST(MapperTest, NaNCellIsRejected) {
  Table table(Schema::Make({{"x", AttributeKind::kQuantitative,
                             ValueType::kDouble}})
                  .value());
  ASSERT_TRUE(table.AppendRow({Value(1.0)}).ok());
  ASSERT_TRUE(table.AppendRow({Value(std::nan(""))}).ok());
  MapOptions options;
  options.num_intervals_override = 4;
  auto mapped = MapTable(table, options);
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(mapped.status().message(),
            "value 'nan' of attribute 'x' is not a number");
}

// A table with every attribute shape MapTableWithAttributes handles: a
// partitioned and an unpartitioned quantitative column, a categorical
// column, and NULL cells in each.
Table MixedTableWithNulls() {
  Table table(Schema::Make({{"q", AttributeKind::kQuantitative,
                             ValueType::kDouble},
                            {"few", AttributeKind::kQuantitative,
                             ValueType::kInt64},
                            {"s", AttributeKind::kCategorical,
                             ValueType::kString}})
                  .value());
  const char* kStrings[] = {"x", "y", "z"};
  for (int64_t r = 0; r < 200; ++r) {
    auto cell = [&](Value v) {
      return r % 7 == 0 ? Value::Null() : std::move(v);
    };
    EXPECT_TRUE(table
                    .AppendRow({cell(Value(static_cast<double>(r * r % 97))),
                                cell(Value(r % 3)),
                                cell(Value(kStrings[r % 3]))})
                    .ok());
  }
  return table;
}

TEST(MapperTest, WithAttributesReproducesMapTable) {
  const Table table = MixedTableWithNulls();
  MapOptions options;
  options.num_intervals_override = 5;
  auto mapped = MapTable(table, options);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ASSERT_TRUE(mapped->attribute(0).partitioned);
  ASSERT_FALSE(mapped->attribute(1).partitioned);

  auto again = MapTableWithAttributes(table, mapped->attributes());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  for (size_t c = 0; c < table.num_columns(); ++c) {
    for (size_t r = 0; r < table.num_rows(); ++r) {
      EXPECT_EQ(again->value(r, c), mapped->value(r, c)) << r << "," << c;
      if (table.column(c).IsNull(r)) {
        EXPECT_EQ(again->value(r, c), kMissingValue) << r << "," << c;
      }
    }
  }
}

TEST(MapperTest, WithAttributesRejectsValuesOutsideTheDomain) {
  const Table table = MixedTableWithNulls();
  MapOptions options;
  options.num_intervals_override = 5;
  auto mapped = MapTable(table, options);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

  auto delta = [](Value few, Value s) {
    Table t(MixedTableWithNulls().schema());
    EXPECT_TRUE(t.AppendRow({Value(1e9), few, s}).ok());
    return t;
  };
  // A partitioned value beyond every interval clips to the last one.
  auto clipped = MapTableWithAttributes(delta(Value(int64_t{1}), Value("x")),
                                        mapped->attributes());
  ASSERT_TRUE(clipped.ok()) << clipped.status().ToString();
  EXPECT_EQ(clipped->value(0, 0),
            static_cast<int32_t>(mapped->attribute(0).intervals.size() - 1));

  auto unseen_string = MapTableWithAttributes(
      delta(Value(int64_t{1}), Value("w")), mapped->attributes());
  ASSERT_FALSE(unseen_string.ok());
  EXPECT_EQ(unseen_string.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(unseen_string.status().message(),
            "value 'w' of attribute 's' is not in the existing domain; "
            "re-convert the file to admit new categorical values");

  auto unseen_quant = MapTableWithAttributes(
      delta(Value(int64_t{5}), Value("x")), mapped->attributes());
  ASSERT_FALSE(unseen_quant.ok());
  EXPECT_EQ(unseen_quant.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(unseen_quant.status().message(),
            "value 5 of attribute 'few' is not in the existing domain; "
            "re-convert the file to admit new quantitative values");
}

// MapTable labels each category with its own distinct string, and a
// decoded file with a repeated label is rejected, but metadata built by
// hand can still repeat one. Such a label names no one category: remapping
// under it is an error, not a silent merge into the first of them.
TEST(MapperTest, WithAttributesRejectsALabelSeveralCategoriesShare) {
  Table table(Schema::Make({{"d", AttributeKind::kCategorical,
                             ValueType::kString}})
                  .value());
  ASSERT_TRUE(table.AppendRow({Value("1.5")}).ok());
  std::vector<MappedAttribute> attributes = {
      testutil::CatAttr("d", {"0", "0", "1.5"})};

  auto again = MapTableWithAttributes(table, attributes);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(again.status().message(),
            "categorical attribute 'd' repeats label '0'");

  // The same cell maps once the labels are distinct.
  attributes[0].labels[1] = "1e-07";
  auto remapped = MapTableWithAttributes(table, attributes);
  ASSERT_TRUE(remapped.ok()) << remapped.status().ToString();
  EXPECT_EQ(remapped->value(0, 0), 2);
}

TEST(MapperTest, WithAttributesRejectsMismatchedSchemas) {
  const Table table = MixedTableWithNulls();
  MapOptions options;
  options.num_intervals_override = 5;
  auto mapped = MapTable(table, options);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

  std::vector<MappedAttribute> renamed = mapped->attributes();
  renamed[2].name = "t";
  auto by_name = MapTableWithAttributes(table, renamed);
  ASSERT_FALSE(by_name.ok());
  EXPECT_EQ(by_name.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(by_name.status().message(),
            "attribute 2 ('s') does not match the existing metadata ('t')");

  std::vector<MappedAttribute> rekinded = mapped->attributes();
  rekinded[1].kind = AttributeKind::kCategorical;
  auto by_kind = MapTableWithAttributes(table, rekinded);
  ASSERT_FALSE(by_kind.ok());
  EXPECT_EQ(by_kind.status().message(),
            "attribute 1 ('few') does not match the existing metadata "
            "('few')");

  std::vector<MappedAttribute> shorter = mapped->attributes();
  shorter.pop_back();
  auto by_count = MapTableWithAttributes(table, shorter);
  ASSERT_FALSE(by_count.ok());
  EXPECT_EQ(by_count.status().message(),
            "table has 3 attributes, existing metadata has 2");
}

TEST(MappedTableTest, HeadCopiesPrefix) {
  Table people = MakePeopleTable();
  MapOptions options;
  options.num_intervals_override = 4;
  auto mapped = MapTable(people, options);
  ASSERT_TRUE(mapped.ok());
  MappedTable head = mapped->Head(2);
  EXPECT_EQ(head.num_rows(), 2u);
  EXPECT_EQ(head.value(1, 0), mapped->value(1, 0));
  EXPECT_EQ(head.num_attributes(), mapped->num_attributes());
}

TEST(MappedTableTest, ValuesRoundTripByColumn) {
  MappedTable table({testutil::QuantAttr("q", 5),
                     testutil::CatAttr("c", {"a", "b", "c"}),
                     testutil::QuantAttr("r", 3)},
                    /*num_rows=*/10);
  auto expected = [](size_t r, size_t a) {
    if ((r + a) % 4 == 0) return kMissingValue;
    return static_cast<int32_t>((r * 7 + a) % 3);
  };
  for (size_t r = 0; r < 10; ++r) {
    for (size_t a = 0; a < 3; ++a) table.set_value(r, a, expected(r, a));
  }
  for (size_t r = 0; r < 10; ++r) {
    for (size_t a = 0; a < 3; ++a) {
      EXPECT_EQ(table.value(r, a), expected(r, a)) << r << "," << a;
      EXPECT_EQ(table.column(a)[r], expected(r, a)) << r << "," << a;
    }
  }

  const MappedTable head = table.Head(4);
  ASSERT_EQ(head.num_rows(), 4u);
  ASSERT_EQ(head.num_attributes(), 3u);
  for (size_t a = 0; a < 3; ++a) {
    for (size_t r = 0; r < 4; ++r) {
      EXPECT_EQ(head.column(a)[r], expected(r, a)) << r << "," << a;
    }
  }
}

TEST(MappedTableTest, DecodeRangeFormats) {
  Table people = MakePeopleTable();
  MapOptions options;
  options.num_intervals_override = 4;
  auto mapped = MapTable(people, options);
  ASSERT_TRUE(mapped.ok());
  const MappedAttribute& age = mapped->attribute(0);
  // A multi-interval range decodes to the union of raw bounds.
  std::string s = age.DecodeRange(0, static_cast<int32_t>(
                                         age.intervals.size() - 1));
  EXPECT_EQ(s, "23..38");
  const MappedAttribute& married = mapped->attribute(1);
  EXPECT_EQ(married.DecodeRange(1, 1), "Yes");
}

}  // namespace
}  // namespace qarm
