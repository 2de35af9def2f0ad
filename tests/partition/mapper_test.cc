#include "partition/mapper.h"

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
