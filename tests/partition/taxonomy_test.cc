#include "partition/taxonomy.h"

#include <gtest/gtest.h>

#include "partition/mapper.h"
#include "table/table.h"

namespace qarm {
namespace {

Taxonomy DrinksTaxonomy() {
  // drinks -> {hot -> {coffee, tea}, cold -> {soda, juice}}
  return Taxonomy::Make({{"hot", "drinks"},
                         {"cold", "drinks"},
                         {"coffee", "hot"},
                         {"tea", "hot"},
                         {"soda", "cold"},
                         {"juice", "cold"}})
      .value();
}

TEST(TaxonomyTest, LeavesInDfsOrder) {
  Taxonomy tax = DrinksTaxonomy();
  EXPECT_EQ(tax.leaves_dfs(),
            (std::vector<std::string>{"coffee", "tea", "soda", "juice"}));
}

TEST(TaxonomyTest, InteriorRanges) {
  Taxonomy tax = DrinksTaxonomy();
  // Expect drinks=[0..3], hot=[0..1], cold=[2..3] (outermost first).
  ASSERT_EQ(tax.interior_ranges().size(), 3u);
  EXPECT_EQ(tax.interior_ranges()[0].name, "drinks");
  EXPECT_EQ(tax.interior_ranges()[0].lo, 0);
  EXPECT_EQ(tax.interior_ranges()[0].hi, 3);
  // hot and cold both span 2 leaves; order between them is stable.
  EXPECT_EQ(tax.interior_ranges()[1].name, "hot");
  EXPECT_EQ(tax.interior_ranges()[1].lo, 0);
  EXPECT_EQ(tax.interior_ranges()[1].hi, 1);
  EXPECT_EQ(tax.interior_ranges()[2].name, "cold");
  EXPECT_EQ(tax.interior_ranges()[2].lo, 2);
  EXPECT_EQ(tax.interior_ranges()[2].hi, 3);
}

TEST(TaxonomyTest, IsLeaf) {
  Taxonomy tax = DrinksTaxonomy();
  EXPECT_TRUE(tax.IsLeaf("coffee"));
  EXPECT_FALSE(tax.IsLeaf("hot"));
  EXPECT_FALSE(tax.IsLeaf("nonexistent"));
}

TEST(TaxonomyTest, ForestAllowed) {
  auto tax = Taxonomy::Make({{"a", "g1"}, {"b", "g1"}, {"c", "g2"}});
  ASSERT_TRUE(tax.ok());
  EXPECT_EQ(tax->leaves_dfs().size(), 3u);
  EXPECT_EQ(tax->interior_ranges().size(), 2u);
}

TEST(TaxonomyTest, RejectsBadInput) {
  EXPECT_FALSE(Taxonomy::Make({}).ok());
  EXPECT_FALSE(Taxonomy::Make({{"a", "a"}}).ok());            // self edge
  EXPECT_FALSE(Taxonomy::Make({{"a", "p"}, {"a", "q"}}).ok());  // two parents
  EXPECT_FALSE(Taxonomy::Make({{"", "p"}}).ok());
  // Cycle: a -> b -> a.
  EXPECT_FALSE(Taxonomy::Make({{"a", "b"}, {"b", "a"}}).ok());
}

TEST(TaxonomyMapperTest, DfsOrderAndRanges) {
  Schema schema =
      Schema::Make({{"drink", AttributeKind::kCategorical,
                     ValueType::kString}})
          .value();
  Table table(schema);
  for (const char* v : {"tea", "soda", "coffee", "tea", "juice"}) {
    table.AppendRowUnchecked({Value(std::string(v))});
  }
  MapOptions options;
  options.taxonomies.emplace_back("drink", DrinksTaxonomy());
  auto mapped = MapTable(table, options);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  const MappedAttribute& attr = mapped->attribute(0);
  EXPECT_TRUE(attr.ranged());
  EXPECT_EQ(attr.labels,
            (std::vector<std::string>{"coffee", "tea", "soda", "juice"}));
  ASSERT_EQ(attr.taxonomy_ranges.size(), 3u);
  // Row 0 = tea -> id 1; row 1 = soda -> id 2.
  EXPECT_EQ(mapped->value(0, 0), 1);
  EXPECT_EQ(mapped->value(1, 0), 2);
  // Decode: exact node names, or leaf lists for unnamed ranges.
  EXPECT_EQ(attr.DecodeRange(0, 1), "hot");
  EXPECT_EQ(attr.DecodeRange(0, 3), "drinks");
  EXPECT_EQ(attr.DecodeRange(2, 2), "soda");
  EXPECT_EQ(attr.DecodeRange(1, 2), "tea|soda");
}

TEST(TaxonomyMapperTest, RejectsNonLeafValue) {
  Schema schema =
      Schema::Make({{"drink", AttributeKind::kCategorical,
                     ValueType::kString}})
          .value();
  Table table(schema);
  table.AppendRowUnchecked({Value("water")});  // not in the taxonomy
  MapOptions options;
  options.taxonomies.emplace_back("drink", DrinksTaxonomy());
  auto mapped = MapTable(table, options);
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(mapped.status().message(),
            "value 'water' of attribute 'drink' is not a leaf of its "
            "taxonomy");
}

TEST(TaxonomyMapperTest, RejectsTaxonomyOnQuantitative) {
  Schema schema =
      Schema::Make({{"x", AttributeKind::kQuantitative, ValueType::kInt64}})
          .value();
  Table table(schema);
  table.AppendRowUnchecked({Value(int64_t{1})});
  MapOptions options;
  options.taxonomies.emplace_back("x", DrinksTaxonomy());
  EXPECT_FALSE(MapTable(table, options).ok());
}

TEST(TaxonomyMapperTest, RejectsUnknownAttribute) {
  Schema schema =
      Schema::Make({{"drink", AttributeKind::kCategorical,
                     ValueType::kString}})
          .value();
  Table table(schema);
  table.AppendRowUnchecked({Value("tea")});
  MapOptions options;
  options.taxonomies.emplace_back("beverage", DrinksTaxonomy());
  EXPECT_FALSE(MapTable(table, options).ok());
}

TEST(TaxonomyMapperTest, AbsentLeavesKeepIds) {
  // Only "tea" appears in the data; ids still cover all four leaves so the
  // interior ranges stay exact.
  Schema schema =
      Schema::Make({{"drink", AttributeKind::kCategorical,
                     ValueType::kString}})
          .value();
  Table table(schema);
  table.AppendRowUnchecked({Value("tea")});
  MapOptions options;
  options.taxonomies.emplace_back("drink", DrinksTaxonomy());
  auto mapped = MapTable(table, options);
  ASSERT_TRUE(mapped.ok());
  EXPECT_EQ(mapped->attribute(0).domain_size(), 4u);
  EXPECT_EQ(mapped->value(0, 0), 1);
}

}  // namespace
}  // namespace qarm
