#include "table/schema.h"

#include <gtest/gtest.h>

namespace qarm {
namespace {

TEST(SchemaTest, MakeValid) {
  auto schema = Schema::Make(
      {{"Age", AttributeKind::kQuantitative, ValueType::kInt64},
       {"Married", AttributeKind::kCategorical, ValueType::kString}});
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ(schema->num_attributes(), 2u);
  EXPECT_EQ(schema->num_quantitative(), 1u);
  EXPECT_EQ(schema->num_categorical(), 1u);
  EXPECT_EQ(schema->attribute(0).name, "Age");
}

TEST(SchemaTest, RejectsDuplicateNames) {
  auto schema = Schema::Make(
      {{"A", AttributeKind::kCategorical, ValueType::kString},
       {"A", AttributeKind::kCategorical, ValueType::kString}});
  EXPECT_FALSE(schema.ok());
  EXPECT_EQ(schema.status().code(), StatusCode::kInvalidArgument);
}

TEST(SchemaTest, RejectsEmptyName) {
  auto schema =
      Schema::Make({{"", AttributeKind::kCategorical, ValueType::kString}});
  EXPECT_FALSE(schema.ok());
}

TEST(SchemaTest, RejectsStringQuantitative) {
  auto schema = Schema::Make(
      {{"Q", AttributeKind::kQuantitative, ValueType::kString}});
  EXPECT_FALSE(schema.ok());
}

// A category needs only its label, so a categorical attribute is a string.
TEST(SchemaTest, RejectsNonStringCategorical) {
  auto as_int = Schema::Make(
      {{"code", AttributeKind::kCategorical, ValueType::kInt64}});
  ASSERT_FALSE(as_int.ok());
  EXPECT_EQ(as_int.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(as_int.status().message(),
            "categorical attribute 'code' must be a string, not int64");

  auto as_double = Schema::Make(
      {{"Q", AttributeKind::kQuantitative, ValueType::kDouble},
       {"d", AttributeKind::kCategorical, ValueType::kDouble}});
  ASSERT_FALSE(as_double.ok());
  EXPECT_EQ(as_double.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(as_double.status().message(),
            "categorical attribute 'd' must be a string, not double");
}

TEST(SchemaTest, QuantitativeDoubleAllowed) {
  auto schema = Schema::Make(
      {{"Q", AttributeKind::kQuantitative, ValueType::kDouble}});
  EXPECT_TRUE(schema.ok());
}

TEST(SchemaTest, IndexOf) {
  auto schema = Schema::Make(
      {{"A", AttributeKind::kCategorical, ValueType::kString},
       {"B", AttributeKind::kQuantitative, ValueType::kInt64}});
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ(schema->IndexOf("B").value(), 1u);
  EXPECT_EQ(schema->IndexOf("C").status().code(), StatusCode::kNotFound);
}

TEST(SchemaTest, ParseValidSpec) {
  auto schema = Schema::Parse("Age:quant,Married:cat,Score:quant:double");
  ASSERT_TRUE(schema.ok()) << schema.status().ToString();
  EXPECT_EQ(schema->num_attributes(), 3u);
  EXPECT_EQ(schema->attribute(0).kind, AttributeKind::kQuantitative);
  EXPECT_EQ(schema->attribute(0).type, ValueType::kInt64);
  EXPECT_EQ(schema->attribute(1).kind, AttributeKind::kCategorical);
  EXPECT_EQ(schema->attribute(2).type, ValueType::kDouble);
}

TEST(SchemaTest, ParseRejectsMalformedSpecs) {
  for (const char* bad :
       {"", "Age", "Age:", ":quant", "Age:quant:float", "Age:wat",
        "Age:cat:int", "Age:quant:int:extra", "A:quant,A:cat", ","}) {
    auto schema = Schema::Parse(bad);
    EXPECT_FALSE(schema.ok()) << "spec: '" << bad << "'";
    EXPECT_EQ(schema.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(SchemaTest, EqualityAndToString) {
  auto a = Schema::Make(
      {{"A", AttributeKind::kQuantitative, ValueType::kInt64}});
  auto b = Schema::Make(
      {{"A", AttributeKind::kQuantitative, ValueType::kInt64}});
  auto c = Schema::Make(
      {{"A", AttributeKind::kCategorical, ValueType::kString}});
  EXPECT_TRUE(*a == *b);
  EXPECT_FALSE(*a == *c);
  EXPECT_EQ(a->ToString(), "A:quantitative:int64");
}

}  // namespace
}  // namespace qarm
