#include "common/string_util.h"

#include <gtest/gtest.h>

namespace qarm {
namespace {

TEST(SplitTest, Basic) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(SplitTest, PreservesEmptyFields) {
  EXPECT_EQ(Split("a,,c,", ','),
            (std::vector<std::string>{"a", "", "c", ""}));
}

TEST(SplitTest, NoDelimiter) {
  EXPECT_EQ(Split("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(SplitTest, EmptyInput) {
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(JoinTest, Basic) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ", "), "");
  EXPECT_EQ(Join({"only"}, ", "), "only");
}

TEST(StripWhitespaceTest, Basic) {
  EXPECT_EQ(StripWhitespace("  x y \t\n"), "x y");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace("   "), "");
  EXPECT_EQ(StripWhitespace("abc"), "abc");
}

TEST(FormatDoubleTest, TrimsTrailingZeros) {
  EXPECT_EQ(FormatDouble(3.0), "3");
  EXPECT_EQ(FormatDouble(2.5), "2.5");
  EXPECT_EQ(FormatDouble(2.50), "2.5");
  EXPECT_EQ(FormatDouble(0.125, 3), "0.125");
  EXPECT_EQ(FormatDouble(-4.20), "-4.2");
}

TEST(StrFormatTest, Basic) {
  EXPECT_EQ(StrFormat("x=%d y=%s", 5, "hi"), "x=5 y=hi");
  EXPECT_EQ(StrFormat("%.2f%%", 12.345), "12.35%");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StrFormatTest, LongOutput) {
  std::string long_arg(500, 'a');
  std::string out = StrFormat("[%s]", long_arg.c_str());
  EXPECT_EQ(out.size(), 502u);
  EXPECT_EQ(out.front(), '[');
  EXPECT_EQ(out.back(), ']');
}

TEST(JsonEscapeTest, EscapesSpecials) {
  EXPECT_EQ(JsonEscape("plain"), "\"plain\"");
  EXPECT_EQ(JsonEscape("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(JsonEscape("back\\slash"), "\"back\\\\slash\"");
  EXPECT_EQ(JsonEscape("line\nbreak"), "\"line\\nbreak\"");
  EXPECT_EQ(JsonEscape(std::string("ctl\x01", 4)), "\"ctl\\u0001\"");
}

}  // namespace
}  // namespace qarm
