// Strict CLI flag parsing: the argv -> MinerOptions path must reject every
// malformed numeric instead of silently taking strtod/strtoull defaults,
// and option-range defects must surface as InvalidArgument, never abort.
#include "tools/cli_flags.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace qarm {
namespace {

// ParseCliArgs over a brace-list of flag strings.
Result<CliFlags> Parse(std::vector<std::string> args) {
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (std::string& a : args) argv.push_back(a.data());
  return ParseCliArgs(static_cast<int>(argv.size()), argv.data(), 0);
}

TEST(CliFlagsTest, ParsesValidFlags) {
  auto flags = Parse({"--input=data.csv", "--minsup=0.15", "--k=2.5",
                      "--threads=8", "--intervals=12", "--format=json"});
  ASSERT_TRUE(flags.ok()) << flags.status().ToString();
  EXPECT_EQ(flags->input, "data.csv");
  EXPECT_DOUBLE_EQ(flags->minsup, 0.15);
  EXPECT_DOUBLE_EQ(flags->k, 2.5);
  EXPECT_EQ(flags->threads, 8u);
  EXPECT_EQ(flags->intervals, 12u);
  EXPECT_EQ(flags->format, "json");
}

TEST(CliFlagsTest, RejectsNonNumericDouble) {
  // Pre-fix behaviour: strtod silently yielded 0.0 and --minsup=abc mined
  // with minsup 0 (or aborted downstream).
  auto flags = Parse({"--minsup=abc"});
  EXPECT_EQ(flags.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(flags.status().message().find("minsup"), std::string::npos);
}

TEST(CliFlagsTest, RejectsTrailingGarbage) {
  EXPECT_FALSE(Parse({"--minconf=0.5x"}).ok());
  EXPECT_FALSE(Parse({"--threads=8 cores"}).ok());
  EXPECT_FALSE(Parse({"--k="}).ok());
}

TEST(CliFlagsTest, RejectsNonFiniteAndOutOfRange) {
  EXPECT_EQ(Parse({"--minsup=nan"}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Parse({"--interest=inf"}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Parse({"--maxsup=1e999"}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CliFlagsTest, RejectsNegativeAndOverflowingSizes) {
  EXPECT_FALSE(Parse({"--threads=-1"}).ok());
  EXPECT_FALSE(Parse({"--records=99999999999999999999"}).ok());
  EXPECT_FALSE(Parse({"--block-rows=0x10"}).ok());
}

TEST(CliFlagsTest, RejectsUnknownFlagMethodFormat) {
  EXPECT_FALSE(Parse({"--bogus=1"}).ok());
  EXPECT_FALSE(Parse({"--method=magic"}).ok());
  EXPECT_FALSE(Parse({"--format=xml"}).ok());
}

TEST(CliFlagsTest, OptionsFromFlagsValidatesRanges) {
  // --k=1.0 used to abort on QARM_CHECK_GT(k, 1.0); now InvalidArgument.
  auto flags = Parse({"--k=1.0"});
  ASSERT_TRUE(flags.ok());
  auto options = MinerOptionsFromFlags(*flags);
  EXPECT_EQ(options.status().code(), StatusCode::kInvalidArgument);

  flags = Parse({"--minsup=0.5"});  // default maxsup 0.4 < minsup
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(MinerOptionsFromFlags(*flags).status().code(),
            StatusCode::kInvalidArgument);

  flags = Parse({"--minsup=0.5", "--maxsup=0.6", "--method=width"});
  ASSERT_TRUE(flags.ok());
  options = MinerOptionsFromFlags(*flags);
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  EXPECT_EQ(options->partition_method, PartitionMethod::kEquiWidth);
  EXPECT_DOUBLE_EQ(options->max_support, 0.6);
}

TEST(CliFlagsTest, MaxItemsetSizeReachesOptions) {
  auto flags = Parse({"--max-itemset-size=2"});
  ASSERT_TRUE(flags.ok()) << flags.status().ToString();
  auto options = MinerOptionsFromFlags(*flags);
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  EXPECT_EQ(options->max_itemset_size, 2u);
  // Unset means unlimited, the library default.
  flags = Parse({});
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(MinerOptionsFromFlags(*flags)->max_itemset_size, 0u);
  EXPECT_FALSE(Parse({"--max-itemset-size=two"}).ok());
  EXPECT_FALSE(Parse({"--max-itemset-size=-1"}).ok());
}

}  // namespace
}  // namespace qarm
