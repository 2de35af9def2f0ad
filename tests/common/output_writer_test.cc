#include "common/output_writer.h"

#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace qarm {
namespace {

TEST(OutputWriterTest, StringSinkAppendsEveryKindOfWrite) {
  std::string text = "head:";
  OutputWriter out(&text);
  out.Write("abc");
  out.Write(',');
  out.Format("%d-%s", 42, "x");
  out.Write(',');
  out.WriteFixed(12.25, 1);
  out.Write(',');
  out.WriteUint(18446744073709551615ull);
  EXPECT_EQ(text, "head:abc,42-x,12.2,18446744073709551615");
  EXPECT_TRUE(out.Finish().ok());
}

TEST(OutputWriterTest, FormatLongerThanItsStackBuffer) {
  std::string text;
  OutputWriter out(&text);
  const std::string long_arg(1000, 'y');
  out.Format("<%s>", long_arg.c_str());
  EXPECT_EQ(text, "<" + long_arg + ">");
}

// WriteFixed must print what "%.*f" prints, rounding included.
TEST(OutputWriterTest, WriteFixedMatchesPrintf) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<double> values = {0.0,  -0.0,   0.5,     0.05,   0.25,
                                0.275, 1e-7,  0.125,   2.5,    99.95,
                                100.0, 1e300, -1e300,  123456.789};
  for (int i = 0; i < 2000; ++i) values.push_back(unit(rng));
  for (int i = 0; i < 200; ++i) values.push_back(unit(rng) * 100.0);
  for (double value : values) {
    for (int precision : {1, 2, 6}) {
      char want[512];
      std::snprintf(want, sizeof(want), "%.*f", precision, value);
      std::string got;
      OutputWriter out(&got);
      out.WriteFixed(value, precision);
      ASSERT_EQ(got, want) << "value " << value << " precision " << precision;
    }
  }
}

// Bytes reach the file in order whether they fit the buffer, cross it, or
// are larger than it.
TEST(OutputWriterTest, FileSinkWritesEverythingPastTheBuffer) {
  std::FILE* file = std::tmpfile();
  ASSERT_NE(file, nullptr);
  std::string want;
  {
    OutputWriter out(file);
    for (size_t size : {size_t{10}, OutputWriter::kBufferBytes - 3,
                        size_t{7}, 3 * OutputWriter::kBufferBytes + 1,
                        size_t{1}}) {
      const std::string chunk(size, static_cast<char>('a' + want.size() % 26));
      out.Write(chunk);
      want += chunk;
    }
    out.Format("%zu", want.size());
    want += std::to_string(want.size());
    ASSERT_TRUE(out.Finish().ok());
  }
  std::rewind(file);
  std::string got(want.size() + 1, '\0');
  got.resize(std::fread(got.data(), 1, got.size(), file));
  std::fclose(file);
  EXPECT_EQ(got, want);
}

// A device that takes no bytes fails the writer: Finish returns the error,
// and nothing after the first failure is written.
TEST(OutputWriterTest, FailedWriteReachesFinish) {
  std::FILE* full = std::fopen("/dev/full", "w");
  if (full == nullptr) GTEST_SKIP() << "no /dev/full";
  {
    OutputWriter out(full);
    out.Write("small");
    EXPECT_TRUE(out.ok());  // still buffered
    const Status status = out.Finish();
    EXPECT_EQ(status.code(), StatusCode::kIOError);
    EXPECT_FALSE(out.ok());
  }
  {
    OutputWriter out(full);
    out.Write(std::string(2 * OutputWriter::kBufferBytes, 'z'));
    EXPECT_FALSE(out.ok());  // larger than the buffer: written at once
    out.Write("more");
    EXPECT_EQ(out.Finish().code(), StatusCode::kIOError);
  }
  std::fclose(full);
}

}  // namespace
}  // namespace qarm
