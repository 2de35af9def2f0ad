#include "storage/crc32.h"

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/cpu_dispatch.h"

namespace qarm {
namespace {

// Bit-at-a-time CRC-32 straight from the definition of the reflected
// polynomial: no table, nothing shared with the library's paths. Works on
// the uninverted state, so a sweep over growing lengths can extend it.
uint32_t ReferenceStep(uint32_t state, uint8_t byte) {
  state ^= byte;
  for (int bit = 0; bit < 8; ++bit) {
    state = (state >> 1) ^ (0xEDB88320u & (0u - (state & 1u)));
  }
  return state;
}

uint32_t ReferenceCrc32(const uint8_t* p, size_t size) {
  uint32_t state = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) state = ReferenceStep(state, p[i]);
  return state ^ 0xFFFFFFFFu;
}

std::vector<uint8_t> PseudoRandomBytes(size_t size) {
  std::vector<uint8_t> bytes(size);
  uint64_t state = 0x9E3779B97F4A7C15u;
  for (uint8_t& b : bytes) {
    state = state * 6364136223846793005u + 1442695040888963407u;
    b = static_cast<uint8_t>(state >> 56);
  }
  return bytes;
}

// Runs the suite under each ISA tier this CPU supports. Scalar always takes
// the slicing-by-8 path; avx2 takes the PCLMULQDQ fold when the CPU has it.
class Crc32DispatchTest : public ::testing::TestWithParam<SimdIsa> {
 protected:
  void SetUp() override {
    if (static_cast<int>(GetParam()) > static_cast<int>(DetectCpuIsa())) {
      GTEST_SKIP() << IsaName(GetParam()) << " not supported by this CPU";
    }
    SetIsaForTest(GetParam());
  }
  void TearDown() override { ClearIsaForTest(); }
};

TEST_P(Crc32DispatchTest, MatchesReferenceAtEveryLengthAndAlignment) {
  constexpr size_t kMaxLength = 4096;
  constexpr size_t kAlignments = 8;
  const std::vector<uint8_t> bytes =
      PseudoRandomBytes(kMaxLength + kAlignments);
  for (size_t offset = 0; offset < kAlignments; ++offset) {
    const uint8_t* p = bytes.data() + offset;
    uint32_t state = 0xFFFFFFFFu;  // the reference over p[0, length)
    for (size_t length = 0; length <= kMaxLength; ++length) {
      ASSERT_EQ(Crc32(p, length), state ^ 0xFFFFFFFFu)
          << "length " << length << " offset " << offset;
      if (length < kMaxLength) state = ReferenceStep(state, p[length]);
    }
  }
}

// Every split of a 1000-byte buffer into two Crc32Update calls: crosses the
// fold's 64-byte entry, its 16-byte steps and the portable tail from both
// sides.
TEST_P(Crc32DispatchTest, EverySplitMatchesOneShot) {
  const std::vector<uint8_t> bytes = PseudoRandomBytes(1000);
  const uint32_t one_shot = Crc32(bytes.data(), bytes.size());
  ASSERT_EQ(one_shot, ReferenceCrc32(bytes.data(), bytes.size()));
  for (size_t split = 0; split <= bytes.size(); ++split) {
    uint32_t crc = Crc32Update(kCrc32Init, bytes.data(), split);
    crc = Crc32Update(crc, bytes.data() + split, bytes.size() - split);
    ASSERT_EQ(Crc32Finish(crc), one_shot) << "split at " << split;
  }
}

TEST_P(Crc32DispatchTest, CheckValue) {
  const std::string check = "123456789";
  EXPECT_EQ(Crc32(check.data(), check.size()), 0xCBF43926u);
  // The same digits repeated past the fold's 64-byte entry.
  std::string repeated;
  for (int i = 0; i < 16; ++i) repeated += check;
  EXPECT_EQ(Crc32(repeated.data(), repeated.size()),
            ReferenceCrc32(reinterpret_cast<const uint8_t*>(repeated.data()),
                           repeated.size()));
}

INSTANTIATE_TEST_SUITE_P(Isas, Crc32DispatchTest,
                         ::testing::Values(SimdIsa::kScalar, SimdIsa::kAvx2),
                         [](const ::testing::TestParamInfo<SimdIsa>& info) {
                           return std::string(IsaName(info.param));
                         });

// The CRC-32 "check" value: every IEEE-802.3 implementation must map the
// ASCII digits "123456789" to 0xCBF43926.
TEST(Crc32Test, KnownVectors) {
  const std::string check = "123456789";
  EXPECT_EQ(Crc32(check.data(), check.size()), 0xCBF43926u);

  EXPECT_EQ(Crc32(nullptr, 0), 0x00000000u);

  const std::string a = "a";
  EXPECT_EQ(Crc32(a.data(), a.size()), 0xE8B7BE43u);

  // zlib's crc32(0, "The quick brown fox jumps over the lazy dog", 43).
  const std::string fox = "The quick brown fox jumps over the lazy dog";
  EXPECT_EQ(Crc32(fox.data(), fox.size()), 0x414FA339u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const std::string data = "quantitative association rules";
  const uint32_t one_shot = Crc32(data.data(), data.size());

  // Any split point must yield the same digest.
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t crc = kCrc32Init;
    crc = Crc32Update(crc, data.data(), split);
    crc = Crc32Update(crc, data.data() + split, data.size() - split);
    EXPECT_EQ(Crc32Finish(crc), one_shot) << "split at " << split;
  }
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  std::vector<int32_t> block(1024);
  for (size_t i = 0; i < block.size(); ++i) {
    block[i] = static_cast<int32_t>(i * 2654435761u);
  }
  const size_t bytes = block.size() * sizeof(int32_t);
  const uint32_t clean = Crc32(block.data(), bytes);

  auto* raw = reinterpret_cast<unsigned char*>(block.data());
  raw[bytes / 2] ^= 0x01;
  EXPECT_NE(Crc32(block.data(), bytes), clean);
  raw[bytes / 2] ^= 0x01;
  EXPECT_EQ(Crc32(block.data(), bytes), clean);
}

}  // namespace
}  // namespace qarm
