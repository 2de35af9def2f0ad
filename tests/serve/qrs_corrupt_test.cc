// Corrupt-input hardening for the QRS reader: every mutation of a valid
// file — truncation at any length, flipped magic/CRC, lying counts and
// sizes, semantic invariant violations — must come back as a clean
// Status, never a crash or an allocation bomb.
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serve/serve_testutil.h"
#include "storage/crc32.h"
#include "storage/rules_format.h"

namespace qarm {
namespace {

// A valid serialized rule set, via the real writer and a temp file. The
// path carries the pid plus the running test's name: ctest runs each
// TEST_F as its own (concurrent) invocation of this binary, and a shared
// name races — one instance unlinks the file another is still writing.
std::vector<uint8_t> ValidBytes() {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string path = ::testing::TempDir() + "/corrupt_base_" +
                           std::to_string(::getpid()) + "_" +
                           (info != nullptr ? info->name() : "anon") + ".qrs";
  const StoredRuleSet set = servetest::MakeRuleSet();
  if (!WriteRuleSet(set, path).ok()) return {};
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return {};
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<uint8_t> bytes(static_cast<size_t>(size));
  const size_t read = std::fread(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  std::remove(path.c_str());
  if (read != bytes.size()) return {};
  return bytes;
}

Status ParseStatus(const std::vector<uint8_t>& bytes) {
  return ParseRuleSet(bytes.data(), bytes.size()).status();
}

void PutU32(std::vector<uint8_t>* bytes, size_t offset, uint32_t value) {
  std::memcpy(bytes->data() + offset, &value, sizeof(value));
}

void PutU64(std::vector<uint8_t>* bytes, size_t offset, uint64_t value) {
  std::memcpy(bytes->data() + offset, &value, sizeof(value));
}

void PutF64(std::vector<uint8_t>* bytes, size_t offset, double value) {
  std::memcpy(bytes->data() + offset, &value, sizeof(value));
}

class QrsCorruptTest : public ::testing::Test {
 protected:
  void SetUp() override {
    bytes_ = ValidBytes();
    ASSERT_FALSE(bytes_.empty());
    ASSERT_TRUE(ParseStatus(bytes_).ok());
  }
  std::vector<uint8_t> bytes_;
};

TEST_F(QrsCorruptTest, EveryTruncationFailsCleanly) {
  for (size_t n = 0; n < bytes_.size(); ++n) {
    std::vector<uint8_t> cut(bytes_.begin(), bytes_.begin() + n);
    EXPECT_FALSE(ParseRuleSet(cut.data(), cut.size()).ok())
        << "truncation to " << n << " bytes parsed";
  }
}

TEST_F(QrsCorruptTest, BadMagicRejected) {
  bytes_[0] = 'X';
  EXPECT_FALSE(ParseStatus(bytes_).ok());
}

TEST_F(QrsCorruptTest, BadEndMagicRejected) {
  bytes_[bytes_.size() - 1] = 'X';
  EXPECT_FALSE(ParseStatus(bytes_).ok());
}

TEST_F(QrsCorruptTest, WrongEndianMarkerRejected) {
  PutU32(&bytes_, 4, 0x0D0C0B0A);
  EXPECT_FALSE(ParseStatus(bytes_).ok());
}

TEST_F(QrsCorruptTest, FutureVersionRejected) {
  PutU32(&bytes_, 8, kQrsVersion + 1);
  EXPECT_FALSE(ParseStatus(bytes_).ok());
}

TEST_F(QrsCorruptTest, LyingPayloadSizeRejected) {
  // Both too small and absurdly large (an allocation bomb if trusted).
  PutU64(&bytes_, 16, 1);
  EXPECT_FALSE(ParseStatus(bytes_).ok());
  PutU64(&bytes_, 16, uint64_t{1} << 60);
  EXPECT_FALSE(ParseStatus(bytes_).ok());
}

TEST_F(QrsCorruptTest, FlippedPayloadByteFailsCrc) {
  // Flip one payload byte and keep everything else intact: only the CRC
  // can catch it.
  bytes_[kQrsHeaderSize + 40] ^= 0x01;
  const Status status = ParseStatus(bytes_);
  ASSERT_FALSE(status.ok());
}

TEST_F(QrsCorruptTest, FlippedCrcRejected) {
  bytes_[bytes_.size() - kQrsTailSize] ^= 0xFF;
  EXPECT_FALSE(ParseStatus(bytes_).ok());
}

// Locates the payload offset of num_rules: 3 doubles, u64 metadata_size,
// metadata bytes.
size_t NumRulesOffset(const std::vector<uint8_t>& bytes) {
  uint64_t metadata_size = 0;
  std::memcpy(&metadata_size, bytes.data() + kQrsHeaderSize + 24, 8);
  return kQrsHeaderSize + 24 + 8 + static_cast<size_t>(metadata_size);
}

// Recomputes the tail CRC so a mutation is seen by the payload parser
// instead of being caught by the checksum.
void FixCrc(std::vector<uint8_t>* bytes) {
  const size_t payload_size = bytes->size() - kQrsHeaderSize - kQrsTailSize;
  PutU32(bytes, bytes->size() - kQrsTailSize,
         Crc32(bytes->data() + kQrsHeaderSize, payload_size));
}

TEST_F(QrsCorruptTest, RuleCountBombRejected) {
  // A huge num_rules with a correct CRC: the division-form bound must
  // reject it before any allocation happens.
  PutU64(&bytes_, NumRulesOffset(bytes_), uint64_t{1} << 56);
  FixCrc(&bytes_);
  EXPECT_FALSE(ParseStatus(bytes_).ok());
}

TEST_F(QrsCorruptTest, MetadataSizeBombRejected) {
  PutU64(&bytes_, kQrsHeaderSize + 24, uint64_t{1} << 56);
  FixCrc(&bytes_);
  EXPECT_FALSE(ParseStatus(bytes_).ok());
}

TEST_F(QrsCorruptTest, NonFiniteMinsupRejected) {
  PutF64(&bytes_, kQrsHeaderSize, std::numeric_limits<double>::infinity());
  FixCrc(&bytes_);
  EXPECT_FALSE(ParseStatus(bytes_).ok());
}

TEST_F(QrsCorruptTest, TrailingGarbageRejected) {
  bytes_.insert(bytes_.end() - kQrsTailSize, 4, 0);
  EXPECT_FALSE(ParseStatus(bytes_).ok());
}

TEST(QrsSemanticTest, OutOfDomainEndpointRejected) {
  StoredRuleSet set = servetest::MakeRuleSet();
  set.rules[0].antecedent[0].hi = 99;  // married has domain size 2
  const std::string path = ::testing::TempDir() + "/semantic1.qrs";
  // The writer doesn't validate domains (it has no reason to trust them
  // either) — the reader must.
  ASSERT_TRUE(WriteRuleSet(set, path).ok());
  EXPECT_FALSE(ReadRuleSet(path).ok());
  std::remove(path.c_str());
}

// Each label names one category, so /match can look a value up by text.
TEST(QrsSemanticTest, RepeatedCategoricalLabelRejected) {
  StoredRuleSet set = servetest::MakeRuleSet();
  set.attributes[0].labels = {"no", "no"};
  const std::string path = ::testing::TempDir() + "/semantic_labels_" +
                           std::to_string(::getpid()) + ".qrs";
  ASSERT_TRUE(WriteRuleSet(set, path).ok());
  auto read = ReadRuleSet(path);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(read.status().message().find(
                "categorical attribute 'married' repeats label 'no'"),
            std::string::npos)
      << read.status().ToString();
  std::remove(path.c_str());
}

TEST(QrsSemanticTest, OverlappingSidesRejected) {
  StoredRuleSet set = servetest::MakeRuleSet();
  set.rules[0].consequent[0].attr = set.rules[0].antecedent[0].attr;
  set.rules[0].consequent[0].lo = 0;
  set.rules[0].consequent[0].hi = 0;
  const std::string path = ::testing::TempDir() + "/semantic2.qrs";
  ASSERT_TRUE(WriteRuleSet(set, path).ok());
  EXPECT_FALSE(ReadRuleSet(path).ok());
  std::remove(path.c_str());
}

TEST(QrsSemanticTest, CountAboveNumRecordsRejected) {
  StoredRuleSet set = servetest::MakeRuleSet();
  set.rules[0].count = set.num_records + 1;
  const std::string path = ::testing::TempDir() + "/semantic3.qrs";
  ASSERT_TRUE(WriteRuleSet(set, path).ok());
  EXPECT_FALSE(ReadRuleSet(path).ok());
  std::remove(path.c_str());
}

TEST(QrsSemanticTest, OutOfRangeConfidenceRejected) {
  StoredRuleSet set = servetest::MakeRuleSet();
  set.rules[0].confidence = 1.5;
  const std::string path = ::testing::TempDir() + "/semantic4.qrs";
  ASSERT_TRUE(WriteRuleSet(set, path).ok());
  EXPECT_FALSE(ReadRuleSet(path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace qarm
