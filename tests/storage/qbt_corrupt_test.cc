// Adversarial QBT headers: every size the file *declares* (row counts,
// attribute counts, string lengths) must be bounded against the bytes the
// file actually *has* before anything is allocated or read. Each test
// patches one declared size in an otherwise-valid file and expects a clean
// non-OK Status from Open — never an abort, OOM, or out-of-bounds read.
#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "partition/mapped_table.h"
#include "storage/attr_metadata.h"
#include "storage/qbt_reader.h"
#include "storage/qbt_writer.h"
#include "storage/record_source.h"
#include "storage/rules_format.h"
#include "testutil.h"

namespace qarm {
namespace {

// Header layout (see qbt_format.h): rows_per_block u32 @12, num_rows
// u64 @16, num_attributes u32 @24, metadata_size u64 @32; attribute
// metadata (first field: name length u32) starts at 40.
constexpr size_t kNumRowsOffset = 16;
constexpr size_t kNumAttrsOffset = 24;
constexpr size_t kFirstNameLenOffset = 40;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string WriteValidFile(const std::string& name) {
  MappedAttribute income;
  income.name = "income";
  income.kind = AttributeKind::kQuantitative;
  income.source_type = ValueType::kInt64;
  income.partitioned = true;
  income.intervals = {{0, 999}, {1000, 4999}};
  MappedAttribute married = testutil::CatAttr("married", {"no", "yes"});

  MappedTable table({income, married}, 48);
  for (size_t r = 0; r < 48; ++r) {
    table.set_value(r, 0, static_cast<int32_t>(r % 2));
    table.set_value(r, 1, static_cast<int32_t>(r % 2));
  }
  const std::string path = TempPath(name);
  QbtWriteOptions options;
  options.rows_per_block = 16;
  EXPECT_TRUE(WriteQbt(table, path, options).ok());
  return path;
}

// Overwrites `size` bytes at `offset` with the little-endian value.
void PatchLe(const std::string& path, size_t offset, uint64_t value,
             size_t size) {
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(file.good());
  char bytes[8];
  for (size_t i = 0; i < size; ++i) {
    bytes[i] = static_cast<char>((value >> (8 * i)) & 0xFF);
  }
  file.seekp(static_cast<std::streamoff>(offset));
  file.write(bytes, static_cast<std::streamsize>(size));
  ASSERT_TRUE(file.good());
}

TEST(QbtCorruptHeaderTest, HugeAttributeCountIsRejected) {
  const std::string path = WriteValidFile("bomb_attrs.qbt");
  PatchLe(path, kNumAttrsOffset, 0xFFFFFFFFu, 4);
  auto source = QbtFileSource::Open(path);
  ASSERT_FALSE(source.ok());
  EXPECT_NE(source.status().message().find("attribute"), std::string::npos)
      << source.status().ToString();
}

TEST(QbtCorruptHeaderTest, HugeRowCountIsRejected) {
  // num_rows feeds num_blocks feeds footer_size; a 2^63-ish value used to
  // overflow that arithmetic into a small allocation plus a wild read.
  const std::string path = WriteValidFile("bomb_rows.qbt");
  PatchLe(path, kNumRowsOffset, (uint64_t{1} << 63) + 12345, 8);
  EXPECT_FALSE(QbtFileSource::Open(path).ok());
}

TEST(QbtCorruptHeaderTest, HugeNameLengthIsRejected) {
  const std::string path = WriteValidFile("bomb_name.qbt");
  PatchLe(path, kFirstNameLenOffset, 0xFFFFFFF0u, 4);
  EXPECT_FALSE(QbtFileSource::Open(path).ok());
}

TEST(QbtCorruptHeaderTest, TruncatedMetadataIsRejected) {
  const std::string path = WriteValidFile("trunc_meta.qbt");
  std::ifstream in(path, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), 60u);
  const std::string cut = TempPath("trunc_meta_cut.qbt");
  {
    std::ofstream out(cut, std::ios::binary);
    out.write(bytes.data(), 60);  // header + a sliver of metadata
  }
  EXPECT_FALSE(QbtFileSource::Open(cut).ok());
}

TEST(QbtCorruptHeaderTest, ZeroRowsPerBlockWithRowsIsRejected) {
  const std::string path = WriteValidFile("zero_block.qbt");
  PatchLe(path, 12, 0, 4);  // rows_per_block = 0 while num_rows = 48
  EXPECT_FALSE(QbtFileSource::Open(path).ok());
}

// Each label names one category, so a file whose categorical attribute
// repeats a label is malformed: readers map label -> id one to one.
TEST(QbtCorruptHeaderTest, RepeatedCategoricalLabelIsRejected) {
  MappedAttribute married = testutil::CatAttr("married", {"no", "yes", "no"});
  MappedTable table({married}, 3);
  for (size_t r = 0; r < 3; ++r) {
    table.set_value(r, 0, static_cast<int32_t>(r));
  }
  const std::string path = TempPath("repeated_label.qbt");
  ASSERT_TRUE(WriteQbt(table, path).ok());
  auto source = QbtFileSource::Open(path);
  ASSERT_FALSE(source.ok());
  EXPECT_EQ(source.status().message(),
            "'" + path + "' is not a valid QBT file: attribute 0: "
            "categorical attribute 'married' repeats label 'no'");

  const std::string bytes = EncodeAttributeMetadata({married});
  auto decoded = DecodeAttributeMetadata(
      reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size(), 1);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

// One status rule for every file format: a malformed structure is
// InvalidArgument, damaged bytes (a CRC mismatch) are IOError. The same
// repeated-label defect gives the same code in a QBT and a QRS file.
TEST(QbtCorruptHeaderTest, MalformedIsInvalidArgumentAndDamagedIsIoError) {
  const std::string corpus = QARM_FUZZ_CORPUS_DIR;
  auto qbt = QbtReader::Open(corpus + "/qbt_reader/repeated_label");
  ASSERT_FALSE(qbt.ok());
  EXPECT_EQ(qbt.status().code(), StatusCode::kInvalidArgument)
      << qbt.status().ToString();
  auto qrs = ReadRuleSet(corpus + "/qrs/repeated_label");
  ASSERT_FALSE(qrs.ok());
  EXPECT_EQ(qrs.status().code(), StatusCode::kInvalidArgument)
      << qrs.status().ToString();

  // A flipped byte in a block fails that block's CRC when it is read.
  const std::string path = WriteValidFile("flipped_block.qbt");
  uint64_t block_offset = 0;
  uint32_t block_crc = 0;
  uint64_t index_offset = 0;  // of block 1's index entry
  {
    auto reader = QbtReader::Open(path);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    ASSERT_EQ((*reader)->num_blocks(), 3u);
    block_offset = (*reader)->block_offset(1);
    block_crc = (*reader)->block_crc(1);
    index_offset = (*reader)->file_size() - kQbtTailSize -
                   2 * kQbtBlockIndexEntrySize;
  }
  PatchLe(path, block_offset, 0x7F, 1);
  {
    auto reader = QbtReader::Open(path);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    std::vector<const int32_t*> columns;
    const Status read = (*reader)->ReadBlockColumns(1, &columns);
    ASSERT_FALSE(read.ok());
    EXPECT_EQ(read.code(), StatusCode::kIOError) << read.ToString();
  }
  // The scan source fails that read too: nothing below the miner retries
  // a block read.
  {
    auto source = QbtFileSource::Open(path);
    ASSERT_TRUE(source.ok()) << source.status().ToString();
    BlockView view;
    const Status read = (*source)->ReadBlock(1, &view);
    ASSERT_FALSE(read.ok());
    EXPECT_EQ(read.code(), StatusCode::kIOError) << read.ToString();
  }

  // A flipped block CRC in the index fails the index checksum at open.
  PatchLe(path, index_offset + 12, block_crc ^ 1, 4);
  auto reopened = QbtReader::Open(path);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kIOError)
      << reopened.status().ToString();
}

// Files written before categorical attributes were strings may carry an
// int64 or double source type; distinct labels still decode.
TEST(QbtCorruptHeaderTest, TypedCategoricalWithDistinctLabelsDecodes) {
  MappedAttribute code = testutil::CatAttr("code", {"0", "1e-07", "1.5"});
  code.source_type = ValueType::kDouble;
  const std::string bytes = EncodeAttributeMetadata({code});
  auto decoded = DecodeAttributeMetadata(
      reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size(), 1);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ((*decoded)[0].source_type, ValueType::kDouble);
  EXPECT_EQ((*decoded)[0].labels, code.labels);
}

}  // namespace
}  // namespace qarm
