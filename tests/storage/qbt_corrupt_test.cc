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
