#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/cpu_dispatch.h"
#include "partition/mapped_table.h"
#include "storage/crc32.h"
#include "storage/qbt_reader.h"
#include "storage/qbt_writer.h"
#include "storage/record_source.h"
#include "testutil.h"

namespace qarm {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// A table exercising every piece of decode metadata the format must carry:
// a partitioned quantitative attribute with real intervals, a categorical
// attribute under a taxonomy (ids in DFS order + interior ranges), a plain
// categorical attribute, and missing cells.
MappedTable MakeRichTable(size_t num_rows) {
  MappedAttribute income;
  income.name = "income";
  income.kind = AttributeKind::kQuantitative;
  income.source_type = ValueType::kInt64;
  income.partitioned = true;
  income.intervals = {{0, 999}, {1000, 4999}, {5000, 9999}, {10000, 20000}};

  MappedAttribute region;
  region.name = "region";
  region.kind = AttributeKind::kCategorical;
  region.source_type = ValueType::kString;
  region.labels = {"north", "south", "east", "west"};
  region.taxonomy_ranges = {{"anywhere", 0, 3}, {"vertical", 0, 1}};

  MappedAttribute married = testutil::CatAttr("married", {"no", "yes"});

  MappedTable table({income, region, married}, num_rows);
  for (size_t r = 0; r < num_rows; ++r) {
    table.set_value(r, 0, static_cast<int32_t>(r % 4));
    table.set_value(r, 1, r % 7 == 0 ? kMissingValue
                                     : static_cast<int32_t>((r / 3) % 4));
    table.set_value(r, 2, r % 5 == 0 ? kMissingValue
                                     : static_cast<int32_t>(r % 2));
  }
  return table;
}

void ExpectSameMetadata(const MappedTable& table,
                        const std::vector<MappedAttribute>& attrs) {
  ASSERT_EQ(attrs.size(), table.num_attributes());
  for (size_t a = 0; a < attrs.size(); ++a) {
    const MappedAttribute& expect = table.attribute(a);
    const MappedAttribute& got = attrs[a];
    EXPECT_EQ(got.name, expect.name);
    EXPECT_EQ(got.kind, expect.kind);
    EXPECT_EQ(got.source_type, expect.source_type);
    EXPECT_EQ(got.partitioned, expect.partitioned);
    EXPECT_EQ(got.labels, expect.labels);
    ASSERT_EQ(got.intervals.size(), expect.intervals.size());
    for (size_t i = 0; i < got.intervals.size(); ++i) {
      EXPECT_DOUBLE_EQ(got.intervals[i].lo, expect.intervals[i].lo);
      EXPECT_DOUBLE_EQ(got.intervals[i].hi, expect.intervals[i].hi);
    }
    ASSERT_EQ(got.taxonomy_ranges.size(), expect.taxonomy_ranges.size());
    for (size_t i = 0; i < got.taxonomy_ranges.size(); ++i) {
      EXPECT_EQ(got.taxonomy_ranges[i].name, expect.taxonomy_ranges[i].name);
      EXPECT_EQ(got.taxonomy_ranges[i].lo, expect.taxonomy_ranges[i].lo);
      EXPECT_EQ(got.taxonomy_ranges[i].hi, expect.taxonomy_ranges[i].hi);
    }
  }
}

void ExpectSameValues(const MappedTable& table, const RecordSource& source) {
  ASSERT_EQ(source.num_rows(), table.num_rows());
  BlockView view;
  size_t rows_seen = 0;
  for (size_t b = 0; b < source.num_blocks(); ++b) {
    Status s = source.ReadBlock(b, &view);
    ASSERT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ(view.row_begin(), source.block_row_begin(b));
    EXPECT_EQ(view.num_rows(), source.block_rows(b));
    for (size_t r = 0; r < view.num_rows(); ++r) {
      for (size_t a = 0; a < table.num_attributes(); ++a) {
        ASSERT_EQ(view.value(r, a), table.value(view.row_begin() + r, a))
            << "block " << b << " row " << r << " attr " << a;
      }
    }
    rows_seen += view.num_rows();
  }
  EXPECT_EQ(rows_seen, table.num_rows());
}

TEST(QbtRoundtripTest, SingleBlock) {
  MappedTable table = MakeRichTable(100);
  const std::string path = TempPath("roundtrip_single.qbt");
  QbtWriteInfo info;
  ASSERT_TRUE(WriteQbt(table, path, {}, &info).ok());
  EXPECT_EQ(info.num_rows, 100u);
  EXPECT_EQ(info.num_blocks, 1u);
  EXPECT_GT(info.file_bytes, 0u);

  auto source = QbtFileSource::Open(path);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  ExpectSameMetadata(table, (*source)->attributes());
  ExpectSameValues(table, **source);
}

TEST(QbtRoundtripTest, MultiBlockWithRaggedTail) {
  MappedTable table = MakeRichTable(103);  // 103 = 6*16 + 7: ragged last block
  const std::string path = TempPath("roundtrip_multi.qbt");
  QbtWriteOptions options;
  options.rows_per_block = 16;
  QbtWriteInfo info;
  ASSERT_TRUE(WriteQbt(table, path, options, &info).ok());
  EXPECT_EQ(info.num_blocks, 7u);

  auto source = QbtFileSource::Open(path);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  EXPECT_EQ((*source)->num_blocks(), 7u);
  EXPECT_EQ((*source)->block_rows(0), 16u);
  EXPECT_EQ((*source)->block_rows(6), 7u);
  EXPECT_EQ((*source)->block_row_begin(6), 96u);
  ExpectSameValues(table, **source);
}

// Pins the encoder's output bytes: any change to the header, metadata,
// block or footer encoding of this table changes the CRC or the size.
TEST(QbtRoundtripTest, EncoderBytesArePinned) {
  MappedTable table = MakeRichTable(103);
  const std::string path = TempPath("roundtrip_pinned.qbt");
  QbtWriteOptions options;
  options.rows_per_block = 16;
  ASSERT_TRUE(WriteQbt(table, path, options).ok());

  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes.size(), 1636u);
  EXPECT_EQ(Crc32(bytes.data(), bytes.size()), 0x8BF8F65Au);
}

TEST(QbtRoundtripTest, EmptyTable) {
  MappedTable table = MakeRichTable(0);
  const std::string path = TempPath("roundtrip_empty.qbt");
  QbtWriteInfo info;
  ASSERT_TRUE(WriteQbt(table, path, {}, &info).ok());
  EXPECT_EQ(info.num_rows, 0u);
  EXPECT_EQ(info.num_blocks, 0u);

  auto source = QbtFileSource::Open(path);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  EXPECT_EQ((*source)->num_rows(), 0u);
  EXPECT_EQ((*source)->num_blocks(), 0u);
  ExpectSameMetadata(table, (*source)->attributes());
}

// A flipped data byte must surface as a clean checksum Status from
// ReadBlock — never a crash or silently wrong values.
TEST(QbtRoundtripTest, CorruptedBlockFailsChecksum) {
  MappedTable table = MakeRichTable(64);
  const std::string path = TempPath("roundtrip_corrupt.qbt");
  QbtWriteOptions options;
  options.rows_per_block = 16;
  ASSERT_TRUE(WriteQbt(table, path, options).ok());

  uint64_t offset = 0;
  {
    auto reader = QbtReader::Open(path);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    offset = (*reader)->block_offset(2);
  }
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good());
    file.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    file.get(byte);
    byte ^= 0x40;
    file.seekp(static_cast<std::streamoff>(offset));
    file.put(byte);
  }

  // The index and the other blocks still validate...
  auto source = QbtFileSource::Open(path);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  BlockView view;
  EXPECT_TRUE((*source)->ReadBlock(0, &view).ok());
  EXPECT_TRUE((*source)->ReadBlock(3, &view).ok());

  // ...but the corrupted block reports the mismatch.
  Status bad = (*source)->ReadBlock(2, &view);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.message().find("checksum mismatch"), std::string::npos)
      << bad.ToString();
}

// A block whose size is not a multiple of 16 bytes (101 rows x 3
// attributes x 4 bytes = 1212) ends in a tail the CRC's fold leaves to the
// portable path. A flip in that tail and one in the fold's first 64 bytes
// must both fail the block, whichever CRC path the dispatch selects.
TEST(QbtRoundtripTest, FlipInBlockHeadOrTailFailsChecksumUnderEveryIsa) {
  MappedTable table = MakeRichTable(101);
  const std::string path = TempPath("roundtrip_tail_corrupt.qbt");
  ASSERT_TRUE(WriteQbt(table, path, {}).ok());

  uint64_t offset = 0;
  uint64_t block_bytes = 0;
  {
    auto reader = QbtReader::Open(path);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    ASSERT_EQ((*reader)->num_blocks(), 1u);
    offset = (*reader)->block_offset(0);
    block_bytes = (*reader)->block_bytes(0);
  }
  ASSERT_EQ(block_bytes, 1212u);
  ASSERT_NE(block_bytes % 16, 0u);

  auto flip_bit = [&](uint64_t at, char mask) {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good());
    file.seekg(static_cast<std::streamoff>(at));
    char byte = 0;
    file.get(byte);
    byte ^= mask;
    file.seekp(static_cast<std::streamoff>(at));
    file.put(byte);
  };

  for (SimdIsa isa : {SimdIsa::kScalar, DetectCpuIsa()}) {
    SCOPED_TRACE(IsaName(isa));
    SetIsaForTest(isa);
    // Byte 1200 is 12 bytes from the end, inside the last 15; byte 37 is
    // inside the first 64.
    for (uint64_t at : {block_bytes - 12, uint64_t{37}}) {
      SCOPED_TRACE("flipped byte " + std::to_string(at));
      flip_bit(offset + at, 0x10);
      auto source = QbtFileSource::Open(path);
      ASSERT_TRUE(source.ok()) << source.status().ToString();
      BlockView view;
      Status bad = (*source)->ReadBlock(0, &view);
      ASSERT_FALSE(bad.ok());
      EXPECT_NE(bad.message().find("checksum mismatch"), std::string::npos)
          << bad.ToString();
      flip_bit(offset + at, 0x10);
      source = QbtFileSource::Open(path);
      ASSERT_TRUE(source.ok()) << source.status().ToString();
      EXPECT_TRUE((*source)->ReadBlock(0, &view).ok());
    }
  }
  ClearIsaForTest();
}

TEST(QbtRoundtripTest, OpenRejectsGarbage) {
  // Missing file.
  EXPECT_FALSE(QbtFileSource::Open(TempPath("no_such_file.qbt")).ok());

  // Wrong magic.
  const std::string bad_magic = TempPath("bad_magic.qbt");
  {
    std::ofstream out(bad_magic, std::ios::binary);
    out << "NOPE this is not a QBT file, just enough bytes to read a header.";
  }
  auto r1 = QbtFileSource::Open(bad_magic);
  ASSERT_FALSE(r1.ok());
  EXPECT_NE(r1.status().message().find("not a valid QBT file"),
            std::string::npos)
      << r1.status().ToString();

  // Valid file cut short.
  MappedTable table = MakeRichTable(64);
  const std::string whole = TempPath("whole.qbt");
  ASSERT_TRUE(WriteQbt(table, whole).ok());
  std::ifstream in(whole, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  const std::string truncated = TempPath("truncated.qbt");
  {
    std::ofstream out(truncated, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  EXPECT_FALSE(QbtFileSource::Open(truncated).ok());
}

}  // namespace
}  // namespace qarm
