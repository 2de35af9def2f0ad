// AppendQbt: new rows land as additional blocks behind a rewritten footer
// and tail, never touching committed bytes; the header row count is the
// commit point. Covers value/metadata roundtrips across appends, short
// blocks mid-file, the stable index-prefix CRC incremental mining keys on,
// metadata-mismatch rejection, and crash recovery at every torn-append
// prefix length.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

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

// Same attribute layout for every table so appends encode byte-identical
// metadata; `salt` shifts the values so base and delta rows are
// distinguishable.
MappedTable MakeTable(size_t num_rows, int32_t salt) {
  MappedAttribute income;
  income.name = "income";
  income.kind = AttributeKind::kQuantitative;
  income.source_type = ValueType::kInt64;
  income.partitioned = true;
  income.intervals = {{0, 999}, {1000, 4999}, {5000, 9999}};

  MappedAttribute married = testutil::CatAttr("married", {"no", "yes"});

  MappedTable table({income, married}, num_rows);
  for (size_t r = 0; r < num_rows; ++r) {
    table.set_value(r, 0, static_cast<int32_t>((r + salt) % 3));
    table.set_value(r, 1, r % 5 == 0 ? kMissingValue
                                     : static_cast<int32_t>((r + salt) % 2));
  }
  return table;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  EXPECT_TRUE(out.good()) << path;
}

// The file's rows must read back as base followed by the deltas, in order.
void ExpectConcatenatedValues(const std::vector<const MappedTable*>& parts,
                              const RecordSource& source) {
  uint64_t total_rows = 0;
  for (const MappedTable* part : parts) total_rows += part->num_rows();
  ASSERT_EQ(source.num_rows(), total_rows);
  BlockView view;
  size_t part_index = 0;
  uint64_t part_begin = 0;
  for (size_t b = 0; b < source.num_blocks(); ++b) {
    ASSERT_TRUE(source.ReadBlock(b, &view).ok());
    for (size_t r = 0; r < view.num_rows(); ++r) {
      const uint64_t row = view.row_begin() + r;
      while (row - part_begin >= parts[part_index]->num_rows()) {
        part_begin += parts[part_index]->num_rows();
        ++part_index;
        ASSERT_LT(part_index, parts.size());
      }
      const MappedTable& part = *parts[part_index];
      for (size_t a = 0; a < part.num_attributes(); ++a) {
        ASSERT_EQ(view.value(r, a), part.value(row - part_begin, a))
            << "row " << row << " attr " << a;
      }
    }
  }
}

TEST(QbtAppendTest, AppendRoundtripWithShortBlockMidFile) {
  const std::string path = TempPath("append_roundtrip.qbt");
  // 103 = 6*16 + 7: the base file ends in a short block, which stays
  // mid-file after the append (appends never repack committed blocks).
  MappedTable base = MakeTable(103, 0);
  QbtWriteOptions options;
  options.rows_per_block = 16;
  ASSERT_TRUE(WriteQbt(base, path, options).ok());

  MappedTable delta = MakeTable(37, 1);
  QbtAppendInfo info;
  ASSERT_TRUE(AppendQbt(delta, path, &info).ok());
  EXPECT_EQ(info.rows_appended, 37u);
  EXPECT_EQ(info.total_rows, 140u);
  EXPECT_EQ(info.total_blocks, 7u + info.blocks_appended);

  auto source = QbtFileSource::Open(path);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  EXPECT_EQ((*source)->num_blocks(), info.total_blocks);
  // The short base tail block is intact mid-file; the delta starts fresh.
  EXPECT_EQ((*source)->block_rows(6), 7u);
  EXPECT_EQ((*source)->block_row_begin(7), 103u);
  ExpectConcatenatedValues({&base, &delta}, **source);
}

TEST(QbtAppendTest, RepeatedAppendsAccumulate) {
  const std::string path = TempPath("append_repeat.qbt");
  MappedTable base = MakeTable(64, 0);
  QbtWriteOptions options;
  options.rows_per_block = 16;
  ASSERT_TRUE(WriteQbt(base, path, options).ok());
  MappedTable delta1 = MakeTable(10, 1);
  MappedTable delta2 = MakeTable(25, 2);
  ASSERT_TRUE(AppendQbt(delta1, path).ok());
  ASSERT_TRUE(AppendQbt(delta2, path).ok());

  auto source = QbtFileSource::Open(path);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  EXPECT_EQ((*source)->num_rows(), 99u);
  ExpectConcatenatedValues({&base, &delta1, &delta2}, **source);
}

// The first-N index entries re-encode verbatim in every post-append
// footer, so the prefix CRC the incremental miner stamps into checkpoints
// is stable across any number of later appends.
TEST(QbtAppendTest, IndexPrefixCrcStableAcrossAppends) {
  const std::string path = TempPath("append_prefix_crc.qbt");
  ASSERT_TRUE(WriteQbt(MakeTable(80, 0), path,
                       {/*rows_per_block=*/16})
                  .ok());
  auto before = QbtFileSource::Open(path);
  ASSERT_TRUE(before.ok());
  const size_t base_blocks = (*before)->num_blocks();
  const uint32_t base_crc = (*before)->reader().IndexPrefixCrc(base_blocks);
  before->reset();

  MappedTable delta = MakeTable(40, 3);
  ASSERT_TRUE(AppendQbt(delta, path).ok());
  auto after = QbtFileSource::Open(path);
  ASSERT_TRUE(after.ok());
  ASSERT_GT((*after)->num_blocks(), base_blocks);
  EXPECT_EQ((*after)->reader().IndexPrefixCrc(base_blocks), base_crc);
  // And the full-prefix CRC of the grown file differs (the index grew).
  EXPECT_NE((*after)->reader().IndexPrefixCrc((*after)->num_blocks()),
            base_crc);
}

TEST(QbtAppendTest, MetadataMismatchIsRejected) {
  const std::string path = TempPath("append_mismatch.qbt");
  ASSERT_TRUE(WriteQbt(MakeTable(32, 0), path).ok());

  // Same attribute names, different decode metadata: an extra label.
  MappedAttribute income;
  income.name = "income";
  income.kind = AttributeKind::kQuantitative;
  income.source_type = ValueType::kInt64;
  income.partitioned = true;
  income.intervals = {{0, 999}, {1000, 4999}, {5000, 9999}};
  MappedAttribute married =
      testutil::CatAttr("married", {"no", "yes", "separated"});
  MappedTable delta({income, married}, 4);
  for (size_t r = 0; r < 4; ++r) {
    delta.set_value(r, 0, 0);
    delta.set_value(r, 1, 0);
  }
  const Status status = AppendQbt(delta, path);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("metadata"), std::string::npos)
      << status.ToString();

  // The rejected append left the file untouched and readable.
  auto source = QbtFileSource::Open(path);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  EXPECT_EQ((*source)->num_rows(), 32u);
}

// Chop a mid-append crash at every suffix length: the committed prefix
// plus any torn tail must recover back to exactly the committed bytes.
TEST(QbtAppendTest, RecoveryTruncatesEveryTornAppendPrefix) {
  const std::string committed_path = TempPath("append_committed.qbt");
  MappedTable base = MakeTable(48, 0);
  ASSERT_TRUE(WriteQbt(base, committed_path, {/*rows_per_block=*/16}).ok());
  const std::string committed = ReadFileBytes(committed_path);

  MappedTable delta = MakeTable(20, 4);
  ASSERT_TRUE(AppendQbt(delta, committed_path).ok());
  const std::string grown = ReadFileBytes(committed_path);
  ASSERT_GT(grown.size(), committed.size());
  // The append never rewrote committed bytes past the header block.
  EXPECT_EQ(grown.compare(kQbtHeaderSize, committed.size() - kQbtHeaderSize,
                          committed, kQbtHeaderSize,
                          committed.size() - kQbtHeaderSize),
            0);

  const std::string torn_path = TempPath("append_torn.qbt");
  // Every torn length strictly between committed and fully-grown: the
  // header still says 48 rows (the commit is the last step), so recovery
  // must find the old tail and truncate back to it.
  const size_t step =
      std::max<size_t>(1, (grown.size() - committed.size()) / 13);
  for (size_t size = committed.size(); size < grown.size(); size += step) {
    std::string torn = grown.substr(0, size);
    // Un-commit the header: restore the original row count bytes.
    torn.replace(0, kQbtHeaderSize, committed, 0, kQbtHeaderSize);
    WriteFileBytes(torn_path, torn);

    bool recovered = false;
    const Status status = RecoverQbt(torn_path, &recovered);
    ASSERT_TRUE(status.ok()) << "torn size " << size << ": "
                             << status.ToString();
    EXPECT_EQ(ReadFileBytes(torn_path), committed) << "torn size " << size;

    auto source = QbtFileSource::Open(torn_path);
    ASSERT_TRUE(source.ok()) << source.status().ToString();
    EXPECT_EQ((*source)->num_rows(), 48u);
    ExpectConcatenatedValues({&base}, **source);
  }

  // The fully committed grown file needs no recovery and keeps every row.
  WriteFileBytes(torn_path, grown);
  bool recovered = true;
  ASSERT_TRUE(RecoverQbt(torn_path, &recovered).ok());
  EXPECT_FALSE(recovered);
  auto source = QbtFileSource::Open(torn_path);
  ASSERT_TRUE(source.ok());
  ExpectConcatenatedValues({&base, &delta}, **source);
}

// A torn file whose newest tail checksums but whose index the reader
// rejects (the last block's offset is 2 bytes off alignment) has no
// committed state: recovery fails and must not cut a single byte.
TEST(QbtAppendTest, FailedRecoveryLeavesTheFileUntouched) {
  const std::string path = TempPath("append_failed_recovery.qbt");
  ASSERT_TRUE(WriteQbt(MakeTable(48, 0), path, {/*rows_per_block=*/16}).ok());
  std::string bytes = ReadFileBytes(path);
  const size_t tail = bytes.size() - kQbtTailSize;
  const uint64_t footer_offset =
      QbtReadU64(reinterpret_cast<const uint8_t*>(bytes.data() + tail));
  const size_t num_entries =
      (tail - footer_offset) / kQbtBlockIndexEntrySize;
  ASSERT_EQ(num_entries, 3u);
  std::string entry;
  const size_t last = footer_offset + 2 * kQbtBlockIndexEntrySize;
  QbtAppendU64(&entry, QbtReadU64(reinterpret_cast<const uint8_t*>(
                           bytes.data() + last)) - 2);
  bytes.replace(last, entry.size(), entry);
  std::string crc;
  QbtAppendU32(&crc, Crc32(bytes.data() + footer_offset, tail - footer_offset));
  bytes.replace(tail + 8, crc.size(), crc);
  bytes += std::string(10, '\x5a');
  WriteFileBytes(path, bytes);

  bool recovered = true;
  const Status status = RecoverQbt(path, &recovered);
  EXPECT_FALSE(status.ok());
  EXPECT_FALSE(recovered);
  const std::string after = ReadFileBytes(path);
  EXPECT_EQ(after.size(), bytes.size());
  EXPECT_TRUE(after == bytes) << "recovery rewrote bytes it did not cut";
  // Without the garbage the reader names the defect.
  const std::string clean_path = TempPath("append_failed_recovery_clean.qbt");
  WriteFileBytes(clean_path, bytes.substr(0, bytes.size() - 10));
  auto reader = QbtReader::Open(clean_path);
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.status().ToString().find("block 2 index entry out of bounds"),
            std::string::npos)
      << reader.status().ToString();
}

// An append onto a torn file recovers it first, then appends cleanly.
TEST(QbtAppendTest, AppendRecoversTornFileFirst) {
  const std::string path = TempPath("append_self_heal.qbt");
  MappedTable base = MakeTable(48, 0);
  ASSERT_TRUE(WriteQbt(base, path, {/*rows_per_block=*/16}).ok());
  const std::string committed = ReadFileBytes(path);

  // Torn: committed bytes plus half-written garbage, header unchanged.
  WriteFileBytes(path, committed + std::string(100, '\x5a'));
  MappedTable delta = MakeTable(12, 5);
  ASSERT_TRUE(AppendQbt(delta, path).ok());

  auto source = QbtFileSource::Open(path);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  EXPECT_EQ((*source)->num_rows(), 60u);
  ExpectConcatenatedValues({&base, &delta}, **source);
}

}  // namespace
}  // namespace qarm
