#include "storage/record_source.h"

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "partition/mapped_table.h"
#include "storage/fault_injection.h"
#include "storage/qbt_writer.h"
#include "testutil.h"

namespace qarm {
namespace {

MappedTable MakeSmallTable(size_t num_rows) {
  MappedTable table(
      {testutil::QuantAttr("x", 8), testutil::CatAttr("c", {"a", "b", "c"})},
      num_rows);
  for (size_t r = 0; r < num_rows; ++r) {
    table.set_value(r, 0, static_cast<int32_t>(r % 8));
    table.set_value(r, 1, static_cast<int32_t>(r % 3));
  }
  return table;
}

TEST(PickBlockRowsTest, CapsAtMaxBlockRows) {
  EXPECT_EQ(PickBlockRows(1000000, 1, 65536), 65536u);
  EXPECT_EQ(PickBlockRows(1000000, 4, 65536), 65536u);
}

// Small tables must split into >= num_threads blocks so every worker gets
// one — the parallel-counting invariant threads_used == num_threads.
TEST(PickBlockRowsTest, SmallTablesKeepFullParallelism) {
  EXPECT_EQ(PickBlockRows(1200, 4, 65536), 300u);
  EXPECT_EQ(PickBlockRows(1200, 8, 65536), 150u);
  EXPECT_EQ(PickBlockRows(7, 4, 65536), 2u);  // 4 blocks: 2+2+2+1
}

TEST(PickBlockRowsTest, DegenerateInputs) {
  EXPECT_EQ(PickBlockRows(1000, 0, 65536), 1000u);  // 0 threads = serial
  EXPECT_EQ(PickBlockRows(0, 4, 65536), 1u);        // never zero rows
  EXPECT_EQ(PickBlockRows(1000, 4, 0), 1u);
  EXPECT_EQ(PickBlockRows(3, 8, 65536), 1u);  // more threads than rows
}

TEST(MappedTableSourceTest, BlocksCoverTableExactly) {
  MappedTable table = MakeSmallTable(103);
  MappedTableSource source(table, /*rows_per_block=*/16);
  EXPECT_EQ(source.num_rows(), 103u);
  EXPECT_EQ(source.num_blocks(), 7u);
  EXPECT_EQ(source.num_attributes(), 2u);
  EXPECT_EQ(source.attribute(0).name, "x");

  BlockView view;
  size_t rows_seen = 0;
  for (size_t b = 0; b < source.num_blocks(); ++b) {
    ASSERT_TRUE(source.ReadBlock(b, &view).ok());
    EXPECT_EQ(view.row_begin(), b * 16);
    EXPECT_EQ(view.num_rows(), source.block_rows(b));
    for (size_t r = 0; r < view.num_rows(); ++r) {
      for (size_t a = 0; a < 2; ++a) {
        ASSERT_EQ(view.value(r, a), table.value(view.row_begin() + r, a));
      }
    }
    rows_seen += view.num_rows();
  }
  EXPECT_EQ(rows_seen, 103u);
  EXPECT_EQ(source.block_rows(6), 7u);  // ragged tail
}

TEST(MappedTableSourceTest, ViewsAreZeroCopyColumns) {
  MappedTable table = MakeSmallTable(32);
  MappedTableSource source(table, /*rows_per_block=*/8);
  BlockView view;
  ASSERT_TRUE(source.ReadBlock(1, &view).ok());
  // Each column of block 1 points straight into the table's column at the
  // block's first row.
  EXPECT_EQ(view.column(0), table.column(0) + 8);
  EXPECT_EQ(view.column(1), table.column(1) + 8);
}

TEST(MappedTableSourceTest, IoStatsStayZero) {
  MappedTable table = MakeSmallTable(64);
  MappedTableSource source(table, /*rows_per_block=*/16);
  BlockView view;
  for (size_t b = 0; b < source.num_blocks(); ++b) {
    ASSERT_TRUE(source.ReadBlock(b, &view).ok());
  }
  EXPECT_EQ(source.io_stats().blocks_read, 0u);
  EXPECT_EQ(source.io_stats().bytes_read, 0u);
}

TEST(QbtFileSourceTest, CountsEveryBlockRead) {
  MappedTable table = MakeSmallTable(64);
  const std::string path = ::testing::TempDir() + "/record_source_io.qbt";
  QbtWriteOptions options;
  options.rows_per_block = 16;
  ASSERT_TRUE(WriteQbt(table, path, options).ok());

  auto source = QbtFileSource::Open(path);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  EXPECT_EQ((*source)->io_stats().blocks_read, 0u);

  BlockView view;
  ASSERT_TRUE((*source)->ReadBlock(0, &view).ok());

  const ScanIoStats after_one = (*source)->io_stats();
  EXPECT_EQ(after_one.blocks_read, 1u);
  EXPECT_EQ(after_one.bytes_read, 16u * 2u * sizeof(int32_t));

  // A second pass over all four blocks accumulates on top.
  for (size_t b = 0; b < (*source)->num_blocks(); ++b) {
    ASSERT_TRUE((*source)->ReadBlock(b, &view).ok());
  }
  const ScanIoStats total = (*source)->io_stats();
  EXPECT_EQ(total.blocks_read, 5u);
  EXPECT_EQ(total.bytes_read, 5u * 16u * 2u * sizeof(int32_t));

  // Pass accounting = after - before.
  const ScanIoStats delta = total - after_one;
  EXPECT_EQ(delta.blocks_read, 4u);
}

// A faulted read fails before it reaches the file, so the I/O counters
// hold the reads that succeeded and nothing for the ones that failed.
TEST(QbtFileSourceTest, FailedReadsAreNotCounted) {
  MappedTable table = MakeSmallTable(64);
  const std::string path = ::testing::TempDir() + "/record_source_faults.qbt";
  QbtWriteOptions options;
  options.rows_per_block = 16;
  ASSERT_TRUE(WriteQbt(table, path, options).ok());
  auto source = QbtFileSource::Open(path);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  FaultInjectionConfig config;
  config.rate = 1.0;  // every block, once one read has passed
  config.after = 1;
  const FaultInjectingRecordSource faulty(**source, config);

  BlockView view;
  size_t failed_reads = 0;
  for (size_t b = 0; b < faulty.num_blocks(); ++b) {
    const Status status = faulty.ReadBlock(b, &view);
    EXPECT_EQ(status.ok(), b == 0) << status.ToString();
    failed_reads += status.ok() ? 0 : 1;
  }
  EXPECT_EQ(failed_reads, faulty.num_blocks() - 1);
  EXPECT_EQ(faulty.io_stats().blocks_read, 1u);
  EXPECT_EQ(faulty.io_stats().bytes_read, 16u * 2u * sizeof(int32_t));
}

TEST(ScanIoStatsTest, Arithmetic) {
  ScanIoStats a{10, 1000, 0.5};
  ScanIoStats b{4, 400, 0.25};
  ScanIoStats d = a - b;
  EXPECT_EQ(d.blocks_read, 6u);
  EXPECT_EQ(d.bytes_read, 600u);
  EXPECT_EQ(d.checksum_seconds, 0.25);
  b += d;
  EXPECT_EQ(b.blocks_read, 10u);
  EXPECT_EQ(b.bytes_read, 1000u);
  EXPECT_EQ(b.checksum_seconds, 0.5);
}

}  // namespace
}  // namespace qarm
