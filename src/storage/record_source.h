// RecordSource — the block-stream view of a mapped table that the mining
// scans (the pass-1 value-count scan in ItemCatalog::Build and each
// support-counting pass) iterate over. Every block is columnar: one
// contiguous slice of values per attribute. Two implementations:
//
//   * MappedTableSource wraps an in-memory MappedTable: blocks are row
//     ranges of the resident column-major table, each column a slice of
//     the table's own column (zero-copy).
//   * QbtFileSource wraps an mmap'd QBT file: blocks are the file's
//     columnar blocks (zero-copy), validated against their CRC32 on every
//     read.
//
// Scans shard *blocks* — not a resident row range — across the thread
// pool, so a table larger than RAM streams through every pass with memory
// bounded by the blocks in flight plus the counters.
#ifndef QARM_STORAGE_RECORD_SOURCE_H_
#define QARM_STORAGE_RECORD_SOURCE_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "partition/mapped_table.h"
#include "storage/qbt_reader.h"
#include "storage/stats_fields.h"

namespace qarm {

// Cumulative I/O counters of a source. In-memory sources stay at zero;
// QbtFileSource counts every block validation. Scans snapshot the counters
// before and after a pass and report the difference.
struct ScanIoStats {
  uint64_t blocks_read = 0;
  uint64_t bytes_read = 0;         // bytes mapped & checksummed
  double checksum_seconds = 0.0;   // wall time spent validating CRCs

  // JSON, wire, += and - (storage/stats_fields.h).
  static void Fields(auto&& f, auto&... s) {
    f("blocks_read", s.blocks_read...);
    f("bytes_read", s.bytes_read...);
    f("checksum_seconds", s.checksum_seconds...);
  }
};

// One block of records. `value(r, a)` reads local row r (0-based within the
// block) of attribute a; `column(a)` is attribute a's num_rows() values, row
// 0 first. Views are cheap to reuse across ReadBlock calls (the
// column-pointer vector keeps its capacity).
class BlockView {
 public:
  size_t row_begin() const { return row_begin_; }
  size_t num_rows() const { return num_rows_; }

  int32_t value(size_t row, size_t attr) const { return columns_[attr][row]; }
  const int32_t* column(size_t attr) const { return columns_[attr]; }

 private:
  friend class MappedTableSource;
  friend class QbtFileSource;

  size_t row_begin_ = 0;
  size_t num_rows_ = 0;
  std::vector<const int32_t*> columns_;
};

// Abstract block-stream of mapped records plus the decode metadata.
class RecordSource {
 public:
  virtual ~RecordSource() = default;

  virtual const std::vector<MappedAttribute>& attributes() const = 0;
  virtual size_t num_rows() const = 0;
  virtual size_t num_blocks() const = 0;
  virtual size_t block_rows(size_t b) const = 0;
  virtual size_t block_row_begin(size_t b) const = 0;

  // Fills `view` with block `b`. Thread-safe: concurrent calls on distinct
  // caller-owned views are allowed (scans hand one view per worker).
  virtual Status ReadBlock(size_t b, BlockView* view) const = 0;

  // Cumulative I/O counters (zero for in-memory sources).
  virtual ScanIoStats io_stats() const { return ScanIoStats{}; }

  size_t num_attributes() const { return attributes().size(); }
  const MappedAttribute& attribute(size_t a) const { return attributes()[a]; }

  // Largest block_rows(b) over all blocks. Sizes per-worker kernel scratch
  // (row masks, flat cell indices) once per scan.
  size_t max_block_rows() const {
    size_t rows = 0;
    for (size_t b = 0; b < num_blocks(); ++b) {
      rows = std::max(rows, block_rows(b));
    }
    return rows;
  }
};

// Rows per block for scanning an in-memory table: at most `max_block_rows`,
// but small enough that each of `num_threads` workers gets at least one
// block (so small tables keep their full scan parallelism).
size_t PickBlockRows(size_t num_rows, size_t num_threads,
                     size_t max_block_rows);

// Zero-copy blocks over a resident MappedTable. The table must outlive the
// source.
class MappedTableSource : public RecordSource {
 public:
  explicit MappedTableSource(const MappedTable& table,
                             size_t rows_per_block = 65536);

  const std::vector<MappedAttribute>& attributes() const override {
    return table_.attributes();
  }
  size_t num_rows() const override { return table_.num_rows(); }
  size_t num_blocks() const override { return num_blocks_; }
  size_t block_rows(size_t b) const override;
  size_t block_row_begin(size_t b) const override {
    return b * rows_per_block_;
  }
  Status ReadBlock(size_t b, BlockView* view) const override;

 private:
  const MappedTable& table_;
  size_t rows_per_block_;
  size_t num_blocks_;
};

// Streaming blocks over an mmap'd QBT file, with per-read CRC validation.
// A CRC mismatch is returned at once: the mapped bytes of a written block
// never change (appends only add blocks), so a retry would fail again.
class QbtFileSource : public RecordSource {
 public:
  static Result<std::unique_ptr<QbtFileSource>> Open(const std::string& path);

  const std::vector<MappedAttribute>& attributes() const override {
    return reader_->attributes();
  }
  size_t num_rows() const override {
    return static_cast<size_t>(reader_->num_rows());
  }
  size_t num_blocks() const override { return reader_->num_blocks(); }
  size_t block_rows(size_t b) const override { return reader_->block_rows(b); }
  size_t block_row_begin(size_t b) const override {
    return static_cast<size_t>(reader_->block_row_begin(b));
  }
  Status ReadBlock(size_t b, BlockView* view) const override;
  ScanIoStats io_stats() const override;

  const QbtReader& reader() const { return *reader_; }

 private:
  explicit QbtFileSource(std::unique_ptr<QbtReader> reader)
      : reader_(std::move(reader)) {}

  std::unique_ptr<QbtReader> reader_;
  // Relaxed: the counters are statistics, not synchronization; scans read
  // them only before and after a pass (pool joins order those reads).
  mutable std::atomic<uint64_t> blocks_read_{0};
  mutable std::atomic<uint64_t> bytes_read_{0};
  mutable std::atomic<uint64_t> checksum_nanos_{0};
};

// A contiguous sub-range of another source's blocks, presented as a
// standalone source. Distributed workers scan their shard through one of
// these: block b here is block `block_begin + b` of the inner source, so
// any fault-injection schedule keyed by block index (and any I/O counters)
// sees the same global block ids as a single-process scan. Row positions
// reported by ReadBlock stay global too — counting never interprets them
// as indexes into this source. The inner source must outlive the range.
class BlockRangeSource : public RecordSource {
 public:
  BlockRangeSource(const RecordSource& inner, size_t block_begin,
                   size_t block_end);

  const std::vector<MappedAttribute>& attributes() const override {
    return inner_.attributes();
  }
  size_t num_rows() const override { return num_rows_; }
  size_t num_blocks() const override { return block_end_ - block_begin_; }
  size_t block_rows(size_t b) const override {
    return inner_.block_rows(block_begin_ + b);
  }
  size_t block_row_begin(size_t b) const override {
    return inner_.block_row_begin(block_begin_ + b);
  }
  Status ReadBlock(size_t b, BlockView* view) const override {
    return inner_.ReadBlock(block_begin_ + b, view);
  }
  ScanIoStats io_stats() const override { return inner_.io_stats(); }

 private:
  const RecordSource& inner_;
  size_t block_begin_;
  size_t block_end_;
  size_t num_rows_;
};

}  // namespace qarm

#endif  // QARM_STORAGE_RECORD_SOURCE_H_
