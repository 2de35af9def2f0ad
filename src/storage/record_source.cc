#include "storage/record_source.h"

#include <algorithm>
#include <chrono>

namespace qarm {

size_t PickBlockRows(size_t num_rows, size_t num_threads,
                     size_t max_block_rows) {
  const size_t threads = num_threads == 0 ? 1 : num_threads;
  const size_t per_thread = (num_rows + threads - 1) / threads;
  size_t rows = std::min(max_block_rows == 0 ? 1 : max_block_rows,
                         per_thread == 0 ? 1 : per_thread);
  return rows == 0 ? 1 : rows;
}

MappedTableSource::MappedTableSource(const MappedTable& table,
                                     size_t rows_per_block)
    : table_(table),
      rows_per_block_(rows_per_block == 0 ? 1 : rows_per_block) {
  num_blocks_ = table_.num_rows() == 0
                    ? 0
                    : (table_.num_rows() + rows_per_block_ - 1) /
                          rows_per_block_;
}

size_t MappedTableSource::block_rows(size_t b) const {
  const size_t begin = b * rows_per_block_;
  return std::min(rows_per_block_, table_.num_rows() - begin);
}

Status MappedTableSource::ReadBlock(size_t b, BlockView* view) const {
  QARM_CHECK_LT(b, num_blocks_);
  const size_t begin = b * rows_per_block_;
  view->row_begin_ = begin;
  view->num_rows_ = block_rows(b);
  view->columns_.resize(table_.num_attributes());
  for (size_t a = 0; a < view->columns_.size(); ++a) {
    view->columns_[a] = table_.column(a) + begin;
  }
  return Status::OK();
}

Result<std::unique_ptr<QbtFileSource>> QbtFileSource::Open(
    const std::string& path) {
  QARM_ASSIGN_OR_RETURN(std::unique_ptr<QbtReader> reader,
                        QbtReader::Open(path));
  return std::unique_ptr<QbtFileSource>(new QbtFileSource(std::move(reader)));
}

Status QbtFileSource::ReadBlock(size_t b, BlockView* view) const {
  view->row_begin_ = static_cast<size_t>(reader_->block_row_begin(b));
  view->num_rows_ = reader_->block_rows(b);
  const auto start = std::chrono::steady_clock::now();
  QARM_RETURN_NOT_OK(reader_->ReadBlockColumns(b, &view->columns_));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  blocks_read_.fetch_add(1, std::memory_order_relaxed);
  bytes_read_.fetch_add(reader_->block_bytes(b), std::memory_order_relaxed);
  checksum_nanos_.fetch_add(
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count(),
      std::memory_order_relaxed);
  return Status::OK();
}

BlockRangeSource::BlockRangeSource(const RecordSource& inner,
                                   size_t block_begin, size_t block_end)
    : inner_(inner), block_begin_(block_begin), block_end_(block_end) {
  QARM_CHECK_LE(block_begin_, block_end_);
  QARM_CHECK_LE(block_end_, inner_.num_blocks());
  num_rows_ = 0;
  for (size_t b = block_begin_; b < block_end_; ++b) {
    num_rows_ += inner_.block_rows(b);
  }
}

ScanIoStats QbtFileSource::io_stats() const {
  ScanIoStats stats;
  stats.blocks_read = blocks_read_.load(std::memory_order_relaxed);
  stats.bytes_read = bytes_read_.load(std::memory_order_relaxed);
  stats.checksum_seconds =
      static_cast<double>(checksum_nanos_.load(std::memory_order_relaxed)) *
      1e-9;
  return stats;
}

}  // namespace qarm
