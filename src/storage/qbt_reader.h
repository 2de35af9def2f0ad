// Mmap-backed QBT reader. Open() maps the file, validates the header,
// attribute metadata, and block index; ReadBlockColumns() validates one
// block's CRC and returns zero-copy column slices into the mapping.
// Resident memory is bounded by the pages of the blocks actually being
// scanned, not by the table size.
#ifndef QARM_STORAGE_QBT_READER_H_
#define QARM_STORAGE_QBT_READER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "partition/mapped_table.h"
#include "storage/byte_reader.h"
#include "storage/mmap_file.h"
#include "storage/qbt_format.h"

namespace qarm {

// QBT's preamble (qbt_format.h has the full layout).
inline constexpr FileFormat kQbtFormat = {
    "QBT file", kQbtMagic, /*end_magic=*/nullptr, kQbtVersion,
    /*extra_header_bytes=*/0};

class QbtReader {
 public:
  // Maps and validates `path`. A bad magic/version/endianness, a truncated
  // file, malformed attribute metadata or an index that does not match the
  // file size is InvalidArgument; a block-index checksum mismatch is
  // IOError.
  static Result<std::unique_ptr<QbtReader>> Open(const std::string& path);

  // Runs Open's checks on `data[0, length)` as if the file ended there,
  // failing with the same codes and texts. RecoverQbt keeps the longest
  // prefix of a torn file this accepts.
  static Status ValidatePrefix(const std::string& path, const uint8_t* data,
                               size_t length);

  const std::vector<MappedAttribute>& attributes() const {
    return attributes_;
  }
  uint64_t num_rows() const { return num_rows_; }
  uint32_t rows_per_block() const { return rows_per_block_; }
  size_t num_blocks() const { return blocks_.size(); }
  size_t block_rows(size_t b) const { return blocks_[b].num_rows; }
  // First global row of block `b`. Appends may leave short blocks in the
  // middle of the file (each append starts a fresh block), so this is a
  // prefix sum over the index, not b * rows_per_block.
  uint64_t block_row_begin(size_t b) const { return row_begins_[b]; }
  // File offset of block `b`'s bytes (exposed for corruption tests and
  // tooling).
  uint64_t block_offset(size_t b) const { return blocks_[b].offset; }
  // Stored CRC-32 of block `b` (append re-encodes existing index entries
  // verbatim, so this is stable across appends).
  uint32_t block_crc(size_t b) const { return blocks_[b].crc32; }
  uint64_t file_size() const { return file_->size(); }

  // CRC-32 over the first `num_blocks` index entries as encoded on disk.
  // Incremental mining fingerprints the base run's block range with this:
  // an append only adds entries, so the prefix CRC of an untouched base
  // range never changes, while any rewrite of a covered block changes it.
  uint32_t IndexPrefixCrc(size_t num_blocks) const;

  // Validates block `b`'s checksum and fills `columns` (resized to the
  // attribute count) with pointers to its column slices, each
  // block_rows(b) consecutive int32 values inside the mapping. Thread-safe:
  // the mapping is read-only and `columns` is caller-owned.
  Status ReadBlockColumns(size_t b,
                          std::vector<const int32_t*>* columns) const;

  // Bytes of one full block (the last block may be smaller).
  uint64_t block_bytes(size_t b) const {
    return static_cast<uint64_t>(blocks_[b].num_rows) * attributes_.size() *
           sizeof(int32_t);
  }

 private:
  struct BlockEntry {
    uint64_t offset = 0;
    uint32_t num_rows = 0;
    uint32_t crc32 = 0;
  };

  QbtReader() = default;

  // Validates `data[0, size)` as a whole QBT file and fills every field
  // but file_ from it.
  Status Parse(const std::string& path, const uint8_t* data, size_t size);

  std::unique_ptr<MmapFile> file_;
  std::vector<MappedAttribute> attributes_;
  uint64_t num_rows_ = 0;
  uint32_t rows_per_block_ = 0;
  std::vector<BlockEntry> blocks_;
  std::vector<uint64_t> row_begins_;  // parallel to blocks_, prefix sums
};

}  // namespace qarm

#endif  // QARM_STORAGE_QBT_READER_H_
