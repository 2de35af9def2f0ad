#include "storage/qbt_reader.h"

#include <bit>
#include <cstring>

#include "common/string_util.h"
#include "storage/attr_metadata.h"
#include "storage/crc32.h"
#include "storage/qbt_format.h"

namespace qarm {
namespace {

// A malformed structure is InvalidArgument, as in every other file format;
// only a checksum mismatch (the bytes were damaged) is IOError.
Status Corrupt(const std::string& path, const std::string& what,
               StatusCode code = StatusCode::kInvalidArgument) {
  return Status::Error(code,
                       "'" + path + "' is not a valid QBT file: " + what);
}

// Delegates to the shared QBT/QRS attribute-metadata codec, wraps its
// section-relative errors with file context, and enforces the QBT-specific
// trailing rule: the writer pads the section to 4 bytes (block alignment);
// anything beyond that is corruption.
Result<std::vector<MappedAttribute>> DecodeAttributes(
    const std::string& path, const uint8_t* data, size_t size,
    uint32_t num_attrs) {
  size_t consumed = 0;
  Result<std::vector<MappedAttribute>> attrs =
      DecodeAttributeMetadata(data, size, num_attrs, &consumed);
  if (!attrs.ok()) return Corrupt(path, attrs.status().message());
  if (size - consumed >= sizeof(int32_t)) {
    return Corrupt(path, "metadata section has trailing bytes");
  }
  return attrs;
}

}  // namespace

Result<std::unique_ptr<QbtReader>> QbtReader::Open(const std::string& path) {
  QARM_ASSIGN_OR_RETURN(std::unique_ptr<MmapFile> file, MmapFile::Open(path));
  auto reader = std::unique_ptr<QbtReader>(new QbtReader());
  QARM_RETURN_NOT_OK(reader->Parse(path, file->data(), file->size()));
  reader->file_ = std::move(file);
  return reader;
}

Status QbtReader::ValidatePrefix(const std::string& path, const uint8_t* data,
                                 size_t length) {
  QbtReader reader;
  return reader.Parse(path, data, length);
}

Status QbtReader::Parse(const std::string& path, const uint8_t* data,
                        size_t size) {
  if constexpr (std::endian::native != std::endian::little) {
    return Status::Internal("QBT reading requires a little-endian host");
  }
  if (size < kQbtHeaderSize + kQbtTailSize) {
    return Corrupt(path, StrFormat("file is only %zu bytes", size));
  }
  const Status preamble = CheckPreamble(kQbtFormat, data, size);
  if (!preamble.ok()) return Corrupt(path, preamble.message());
  rows_per_block_ = QbtReadU32(data + 12);
  num_rows_ = QbtReadU64(data + 16);
  const uint32_t num_attrs = QbtReadU32(data + 24);
  const uint64_t metadata_size = QbtReadU64(data + 32);
  if (rows_per_block_ == 0) {
    return Corrupt(path, "rows_per_block is 0");
  }
  if (metadata_size > size - kQbtHeaderSize - kQbtTailSize) {
    return Corrupt(path, "metadata section exceeds the file");
  }
  QARM_ASSIGN_OR_RETURN(
      attributes_,
      DecodeAttributes(path, data + kQbtHeaderSize,
                       static_cast<size_t>(metadata_size), num_attrs));

  // Locate the footer through the tail, then validate the index.
  const uint8_t* tail = data + size - kQbtTailSize;
  if (std::memcmp(tail + 12, kQbtEndMagic, sizeof(kQbtEndMagic)) != 0) {
    return Corrupt(path, "bad end magic (truncated file?)");
  }
  const uint64_t footer_offset = QbtReadU64(tail);
  const uint32_t footer_crc = QbtReadU32(tail + 8);
  // The block count comes from the index itself, not from the header row
  // count: appends start a fresh block, so short blocks can sit anywhere in
  // the file and ceil(num_rows / rows_per_block) no longer bounds anything.
  // The per-block row sum below still has to reconcile with the header.
  if (footer_offset > size - kQbtTailSize ||
      footer_offset < kQbtHeaderSize + metadata_size) {
    return Corrupt(path, "block index offset out of bounds");
  }
  const uint64_t footer_size = size - kQbtTailSize - footer_offset;
  if (footer_size % kQbtBlockIndexEntrySize != 0) {
    return Corrupt(path, "block index does not match the row count");
  }
  const uint64_t num_blocks = footer_size / kQbtBlockIndexEntrySize;
  const uint8_t* footer = data + footer_offset;
  if (Crc32(footer, static_cast<size_t>(footer_size)) != footer_crc) {
    return Corrupt(path, "block index checksum mismatch",
                   StatusCode::kIOError);
  }
  blocks_.resize(static_cast<size_t>(num_blocks));
  row_begins_.resize(static_cast<size_t>(num_blocks));
  uint64_t expected_rows = 0;
  for (size_t b = 0; b < blocks_.size(); ++b) {
    const uint8_t* entry = footer + b * kQbtBlockIndexEntrySize;
    BlockEntry& block = blocks_[b];
    block.offset = QbtReadU64(entry);
    block.num_rows = QbtReadU32(entry + 8);
    block.crc32 = QbtReadU32(entry + 12);
    // The size check divides instead of multiplying out block_bytes so an
    // attacker-chosen row count cannot overflow the comparison.
    if (block.num_rows == 0 || block.num_rows > rows_per_block_ ||
        block.offset % sizeof(int32_t) != 0 ||
        block.offset < kQbtHeaderSize + metadata_size ||
        block.offset > footer_offset ||
        (num_attrs != 0 &&
         (footer_offset - block.offset) / sizeof(int32_t) / num_attrs <
             block.num_rows)) {
      return Corrupt(path, StrFormat("block %zu index entry out of bounds",
                                     b));
    }
    row_begins_[b] = expected_rows;
    expected_rows += block.num_rows;
  }
  if (expected_rows != num_rows_) {
    return Corrupt(path, StrFormat("block rows sum to %llu, header says %llu",
                                   static_cast<unsigned long long>(
                                       expected_rows),
                                   static_cast<unsigned long long>(
                                       num_rows_)));
  }
  return Status::OK();
}

uint32_t QbtReader::IndexPrefixCrc(size_t num_blocks) const {
  QARM_CHECK_LE(num_blocks, blocks_.size());
  std::string encoded;
  encoded.reserve(num_blocks * kQbtBlockIndexEntrySize);
  for (size_t b = 0; b < num_blocks; ++b) {
    QbtAppendIndexEntry(&encoded, blocks_[b].offset, blocks_[b].num_rows,
                        blocks_[b].crc32);
  }
  return Crc32(encoded.data(), encoded.size());
}

Status QbtReader::ReadBlockColumns(
    size_t b, std::vector<const int32_t*>* columns) const {
  QARM_CHECK_LT(b, blocks_.size());
  const BlockEntry& block = blocks_[b];
  const uint8_t* bytes = file_->data() + block.offset;
  const size_t block_bytes = static_cast<size_t>(this->block_bytes(b));
  const uint32_t crc = Crc32(bytes, block_bytes);
  if (crc != block.crc32) {
    return Status::IOError(
        StrFormat("QBT block %zu checksum mismatch (stored 0x%08x, computed "
                  "0x%08x): file corrupted",
                  b, block.crc32, crc));
  }
  columns->resize(attributes_.size());
  for (size_t a = 0; a < attributes_.size(); ++a) {
    (*columns)[a] = reinterpret_cast<const int32_t*>(
        bytes + a * static_cast<size_t>(block.num_rows) * sizeof(int32_t));
  }
  return Status::OK();
}

}  // namespace qarm
