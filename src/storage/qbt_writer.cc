#include "storage/qbt_writer.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "common/string_util.h"
#include "storage/attr_metadata.h"
#include "storage/crc32.h"
#include "storage/mmap_file.h"
#include "storage/qbt_reader.h"

namespace qarm {
namespace {

// Copies rows [row, row + block_rows) of each of `table`'s columns into
// `block` (one slice per column) and appends the block's index entry to
// `footer`.
void EncodeBlock(const MappedTable& table, uint64_t row, size_t block_rows,
                 uint64_t offset, std::vector<int32_t>* block,
                 std::string* footer) {
  block->resize(block_rows * table.num_attributes());
  for (size_t a = 0; a < table.num_attributes(); ++a) {
    const int32_t* column = table.column(a) + row;
    std::copy(column, column + block_rows, block->data() + a * block_rows);
  }
  QbtAppendIndexEntry(footer, offset, static_cast<uint32_t>(block_rows),
                      Crc32(block->data(), block->size() * sizeof(int32_t)));
}

Status FlushAndSync(std::FILE* file, const std::string& path) {
  if (std::fflush(file) != 0) {
    return Status::IOError("write to '" + path + "' failed");
  }
#if defined(__unix__) || defined(__APPLE__)
  if (fsync(fileno(file)) != 0) {
    return Status::IOError("fsync of '" + path + "' failed");
  }
#endif
  return Status::OK();
}

}  // namespace

Status WriteQbt(const MappedTable& table, const std::string& path,
                const QbtWriteOptions& options, QbtWriteInfo* info) {
  // Block values are written as raw int32; the format is defined
  // little-endian, so refuse to produce a byte-swapped file.
  if constexpr (std::endian::native != std::endian::little) {
    return Status::Internal("QBT writing requires a little-endian host");
  }
  if (options.rows_per_block == 0) {
    return Status::InvalidArgument("rows_per_block must be > 0");
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IOError("cannot open '" + path + "' for writing");
  }

  const size_t num_attrs = table.num_attributes();
  const uint64_t num_rows = table.num_rows();
  const uint32_t rows_per_block = options.rows_per_block;
  std::string metadata = EncodeAttributeMetadata(table.attributes());
  // Pad to 4 bytes so every block (and hence every int32 column slice) is
  // naturally aligned in the mapping.
  while (metadata.size() % sizeof(int32_t) != 0) metadata.push_back('\0');

  std::string header;
  AppendPreamble(kQbtFormat, &header);
  QbtAppendU32(&header, rows_per_block);
  QbtAppendU64(&header, num_rows);
  QbtAppendU32(&header, static_cast<uint32_t>(num_attrs));
  QbtAppendU32(&header, 0);  // reserved
  QbtAppendU64(&header, metadata.size());
  QARM_CHECK_EQ(header.size(), kQbtHeaderSize);
  out.write(header.data(), static_cast<std::streamsize>(header.size()));
  out.write(metadata.data(), static_cast<std::streamsize>(metadata.size()));

  // Blocks: copy each row range's column slices and stream them out,
  // recording the index entry as we go.
  std::string footer;
  uint64_t offset = kQbtHeaderSize + metadata.size();
  uint64_t num_blocks = 0;
  std::vector<int32_t> block;
  for (uint64_t row = 0; row < num_rows; row += rows_per_block) {
    const size_t block_rows = static_cast<size_t>(
        std::min<uint64_t>(rows_per_block, num_rows - row));
    EncodeBlock(table, row, block_rows, offset, &block, &footer);
    const size_t block_bytes = block.size() * sizeof(int32_t);
    out.write(reinterpret_cast<const char*>(block.data()),
              static_cast<std::streamsize>(block_bytes));
    offset += block_bytes;
    ++num_blocks;
  }

  const uint64_t footer_offset = offset;
  out.write(footer.data(), static_cast<std::streamsize>(footer.size()));
  std::string tail;
  QbtAppendTail(&tail, footer_offset, Crc32(footer.data(), footer.size()));
  out.write(tail.data(), static_cast<std::streamsize>(tail.size()));

  out.flush();
  if (!out) {
    return Status::IOError("write to '" + path + "' failed");
  }
  if (info != nullptr) {
    info->num_rows = num_rows;
    info->num_blocks = num_blocks;
    info->file_bytes = footer_offset + footer.size() + kQbtTailSize;
  }
  return Status::OK();
}

Status RecoverQbt(const std::string& path, bool* recovered) {
  if (recovered != nullptr) *recovered = false;
  QARM_ASSIGN_OR_RETURN(std::unique_ptr<MmapFile> file, MmapFile::Open(path));
  const uint8_t* data = file->data();
  const size_t size = file->size();

  // An interrupted append left partial suffix bytes after the last
  // committed tail (or a complete suffix whose row count was never
  // committed to the header). The committed state is the longest prefix
  // the reader accepts; only a prefix ending in the end magic can be one.
  // A file the reader accepts as a whole is left as it is, and so is one
  // with no accepted prefix at all.
  for (size_t length = size; length >= sizeof(kQbtEndMagic); --length) {
    if (std::memcmp(data + length - sizeof(kQbtEndMagic), kQbtEndMagic,
                    sizeof(kQbtEndMagic)) != 0 ||
        !QbtReader::ValidatePrefix(path, data, length).ok()) {
      continue;
    }
    if (length == size) return Status::OK();
    file.reset();  // unmap before truncating
#if defined(__unix__) || defined(__APPLE__)
    if (truncate(path.c_str(), static_cast<off_t>(length)) != 0) {
      return Status::IOError("cannot truncate '" + path + "'");
    }
#else
    return Status::Internal("QBT recovery requires POSIX truncate");
#endif
    if (recovered != nullptr) *recovered = true;
    return Status::OK();
  }
  return Status::IOError(
      "'" + path +
      "' has no recoverable committed state (corrupt beyond an "
      "interrupted append)");
}

Status AppendQbt(const MappedTable& delta, const std::string& path,
                 QbtAppendInfo* info) {
  if constexpr (std::endian::native != std::endian::little) {
    return Status::Internal("QBT writing requires a little-endian host");
  }
  if (delta.num_rows() == 0) {
    return Status::InvalidArgument("append with no rows");
  }
  // Heal an interrupted previous append first; a file with no committed
  // state at all surfaces that error instead.
  QARM_RETURN_NOT_OK(RecoverQbt(path));
  QARM_ASSIGN_OR_RETURN(std::unique_ptr<QbtReader> reader,
                        QbtReader::Open(path));

  // The stored values are only meaningful under the exact decode metadata
  // they were written with; require byte-identical metadata rather than
  // guessing at compatibility.
  if (EncodeAttributeMetadata(delta.attributes()) !=
      EncodeAttributeMetadata(reader->attributes())) {
    return Status::InvalidArgument(
        "appended rows were mapped with different attribute metadata than '" +
        path + "' (labels, intervals, or taxonomy differ); re-map them "
        "with the file's metadata or re-convert from scratch");
  }

  const uint32_t rows_per_block = reader->rows_per_block();
  const uint64_t delta_rows = delta.num_rows();
  const uint64_t old_size = reader->file_size();
  const uint64_t old_rows = reader->num_rows();
  const size_t old_blocks = reader->num_blocks();

  // Stage the whole suffix: the delta's blocks, then a fresh footer (the
  // existing index entries re-encoded verbatim plus the new ones), then a
  // fresh tail. The old footer and tail stay in place as dead bytes — no
  // committed byte is ever rewritten, so a crash at any point here leaves
  // the old state intact.
  std::string suffix;
  std::string footer;
  for (size_t b = 0; b < old_blocks; ++b) {
    QbtAppendIndexEntry(&footer, reader->block_offset(b),
                        static_cast<uint32_t>(reader->block_rows(b)),
                        reader->block_crc(b));
  }
  uint64_t offset = old_size;
  uint64_t new_blocks = 0;
  std::vector<int32_t> block;
  for (uint64_t row = 0; row < delta_rows; row += rows_per_block) {
    const size_t block_rows = static_cast<size_t>(
        std::min<uint64_t>(rows_per_block, delta_rows - row));
    EncodeBlock(delta, row, block_rows, offset, &block, &footer);
    suffix.append(reinterpret_cast<const char*>(block.data()),
                  block.size() * sizeof(int32_t));
    offset += block.size() * sizeof(int32_t);
    ++new_blocks;
  }
  const uint64_t footer_offset = offset;
  suffix.append(footer);
  QbtAppendTail(&suffix, footer_offset, Crc32(footer.data(), footer.size()));

  reader.reset();  // unmap before writing

  std::FILE* file = std::fopen(path.c_str(), "r+b");
  if (file == nullptr) {
    return Status::IOError("cannot open '" + path + "' for appending");
  }
  auto fail = [&](Status status) {
    std::fclose(file);
    return status;
  };
  // Phase 1: the suffix, durably, while the header still commits the old
  // state.
  if (std::fseek(file, static_cast<long>(old_size), SEEK_SET) != 0 ||
      std::fwrite(suffix.data(), 1, suffix.size(), file) != suffix.size()) {
    return fail(Status::IOError("write to '" + path + "' failed"));
  }
  Status synced = FlushAndSync(file, path);
  if (!synced.ok()) return fail(synced);
  // Phase 2: the commit point — the header row count now reconciles with
  // the new index, and the new tail is the one closest to end of file.
  std::string committed_rows;
  QbtAppendU64(&committed_rows, old_rows + delta_rows);
  if (std::fseek(file, 16, SEEK_SET) != 0 ||
      std::fwrite(committed_rows.data(), 1, committed_rows.size(), file) !=
          committed_rows.size()) {
    return fail(Status::IOError("commit write to '" + path + "' failed"));
  }
  synced = FlushAndSync(file, path);
  if (!synced.ok()) return fail(synced);
  if (std::fclose(file) != 0) {
    return Status::IOError("close of '" + path + "' failed");
  }

  if (info != nullptr) {
    info->rows_appended = delta_rows;
    info->blocks_appended = new_blocks;
    info->total_rows = old_rows + delta_rows;
    info->total_blocks = old_blocks + new_blocks;
    info->file_bytes = old_size + suffix.size();
  }
  return Status::OK();
}

}  // namespace qarm
