// Serializes a MappedTable (values plus the full decode metadata —
// labels, intervals, taxonomy ranges) into a QBT file. See qbt_format.h
// for the layout.
#ifndef QARM_STORAGE_QBT_WRITER_H_
#define QARM_STORAGE_QBT_WRITER_H_

#include <string>

#include "common/status.h"
#include "partition/mapped_table.h"
#include "storage/qbt_format.h"

namespace qarm {

struct QbtWriteOptions {
  // Rows per block. ~64K rows keeps a block of a few int32 columns around a
  // megabyte — large enough to amortize per-block overhead, small enough
  // that a handful of in-flight blocks bound a streaming scan's memory.
  uint32_t rows_per_block = kQbtDefaultRowsPerBlock;
};

// Statistics of one write, for CLI reporting.
struct QbtWriteInfo {
  uint64_t num_rows = 0;
  uint64_t num_blocks = 0;
  uint64_t file_bytes = 0;
};

// Writes `table` to `path` (replacing any existing file). `info` is
// optional.
Status WriteQbt(const MappedTable& table, const std::string& path,
                const QbtWriteOptions& options = {},
                QbtWriteInfo* info = nullptr);

// Statistics of one append, for CLI reporting.
struct QbtAppendInfo {
  uint64_t rows_appended = 0;
  uint64_t blocks_appended = 0;
  uint64_t total_rows = 0;
  uint64_t total_blocks = 0;
  uint64_t file_bytes = 0;
};

// Appends `delta`'s rows to the existing QBT file at `path` as additional
// blocks. The delta's attribute metadata must encode byte-identically to
// the file's (same labels, intervals, taxonomy ranges — map the raw rows
// with MapTableWithAttributes to guarantee this); a mismatch is rejected
// because it would silently change what every stored value means.
//
// No existing byte is rewritten: the new blocks, a new footer (old entries
// re-encoded verbatim plus the new ones), and a new tail are written after
// the current end of file — the old footer and tail become dead bytes —
// and the append commits by updating the header row count last, with an
// fsync on either side. A crash before the commit leaves a file whose tail
// is missing or whose index disagrees with the header; RecoverQbt (called
// here automatically before appending) truncates such a file back to its
// last committed state. Appends always start a fresh block, so a file that
// grew by appends may contain short blocks mid-file; the reader handles
// that.
Status AppendQbt(const MappedTable& delta, const std::string& path,
                 QbtAppendInfo* info = nullptr);

// Restores the QBT file at `path` to its last committed state after an
// interrupted append: truncates it to its longest prefix that
// QbtReader::ValidatePrefix accepts. Returns whether the file was truncated
// in `*recovered` (optional). A file the reader accepts as a whole is left
// untouched. Fails, again leaving every byte as it was, when no prefix is
// accepted (the file is corrupt beyond an interrupted append).
Status RecoverQbt(const std::string& path, bool* recovered = nullptr);

}  // namespace qarm

#endif  // QARM_STORAGE_QBT_WRITER_H_
