// Read-only memory-mapped file. The QBT reader maps the whole file and
// hands out pointers into the mapping, so a table far larger than RAM is
// paged in block by block by the OS and evicted under memory pressure —
// resident memory is bounded by the blocks actually being scanned.
#ifndef QARM_STORAGE_MMAP_FILE_H_
#define QARM_STORAGE_MMAP_FILE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"

namespace qarm {

class MmapFile {
 public:
  // Maps `path` read-only. An empty file maps to size() == 0 with a null
  // data pointer (valid, just nothing to read).
  static Result<std::unique_ptr<MmapFile>> Open(const std::string& path);

  ~MmapFile();
  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }

 private:
  MmapFile(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace qarm

#endif  // QARM_STORAGE_MMAP_FILE_H_
