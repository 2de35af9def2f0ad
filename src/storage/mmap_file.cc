#include "storage/mmap_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace qarm {

Result<std::unique_ptr<MmapFile>> MmapFile::Open(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError("cannot open '" + path +
                           "': " + std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    int err = errno;
    ::close(fd);
    return Status::IOError("cannot stat '" + path +
                           "': " + std::strerror(err));
  }
  size_t size = static_cast<size_t>(st.st_size);
  const uint8_t* data = nullptr;
  if (size > 0) {
    void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map == MAP_FAILED) {
      int err = errno;
      ::close(fd);
      return Status::IOError("cannot mmap '" + path +
                             "': " + std::strerror(err));
    }
    data = static_cast<const uint8_t*>(map);
  }
  // The mapping outlives the descriptor.
  ::close(fd);
  return std::unique_ptr<MmapFile>(new MmapFile(data, size));
}

MmapFile::~MmapFile() {
  if (data_ != nullptr) {
    ::munmap(const_cast<uint8_t*>(data_), size_);
  }
}

}  // namespace qarm
