// Fuzz harness for the QBT reader: the input bytes are written to a scratch
// file and opened through QbtFileSource (header, attribute metadata, and
// block-index validation), then every block is read (CRC validation +
// column decode). Property: a truncated, bit-flipped, or wholly synthetic
// file never crashes, aborts, or triggers an absurd allocation — every
// defect surfaces as an IOError/InvalidArgument Status.
//
// A file the reader rejects goes through RecoverQbt next. Property: on OK
// the file is a prefix of the input that the reader accepts; on error the
// file still equals the input byte for byte.
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/macros.h"
#include "storage/qbt_writer.h"
#include "storage/record_source.h"

namespace {

// One scratch path per process: libFuzzer iterations are sequential, and
// replay runs use distinct processes.
std::string ScratchPath() {
  const char* dir = ::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/qarm_fuzz_qbt_" +
         std::to_string(::getpid()) + ".qbt";
}

std::string ReadBack(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void CheckRecovery(const std::string& path, const uint8_t* data,
                   size_t size) {
  const bool ok = qarm::RecoverQbt(path).ok();
  const std::string after = ReadBack(path);
  // The reader rejected the whole input, so an OK recovery cut something.
  QARM_CHECK(ok ? after.size() < size : after.size() == size);
  QARM_CHECK(after.empty() ||
             std::memcmp(after.data(), data, after.size()) == 0);
  if (ok) QARM_CHECK(qarm::QbtFileSource::Open(path).ok());
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  static const std::string path = ScratchPath();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return 0;
  if (size > 0 && std::fwrite(data, 1, size, f) != size) {
    std::fclose(f);
    return 0;
  }
  std::fclose(f);

  auto source = qarm::QbtFileSource::Open(path);
  if (!source.ok()) {
    CheckRecovery(path, data, size);
    return 0;
  }

  qarm::BlockView view;
  for (size_t b = 0; b < (*source)->num_blocks(); ++b) {
    if (!(*source)->ReadBlock(b, &view).ok()) break;
    // Touch every cell so ASan sees any slice that escapes the mapping.
    uint64_t checksum = 0;
    for (size_t r = 0; r < view.num_rows(); ++r) {
      for (size_t a = 0; a < (*source)->num_attributes(); ++a) {
        checksum += static_cast<uint32_t>(view.value(r, a));
      }
    }
    (void)checksum;
  }
  return 0;
}
