// The one byte-decoding layer under every binary file format (QBT, QCP,
// QRS) and every distributed wire message:
//
//   * ByteReader — a bounded little-endian reader. Every read checks the
//     remaining bytes first, and every declared element count is checked
//     against them in division form before anything is allocated, so a
//     truncated or hostile buffer surfaces as a Status, never as an
//     out-of-bounds read or an oversized allocation. Each decoder names its
//     bytes and picks the StatusCode its errors carry.
//   * CheckPreamble — the magic / endian marker / version check every file
//     format opens with.
//   * The CRC envelope of QCP and QRS files, and WriteFileAtomic, the
//     temp-file + fsync + rename both of their writers use.
#ifndef QARM_STORAGE_BYTE_READER_H_
#define QARM_STORAGE_BYTE_READER_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/qbt_format.h"

namespace qarm {

class ByteReader {
 public:
  // `label` names the bytes in error messages ("checkpoint payload",
  // "count request"); every error the reader returns carries `code`.
  ByteReader(const uint8_t* data, size_t size, const char* label,
             StatusCode code)
      : data_(data), size_(size), label_(label), code_(code) {}

  size_t remaining() const { return size_ - pos_; }
  const uint8_t* here() const { return data_ + pos_; }

  Status ReadU8(uint8_t* out) { return Read<1>(out, ReadByte); }
  Status ReadU32(uint32_t* out) { return Read<4>(out, QbtReadU32); }
  Status ReadI32(int32_t* out) { return Read<4>(out, QbtReadI32); }
  Status ReadU64(uint64_t* out) { return Read<8>(out, QbtReadU64); }
  Status ReadF64(double* out) { return Read<8>(out, QbtReadF64); }

  // An unsigned LEB128 varint (AppendVarint): 7 bits per byte, low bits
  // first. Only the shortest encoding of a value is accepted, so every
  // accepted varint re-encodes to its own bytes.
  Status ReadVarint(uint64_t* out) {
    // Most counts on the wire are below 128: one byte, read inline.
    if (pos_ < size_ && data_[pos_] < 0x80) {
      *out = data_[pos_++];
      return Status::OK();
    }
    return ReadLongVarint(out);
  }
  // `count` varints, each a non-negative int32, after NeedCount.
  Status ReadVarintI32Array(uint64_t count, std::vector<int32_t>* out);

  // A string prefixed by its u32 length (ReadString) or u64 length
  // (ReadString64). The length is checked against `max_bytes`, then
  // against the remaining bytes, before the string allocates.
  Status ReadString(
      std::string* out,
      uint64_t max_bytes = std::numeric_limits<uint64_t>::max());
  Status ReadString64(std::string* out, uint64_t max_bytes);

  // `count` little-endian elements, after NeedCount.
  Status ReadI32Array(uint64_t count, std::vector<int32_t>* out);
  Status ReadU32Array(uint64_t count, std::vector<uint32_t>* out);
  Status ReadU64Array(uint64_t count, std::vector<uint64_t>* out);

  // Rejects `count` elements of `element_size` bytes each that the
  // remaining bytes cannot hold. Division form, so the product of a
  // hostile count cannot overflow past the check.
  Status NeedCount(uint64_t count, size_t element_size) const;
  // Advances over `bytes` bytes.
  Status Skip(uint64_t bytes);
  // Rejects trailing bytes: every format here is consumed exactly.
  Status ExpectEnd() const;

 private:
  static uint8_t ReadByte(const uint8_t* p) { return *p; }

  template <size_t kBytes, typename T>
  Status Read(T* out, T (*decode)(const uint8_t*)) {
    if (remaining() < kBytes) return Truncated();
    *out = decode(data_ + pos_);
    pos_ += kBytes;
    return Status::OK();
  }
  template <size_t kBytes, typename T>
  Status ReadArray(uint64_t count, std::vector<T>* out,
                   T (*decode)(const uint8_t*));
  Status ReadBytes(uint64_t length, uint64_t max_bytes, std::string* out);
  Status ReadLongVarint(uint64_t* out);
  Status Truncated() const;

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  const char* label_;
  StatusCode code_;
};

// Appends `value` as the shortest unsigned LEB128 varint (1-10 bytes).
inline void AppendVarint(std::string* out, uint64_t value) {
  while (value >= 0x80) {
    out->push_back(static_cast<char>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  out->push_back(static_cast<char>(value));
}

// --- File preamble and CRC envelope ----------------------------------------

// One binary file format's identity. Every format opens with the same
// 12-byte preamble: u8[4] magic, u32 endian marker (kQbtEndianMarker), u32
// version.
struct FileFormat {
  const char* name;       // names the file in errors: "checkpoint"
  const char* magic;      // 4 bytes
  const char* end_magic;  // 4 bytes closing a CRC envelope (null for QBT)
  uint32_t version;       // the one version writers emit and readers accept
  // Bytes of format-specific header between the envelope's payload size
  // and its payload (QRS: the u64 record count).
  size_t extra_header_bytes;
};

inline constexpr size_t kPreambleSize = 4 + 4 + 4;

void AppendPreamble(const FileFormat& format, std::string* out);

// Checks the magic, endian marker and version of `data`. A malformed
// preamble, or any version but format.version, is InvalidArgument.
Status CheckPreamble(const FileFormat& format, const uint8_t* data,
                     size_t size);

// The CRC envelope of QCP and QRS files:
//
//   [0]  preamble (12 bytes)
//   [12] u32    header word (format-defined: QCP reserved 0, QRS the
//               attribute count)
//   [16] u64    payload_size
//   [24] format.extra_header_bytes of format-specific header
//        payload (payload_size bytes)
//        u32    CRC-32 of the payload
//        u8[4]  format.end_magic
inline constexpr size_t kEnvelopeHeaderSize = kPreambleSize + 4 + 8;
inline constexpr size_t kEnvelopeTailSize = 4 + 4;

// Wraps `payload` at `format.version`. `extra_header` must be
// `format.extra_header_bytes` long.
std::string EncodeEnvelope(const FileFormat& format, uint32_t header_word,
                           const std::string& extra_header,
                           const std::string& payload);

struct Envelope {
  uint32_t header_word = 0;
  const uint8_t* extra_header = nullptr;  // format.extra_header_bytes
  const uint8_t* payload = nullptr;
  size_t payload_size = 0;
};

// Validates size, preamble, payload size, end magic and CRC, in that order.
// A CRC mismatch is IOError (the bytes were damaged); a malformed
// structure is InvalidArgument.
Result<Envelope> ParseEnvelope(const FileFormat& format, const uint8_t* data,
                               size_t size);

// Writes `bytes` to `path` atomically: to "<path>.tmp", flushed and (on
// POSIX) fsynced, then renamed over `path`. A crash before the rename
// leaves the previous file intact, one after it leaves the new file. IOError
// on any failure, with the temp file removed.
Status WriteFileAtomic(const std::string& path, const std::string& bytes);

}  // namespace qarm

#endif  // QARM_STORAGE_BYTE_READER_H_
