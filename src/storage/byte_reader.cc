#include "storage/byte_reader.h"

#include <cstdio>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "common/string_util.h"
#include "storage/crc32.h"

namespace qarm {

Status ByteReader::Truncated() const {
  return Status::Error(code_, StrFormat("%s truncated", label_));
}

Status ByteReader::NeedCount(uint64_t count, size_t element_size) const {
  if (count > remaining() / element_size) {
    return Status::Error(
        code_, StrFormat("%s declares %llu elements but only %zu bytes remain",
                         label_, static_cast<unsigned long long>(count),
                         remaining()));
  }
  return Status::OK();
}

Status ByteReader::ReadLongVarint(uint64_t* out) {
  uint64_t value = 0;
  for (size_t i = 0; i < 10; ++i) {
    if (remaining() == 0) return Truncated();
    const uint8_t byte = data_[pos_++];
    // The tenth byte holds bit 63 only.
    if (i == 9 && byte > 1) {
      return Status::Error(code_,
                           StrFormat("%s holds a varint past 64 bits", label_));
    }
    value |= static_cast<uint64_t>(byte & 0x7f) << (7 * i);
    if ((byte & 0x80) != 0) continue;
    if (byte == 0 && i > 0) {
      return Status::Error(
          code_, StrFormat("%s holds an overlong varint", label_));
    }
    *out = value;
    return Status::OK();
  }
  return Status::Error(code_,
                       StrFormat("%s holds a varint past 64 bits", label_));
}

Status ByteReader::ReadVarintI32Array(uint64_t count,
                                      std::vector<int32_t>* out) {
  QARM_RETURN_NOT_OK(NeedCount(count, 1));
  out->resize(static_cast<size_t>(count));
  for (int32_t& value : *out) {
    uint64_t word = 0;
    QARM_RETURN_NOT_OK(ReadVarint(&word));
    if (word > static_cast<uint64_t>(std::numeric_limits<int32_t>::max())) {
      return Status::Error(code_, StrFormat("%s holds %llu, past int32",
                                            label_,
                                            static_cast<unsigned long long>(
                                                word)));
    }
    value = static_cast<int32_t>(word);
  }
  return Status::OK();
}

Status ByteReader::Skip(uint64_t bytes) {
  if (bytes > remaining()) return Truncated();
  pos_ += static_cast<size_t>(bytes);
  return Status::OK();
}

Status ByteReader::ExpectEnd() const {
  if (remaining() != 0) {
    return Status::Error(
        code_, StrFormat("%s has %zu trailing bytes", label_, remaining()));
  }
  return Status::OK();
}

Status ByteReader::ReadBytes(uint64_t length, uint64_t max_bytes,
                             std::string* out) {
  if (length > max_bytes) {
    return Status::Error(
        code_, StrFormat("%s string of %llu bytes exceeds the %llu-byte cap",
                         label_, static_cast<unsigned long long>(length),
                         static_cast<unsigned long long>(max_bytes)));
  }
  if (length > remaining()) return Truncated();
  out->assign(reinterpret_cast<const char*>(here()),
              static_cast<size_t>(length));
  pos_ += static_cast<size_t>(length);
  return Status::OK();
}

Status ByteReader::ReadString(std::string* out, uint64_t max_bytes) {
  uint32_t length = 0;
  QARM_RETURN_NOT_OK(ReadU32(&length));
  return ReadBytes(length, max_bytes, out);
}

Status ByteReader::ReadString64(std::string* out, uint64_t max_bytes) {
  uint64_t length = 0;
  QARM_RETURN_NOT_OK(ReadU64(&length));
  return ReadBytes(length, max_bytes, out);
}

template <size_t kBytes, typename T>
Status ByteReader::ReadArray(uint64_t count, std::vector<T>* out,
                             T (*decode)(const uint8_t*)) {
  QARM_RETURN_NOT_OK(NeedCount(count, kBytes));
  out->resize(static_cast<size_t>(count));
  for (size_t i = 0; i < out->size(); ++i) {
    (*out)[i] = decode(data_ + pos_ + i * kBytes);
  }
  pos_ += out->size() * kBytes;
  return Status::OK();
}

Status ByteReader::ReadI32Array(uint64_t count, std::vector<int32_t>* out) {
  return ReadArray<4>(count, out, QbtReadI32);
}

Status ByteReader::ReadU32Array(uint64_t count, std::vector<uint32_t>* out) {
  return ReadArray<4>(count, out, QbtReadU32);
}

Status ByteReader::ReadU64Array(uint64_t count, std::vector<uint64_t>* out) {
  return ReadArray<8>(count, out, QbtReadU64);
}

void AppendPreamble(const FileFormat& format, std::string* out) {
  out->append(format.magic, 4);
  QbtAppendU32(out, kQbtEndianMarker);
  QbtAppendU32(out, format.version);
}

Status CheckPreamble(const FileFormat& format, const uint8_t* data,
                     size_t size) {
  if (size < kPreambleSize) {
    return Status::InvalidArgument(StrFormat("%s too small: %zu bytes",
                                                format.name, size));
  }
  if (std::memcmp(data, format.magic, 4) != 0) {
    return Status::InvalidArgument(
                         StrFormat("not a %s (bad magic)", format.name));
  }
  const uint32_t endian = QbtReadU32(data + 4);
  if (endian != kQbtEndianMarker) {
    return Status::InvalidArgument(
        StrFormat("%s endian marker 0x%08x does not match this host",
                  format.name, endian));
  }
  const uint32_t version = QbtReadU32(data + 8);
  if (version != format.version) {
    return Status::InvalidArgument(
        StrFormat("unsupported %s version %u (reader supports %u)",
                  format.name, version, format.version));
  }
  return Status::OK();
}

std::string EncodeEnvelope(const FileFormat& format, uint32_t header_word,
                           const std::string& extra_header,
                           const std::string& payload) {
  QARM_CHECK_EQ(extra_header.size(), format.extra_header_bytes);
  std::string bytes;
  bytes.reserve(kEnvelopeHeaderSize + extra_header.size() + payload.size() +
                kEnvelopeTailSize);
  AppendPreamble(format, &bytes);
  QbtAppendU32(&bytes, header_word);
  QbtAppendU64(&bytes, payload.size());
  bytes.append(extra_header);
  bytes.append(payload);
  QbtAppendU32(&bytes, Crc32(payload.data(), payload.size()));
  bytes.append(format.end_magic, 4);
  return bytes;
}

Result<Envelope> ParseEnvelope(const FileFormat& format, const uint8_t* data,
                               size_t size) {
  const size_t header_size = kEnvelopeHeaderSize + format.extra_header_bytes;
  if (size < header_size + kEnvelopeTailSize) {
    return Status::InvalidArgument(StrFormat("%s too small: %zu bytes",
                                                format.name, size));
  }
  Envelope envelope;
  QARM_RETURN_NOT_OK(CheckPreamble(format, data, size));
  envelope.header_word = QbtReadU32(data + kPreambleSize);
  const uint64_t payload_size = QbtReadU64(data + kPreambleSize + 4);
  if (payload_size != size - header_size - kEnvelopeTailSize) {
    return Status::InvalidArgument(
        StrFormat("%s payload size %llu does not match file size %zu",
                  format.name, static_cast<unsigned long long>(payload_size),
                  size));
  }
  envelope.extra_header = data + kEnvelopeHeaderSize;
  envelope.payload = data + header_size;
  envelope.payload_size = static_cast<size_t>(payload_size);
  const uint8_t* tail = envelope.payload + envelope.payload_size;
  if (std::memcmp(tail + 4, format.end_magic, 4) != 0) {
    return Status::InvalidArgument(
                         StrFormat("%s end magic missing", format.name));
  }
  const uint32_t expected_crc = QbtReadU32(tail);
  const uint32_t actual_crc = Crc32(envelope.payload, envelope.payload_size);
  if (expected_crc != actual_crc) {
    return Status::IOError(StrFormat(
        "%s payload checksum mismatch (stored %08x, computed %08x)",
        format.name, expected_crc, actual_crc));
  }
  return envelope;
}

// stdio instead of ofstream: the file descriptor is needed for fsync, and a
// file the OS never flushed is exactly the crash window the rename closes.
Status WriteFileAtomic(const std::string& path, const std::string& bytes) {
  const std::string tmp_path = path + ".tmp";
  std::FILE* file = std::fopen(tmp_path.c_str(), "wb");
  if (file == nullptr) {
    return Status::IOError("cannot open '" + tmp_path + "' for writing");
  }
  bool ok = bytes.empty() ||
            std::fwrite(bytes.data(), 1, bytes.size(), file) == bytes.size();
  ok = std::fflush(file) == 0 && ok;
#if defined(__unix__) || defined(__APPLE__)
  ok = fsync(fileno(file)) == 0 && ok;
#endif
  ok = std::fclose(file) == 0 && ok;
  if (!ok || std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return Status::IOError(ok ? "cannot rename '" + tmp_path + "' to '" +
                                    path + "'"
                              : "write to '" + tmp_path + "' failed");
  }
  return Status::OK();
}

}  // namespace qarm
