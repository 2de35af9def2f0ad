#include "dist/framing.h"

#include <cstring>

#include "common/string_util.h"
#include "common/timer.h"
#include "storage/crc32.h"
#include "storage/qbt_format.h"

namespace qarm {
namespace {

// Reads exactly `size` bytes, looping over the transport's partial reads.
// EOF partway through is an error: the peer died mid-frame. Once
// `timeout_ms` (0 = none) has passed on `timer` with bytes still missing,
// the frame has timed out, however steadily they trickle in.
Status ReadFull(Transport& transport, void* data, size_t size,
                const Timer& timer, uint64_t timeout_ms) {
  char* p = static_cast<char*>(data);
  size_t remaining = size;
  while (remaining > 0) {
    size_t n = 0;
    QARM_RETURN_NOT_OK(transport.Read(p, remaining, &n));
    if (n == 0) {
      return Status::IOError("peer closed the channel (EOF)");
    }
    p += n;
    remaining -= n;
    if (remaining > 0 && timeout_ms != 0 &&
        timer.ElapsedMillis() >= static_cast<double>(timeout_ms)) {
      return Status::IOError(
          StrFormat("frame read timed out after %llu ms",
                    static_cast<unsigned long long>(timeout_ms)));
    }
  }
  return Status::OK();
}

}  // namespace

Status SendFrame(Transport& transport, uint32_t type,
                 const std::string& payload, uint64_t* bytes_sent) {
  // One buffer, one write: the frame either lands whole or the transport
  // reports the failure for this frame — and the injected partial-write
  // fault can tear it mid-frame the way a real crash would.
  std::string frame;
  frame.reserve(kDistFrameHeaderSize + payload.size() + 4);
  frame.append(kDistFrameMagic, 4);
  QbtAppendU32(&frame, type);
  QbtAppendU64(&frame, payload.size());
  frame.append(payload);
  QbtAppendU32(&frame, Crc32(payload.data(), payload.size()));
  QARM_RETURN_NOT_OK(transport.Write(frame.data(), frame.size()));
  if (bytes_sent != nullptr) {
    *bytes_sent += frame.size();
  }
  return Status::OK();
}

Result<DistFrame> RecvFrame(Transport& transport, uint64_t* bytes_received) {
  const Timer timer;
  const uint64_t timeout_ms = transport.read_timeout_ms();
  uint8_t header[kDistFrameHeaderSize];
  QARM_RETURN_NOT_OK(
      ReadFull(transport, header, sizeof(header), timer, timeout_ms));
  if (std::memcmp(header, kDistFrameMagic, 4) != 0) {
    return Status::IOError("bad frame magic");
  }
  DistFrame frame;
  frame.type = QbtReadU32(header + 4);
  const uint64_t payload_size = QbtReadU64(header + 8);
  if (payload_size > kDistMaxPayload) {
    return Status::IOError(
        StrFormat("frame payload size %llu exceeds limit",
                  static_cast<unsigned long long>(payload_size)));
  }
  frame.payload.resize(payload_size);
  if (payload_size > 0) {
    QARM_RETURN_NOT_OK(ReadFull(transport, frame.payload.data(), payload_size,
                                timer, timeout_ms));
  }
  uint8_t crc_bytes[4];
  QARM_RETURN_NOT_OK(
      ReadFull(transport, crc_bytes, sizeof(crc_bytes), timer, timeout_ms));
  const uint32_t expected = QbtReadU32(crc_bytes);
  const uint32_t actual = Crc32(frame.payload.data(), frame.payload.size());
  if (expected != actual) {
    return Status::IOError(StrFormat(
        "frame payload CRC mismatch (stored %08x, computed %08x)", expected,
        actual));
  }
  if (bytes_received != nullptr) {
    *bytes_received += kDistFrameHeaderSize + payload_size + 4;
  }
  return frame;
}

}  // namespace qarm
