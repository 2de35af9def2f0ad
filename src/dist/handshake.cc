#include "dist/handshake.h"

#include "common/string_util.h"
#include "core/options.h"
#include "storage/qbt_format.h"

namespace qarm {
namespace {

// Minimal bounded little-endian reader (the messages.cc cursor, without
// the array readers the handshake does not need).
class Cursor {
 public:
  Cursor(const uint8_t* data, size_t size) : p_(data), remaining_(size) {}

  Result<uint32_t> ReadU32() {
    QARM_RETURN_NOT_OK(Need(4));
    const uint32_t v = QbtReadU32(p_);
    Advance(4);
    return v;
  }

  Result<uint64_t> ReadU64() {
    QARM_RETURN_NOT_OK(Need(8));
    const uint64_t v = QbtReadU64(p_);
    Advance(8);
    return v;
  }

  // Length-prefixed string: the length is checked against both the
  // caller's cap and the remaining payload BEFORE the string allocates.
  Result<std::string> ReadString(uint64_t max_bytes) {
    QARM_ASSIGN_OR_RETURN(uint64_t len, ReadU64());
    if (len > max_bytes) {
      return Status::IOError(StrFormat(
          "handshake string of %llu bytes exceeds the %llu-byte cap",
          static_cast<unsigned long long>(len),
          static_cast<unsigned long long>(max_bytes)));
    }
    if (len > remaining_) {
      return Status::IOError("handshake payload truncated");
    }
    std::string out(reinterpret_cast<const char*>(p_),
                    static_cast<size_t>(len));
    Advance(static_cast<size_t>(len));
    return out;
  }

  size_t remaining() const { return remaining_; }

 private:
  Status Need(size_t n) {
    if (remaining_ < n) {
      return Status::IOError("handshake payload truncated");
    }
    return Status::OK();
  }

  void Advance(size_t n) {
    p_ += n;
    remaining_ -= n;
  }

  const uint8_t* p_;
  size_t remaining_;
};

Status CheckFullyConsumed(const Cursor& cursor) {
  if (cursor.remaining() != 0) {
    return Status::IOError(StrFormat(
        "handshake payload has %zu trailing bytes", cursor.remaining()));
  }
  return Status::OK();
}

// The version is the first field of both payloads so a mismatched peer is
// diagnosed before any version-dependent field is interpreted.
Status CheckVersion(uint32_t version) {
  if (version != kDistProtocolVersion) {
    return Status::InvalidArgument(StrFormat(
        "protocol version mismatch: peer speaks %u, this binary speaks %u",
        version, kDistProtocolVersion));
  }
  return Status::OK();
}

}  // namespace

void EncodeHello(const DistHello& hello, std::string* out) {
  QbtAppendU32(out, hello.version);
  QbtAppendU32(out, hello.worker_id);
  QbtAppendU64(out, hello.generation);
  QbtAppendU64(out, hello.block_begin);
  QbtAppendU64(out, hello.block_end);
  QbtAppendU64(out, hello.fingerprint);
  QbtAppendU64(out, hello.num_threads);
  QbtAppendU64(out, hello.counter_memory_budget_bytes);
  QbtAppendU64(out, hello.parallel_replication_budget_bytes);
  QbtAppendU64(out, hello.stream_block_rows);
  QbtAppendU64(out, hello.heartbeat_ms);
  QbtAppendU64(out, hello.io_timeout_ms);
  QbtAppendU64(out, hello.inject_faults_spec.size());
  out->append(hello.inject_faults_spec);
}

Result<DistHello> ParseHello(const uint8_t* data, size_t size) {
  Cursor cursor(data, size);
  DistHello hello;
  QARM_ASSIGN_OR_RETURN(hello.version, cursor.ReadU32());
  QARM_RETURN_NOT_OK(CheckVersion(hello.version));
  QARM_ASSIGN_OR_RETURN(hello.worker_id, cursor.ReadU32());
  QARM_ASSIGN_OR_RETURN(hello.generation, cursor.ReadU64());
  QARM_ASSIGN_OR_RETURN(hello.block_begin, cursor.ReadU64());
  QARM_ASSIGN_OR_RETURN(hello.block_end, cursor.ReadU64());
  if (hello.block_end < hello.block_begin) {
    return Status::IOError(StrFormat(
        "hello block range [%llu, %llu) is inverted",
        static_cast<unsigned long long>(hello.block_begin),
        static_cast<unsigned long long>(hello.block_end)));
  }
  QARM_ASSIGN_OR_RETURN(hello.fingerprint, cursor.ReadU64());
  QARM_ASSIGN_OR_RETURN(hello.num_threads, cursor.ReadU64());
  if (hello.num_threads > MinerOptions::kMaxThreads) {
    return Status::InvalidArgument(StrFormat(
        "num_threads must be at most %zu, got %llu", MinerOptions::kMaxThreads,
        static_cast<unsigned long long>(hello.num_threads)));
  }
  QARM_ASSIGN_OR_RETURN(hello.counter_memory_budget_bytes, cursor.ReadU64());
  QARM_ASSIGN_OR_RETURN(hello.parallel_replication_budget_bytes,
                        cursor.ReadU64());
  QARM_ASSIGN_OR_RETURN(hello.stream_block_rows, cursor.ReadU64());
  QARM_ASSIGN_OR_RETURN(hello.heartbeat_ms, cursor.ReadU64());
  QARM_ASSIGN_OR_RETURN(hello.io_timeout_ms, cursor.ReadU64());
  QARM_ASSIGN_OR_RETURN(hello.inject_faults_spec,
                        cursor.ReadString(kDistMaxFaultSpecBytes));
  QARM_RETURN_NOT_OK(CheckFullyConsumed(cursor));
  return hello;
}

void EncodeHelloAck(const DistHelloAck& ack, std::string* out) {
  QbtAppendU32(out, ack.version);
  QbtAppendU32(out, ack.worker_id);
  QbtAppendU64(out, ack.generation);
  QbtAppendU64(out, ack.fingerprint);
  QbtAppendU64(out, ack.num_rows);
  QbtAppendU64(out, ack.num_blocks);
  QbtAppendU32(out, ack.index_crc);
}

Result<DistHelloAck> ParseHelloAck(const uint8_t* data, size_t size) {
  Cursor cursor(data, size);
  DistHelloAck ack;
  QARM_ASSIGN_OR_RETURN(ack.version, cursor.ReadU32());
  QARM_RETURN_NOT_OK(CheckVersion(ack.version));
  QARM_ASSIGN_OR_RETURN(ack.worker_id, cursor.ReadU32());
  QARM_ASSIGN_OR_RETURN(ack.generation, cursor.ReadU64());
  QARM_ASSIGN_OR_RETURN(ack.fingerprint, cursor.ReadU64());
  QARM_ASSIGN_OR_RETURN(ack.num_rows, cursor.ReadU64());
  QARM_ASSIGN_OR_RETURN(ack.num_blocks, cursor.ReadU64());
  QARM_ASSIGN_OR_RETURN(ack.index_crc, cursor.ReadU32());
  QARM_RETURN_NOT_OK(CheckFullyConsumed(cursor));
  return ack;
}

}  // namespace qarm
