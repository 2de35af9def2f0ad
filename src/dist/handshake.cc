#include "dist/handshake.h"

#include "common/string_util.h"
#include "core/options.h"
#include "storage/byte_reader.h"

namespace qarm {
namespace {

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
  QbtAppendU64(out, hello.fingerprint);
  QbtAppendU64(out, hello.num_threads);
  QbtAppendU64(out, hello.counter_memory_budget_bytes);
  QbtAppendU64(out, hello.heartbeat_ms);
  QbtAppendU64(out, hello.io_timeout_ms);
  QbtAppendU64(out, hello.inject_faults_spec.size());
  out->append(hello.inject_faults_spec);
}

Result<DistHello> ParseHello(const uint8_t* data, size_t size) {
  ByteReader reader(data, size, "handshake payload", StatusCode::kIOError);
  DistHello hello;
  QARM_RETURN_NOT_OK(reader.ReadU32(&hello.version));
  QARM_RETURN_NOT_OK(CheckVersion(hello.version));
  QARM_RETURN_NOT_OK(reader.ReadU32(&hello.worker_id));
  QARM_RETURN_NOT_OK(reader.ReadU64(&hello.generation));
  QARM_RETURN_NOT_OK(reader.ReadU64(&hello.fingerprint));
  QARM_RETURN_NOT_OK(reader.ReadU64(&hello.num_threads));
  if (hello.num_threads > MinerOptions::kMaxThreads) {
    return Status::InvalidArgument(StrFormat(
        "num_threads must be at most %zu, got %llu", MinerOptions::kMaxThreads,
        static_cast<unsigned long long>(hello.num_threads)));
  }
  QARM_RETURN_NOT_OK(reader.ReadU64(&hello.counter_memory_budget_bytes));
  QARM_RETURN_NOT_OK(reader.ReadU64(&hello.heartbeat_ms));
  QARM_RETURN_NOT_OK(reader.ReadU64(&hello.io_timeout_ms));
  QARM_RETURN_NOT_OK(
      reader.ReadString64(&hello.inject_faults_spec, kDistMaxFaultSpecBytes));
  QARM_RETURN_NOT_OK(reader.ExpectEnd());
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
  ByteReader reader(data, size, "handshake payload", StatusCode::kIOError);
  DistHelloAck ack;
  QARM_RETURN_NOT_OK(reader.ReadU32(&ack.version));
  QARM_RETURN_NOT_OK(CheckVersion(ack.version));
  QARM_RETURN_NOT_OK(reader.ReadU32(&ack.worker_id));
  QARM_RETURN_NOT_OK(reader.ReadU64(&ack.generation));
  QARM_RETURN_NOT_OK(reader.ReadU64(&ack.fingerprint));
  QARM_RETURN_NOT_OK(reader.ReadU64(&ack.num_rows));
  QARM_RETURN_NOT_OK(reader.ReadU64(&ack.num_blocks));
  QARM_RETURN_NOT_OK(reader.ReadU32(&ack.index_crc));
  QARM_RETURN_NOT_OK(reader.ExpectEnd());
  return ack;
}

}  // namespace qarm
