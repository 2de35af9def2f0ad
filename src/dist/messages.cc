#include "dist/messages.h"

#include "common/string_util.h"
#include "storage/byte_reader.h"

namespace qarm {
namespace {

void AppendIoStats(const ScanIoStats& io, std::string* out) {
  QbtAppendU64(out, io.blocks_read);
  QbtAppendU64(out, io.bytes_read);
  QbtAppendF64(out, io.checksum_seconds);
  QbtAppendU64(out, io.read_retries);
  QbtAppendU64(out, io.faults_injected);
}

Status ParseIoStats(ByteReader* reader, ScanIoStats* io) {
  QARM_RETURN_NOT_OK(reader->ReadU64(&io->blocks_read));
  QARM_RETURN_NOT_OK(reader->ReadU64(&io->bytes_read));
  QARM_RETURN_NOT_OK(reader->ReadF64(&io->checksum_seconds));
  QARM_RETURN_NOT_OK(reader->ReadU64(&io->read_retries));
  return reader->ReadU64(&io->faults_injected);
}

void AppendCountingStats(const CountingStats& stats, std::string* out) {
  QbtAppendU64(out, stats.num_super_candidates);
  QbtAppendU64(out, stats.num_array_counters);
  QbtAppendU64(out, stats.num_tree_counters);
  QbtAppendU64(out, stats.num_direct);
  QbtAppendU64(out, stats.num_degraded);
  QbtAppendU64(out, stats.num_atomic_shared);
  QbtAppendU64(out, stats.threads_used);
  QbtAppendU32(out, static_cast<uint32_t>(stats.isa));
  AppendIoStats(stats.io, out);
  QbtAppendU64(out, stats.counter_bytes);
  QbtAppendU64(out, stats.replicated_bytes);
  QbtAppendF64(out, stats.group_seconds);
  QbtAppendF64(out, stats.build_seconds);
  QbtAppendF64(out, stats.scan_seconds);
  QbtAppendF64(out, stats.reduce_seconds);
}

Status ParseCountingStats(ByteReader* reader, CountingStats* stats) {
  QARM_RETURN_NOT_OK(reader->ReadU64(&stats->num_super_candidates));
  QARM_RETURN_NOT_OK(reader->ReadU64(&stats->num_array_counters));
  QARM_RETURN_NOT_OK(reader->ReadU64(&stats->num_tree_counters));
  QARM_RETURN_NOT_OK(reader->ReadU64(&stats->num_direct));
  QARM_RETURN_NOT_OK(reader->ReadU64(&stats->num_degraded));
  QARM_RETURN_NOT_OK(reader->ReadU64(&stats->num_atomic_shared));
  QARM_RETURN_NOT_OK(reader->ReadU64(&stats->threads_used));
  uint32_t isa = 0;
  QARM_RETURN_NOT_OK(reader->ReadU32(&isa));
  stats->isa = static_cast<SimdIsa>(isa);
  QARM_RETURN_NOT_OK(ParseIoStats(reader, &stats->io));
  QARM_RETURN_NOT_OK(reader->ReadU64(&stats->counter_bytes));
  QARM_RETURN_NOT_OK(reader->ReadU64(&stats->replicated_bytes));
  QARM_RETURN_NOT_OK(reader->ReadF64(&stats->group_seconds));
  QARM_RETURN_NOT_OK(reader->ReadF64(&stats->build_seconds));
  QARM_RETURN_NOT_OK(reader->ReadF64(&stats->scan_seconds));
  return reader->ReadF64(&stats->reduce_seconds);
}

}  // namespace

void EncodeCountRequest(const DistCountRequest& request, std::string* out) {
  QbtAppendU32(out, request.k);
  QbtAppendU32(out, request.implicit_pairs ? 1 : 0);
  QbtAppendU64(out, request.num_candidates);
  if (!request.implicit_pairs) {
    for (int32_t id : request.ids) QbtAppendI32(out, id);
  }
}

Result<DistCountRequest> ParseCountRequest(const uint8_t* data, size_t size) {
  ByteReader reader(data, size, "count request", StatusCode::kIOError);
  DistCountRequest request;
  uint32_t implicit = 0;
  QARM_RETURN_NOT_OK(reader.ReadU32(&request.k));
  QARM_RETURN_NOT_OK(reader.ReadU32(&implicit));
  QARM_RETURN_NOT_OK(reader.ReadU64(&request.num_candidates));
  if (request.k == 0) {
    return Status::IOError("count request has k == 0");
  }
  if (implicit > 1) {
    return Status::IOError(
        StrFormat("count request implicit-pairs flag is %u", implicit));
  }
  request.implicit_pairs = implicit == 1;
  if (!request.implicit_pairs) {
    QARM_RETURN_NOT_OK(reader.NeedCount(request.num_candidates,
                                        4 * static_cast<size_t>(request.k)));
    QARM_RETURN_NOT_OK(reader.ReadI32Array(request.num_candidates * request.k,
                                           &request.ids));
  }
  QARM_RETURN_NOT_OK(reader.ExpectEnd());
  return request;
}

void EncodeCountReply(const DistCountReply& reply, std::string* out) {
  QbtAppendU32(out, reply.worker_id);
  QbtAppendU64(out, reply.counts.size());
  for (uint32_t c : reply.counts) QbtAppendU32(out, c);
  AppendCountingStats(reply.stats, out);
}

Result<DistCountReply> ParseCountReply(const uint8_t* data, size_t size) {
  ByteReader reader(data, size, "count reply", StatusCode::kIOError);
  DistCountReply reply;
  uint64_t num_counts = 0;
  QARM_RETURN_NOT_OK(reader.ReadU32(&reply.worker_id));
  QARM_RETURN_NOT_OK(reader.ReadU64(&num_counts));
  QARM_RETURN_NOT_OK(reader.ReadU32Array(num_counts, &reply.counts));
  QARM_RETURN_NOT_OK(ParseCountingStats(&reader, &reply.stats));
  QARM_RETURN_NOT_OK(reader.ExpectEnd());
  return reply;
}

}  // namespace qarm
