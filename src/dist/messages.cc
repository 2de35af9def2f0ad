#include "dist/messages.h"

#include "common/string_util.h"
#include "storage/byte_reader.h"
#include "storage/stats_fields.h"

namespace qarm {

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
  AppendStatsWire(reply.stats, out);
}

Result<DistCountReply> ParseCountReply(const uint8_t* data, size_t size) {
  ByteReader reader(data, size, "count reply", StatusCode::kIOError);
  DistCountReply reply;
  uint64_t num_counts = 0;
  QARM_RETURN_NOT_OK(reader.ReadU32(&reply.worker_id));
  QARM_RETURN_NOT_OK(reader.ReadU64(&num_counts));
  QARM_RETURN_NOT_OK(reader.ReadU32Array(num_counts, &reply.counts));
  QARM_RETURN_NOT_OK(ReadStatsWire(&reader, "stats", &reply.stats));
  QARM_RETURN_NOT_OK(reader.ExpectEnd());
  return reply;
}

}  // namespace qarm
