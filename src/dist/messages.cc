#include "dist/messages.h"

#include "common/string_util.h"
#include "storage/qbt_format.h"

namespace qarm {
namespace {

// Bounded little-endian reader (the checkpoint reader's cursor pattern):
// every read checks the remaining size first, so a truncated or hostile
// payload surfaces as IOError instead of an out-of-bounds read.
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

  Result<double> ReadF64() {
    QARM_RETURN_NOT_OK(Need(8));
    const double v = QbtReadF64(p_);
    Advance(8);
    return v;
  }

  Status ReadI32Array(size_t count, std::vector<int32_t>* out) {
    QARM_RETURN_NOT_OK(NeedCount(count, 4));
    out->resize(count);
    for (size_t i = 0; i < count; ++i) {
      (*out)[i] = QbtReadI32(p_ + i * 4);
    }
    Advance(count * 4);
    return Status::OK();
  }

  Status ReadU32Array(size_t count, std::vector<uint32_t>* out) {
    QARM_RETURN_NOT_OK(NeedCount(count, 4));
    out->resize(count);
    for (size_t i = 0; i < count; ++i) {
      (*out)[i] = QbtReadU32(p_ + i * 4);
    }
    Advance(count * 4);
    return Status::OK();
  }

  size_t remaining() const { return remaining_; }

 private:
  Status Need(size_t n) {
    if (remaining_ < n) {
      return Status::IOError("message payload truncated");
    }
    return Status::OK();
  }

  // Overflow-safe `count * elem_size <= remaining`.
  Status NeedCount(size_t count, size_t elem_size) {
    if (count > remaining_ / elem_size) {
      return Status::IOError(
          StrFormat("message element count %zu exceeds payload", count));
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
        "message payload has %zu trailing bytes", cursor.remaining()));
  }
  return Status::OK();
}

void AppendIoStats(const ScanIoStats& io, std::string* out) {
  QbtAppendU64(out, io.blocks_read);
  QbtAppendU64(out, io.bytes_read);
  QbtAppendF64(out, io.checksum_seconds);
  QbtAppendU64(out, io.read_retries);
  QbtAppendU64(out, io.faults_injected);
}

Status ParseIoStats(Cursor* cursor, ScanIoStats* io) {
  QARM_ASSIGN_OR_RETURN(io->blocks_read, cursor->ReadU64());
  QARM_ASSIGN_OR_RETURN(io->bytes_read, cursor->ReadU64());
  QARM_ASSIGN_OR_RETURN(io->checksum_seconds, cursor->ReadF64());
  QARM_ASSIGN_OR_RETURN(io->read_retries, cursor->ReadU64());
  QARM_ASSIGN_OR_RETURN(io->faults_injected, cursor->ReadU64());
  return Status::OK();
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

Status ParseCountingStats(Cursor* cursor, CountingStats* stats) {
  QARM_ASSIGN_OR_RETURN(stats->num_super_candidates, cursor->ReadU64());
  QARM_ASSIGN_OR_RETURN(stats->num_array_counters, cursor->ReadU64());
  QARM_ASSIGN_OR_RETURN(stats->num_tree_counters, cursor->ReadU64());
  QARM_ASSIGN_OR_RETURN(stats->num_direct, cursor->ReadU64());
  QARM_ASSIGN_OR_RETURN(stats->num_degraded, cursor->ReadU64());
  QARM_ASSIGN_OR_RETURN(stats->num_atomic_shared, cursor->ReadU64());
  QARM_ASSIGN_OR_RETURN(stats->threads_used, cursor->ReadU64());
  QARM_ASSIGN_OR_RETURN(uint32_t isa, cursor->ReadU32());
  stats->isa = static_cast<SimdIsa>(isa);
  QARM_RETURN_NOT_OK(ParseIoStats(cursor, &stats->io));
  QARM_ASSIGN_OR_RETURN(stats->counter_bytes, cursor->ReadU64());
  QARM_ASSIGN_OR_RETURN(stats->replicated_bytes, cursor->ReadU64());
  QARM_ASSIGN_OR_RETURN(stats->group_seconds, cursor->ReadF64());
  QARM_ASSIGN_OR_RETURN(stats->build_seconds, cursor->ReadF64());
  QARM_ASSIGN_OR_RETURN(stats->scan_seconds, cursor->ReadF64());
  QARM_ASSIGN_OR_RETURN(stats->reduce_seconds, cursor->ReadF64());
  return Status::OK();
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
  Cursor cursor(data, size);
  DistCountRequest request;
  QARM_ASSIGN_OR_RETURN(request.k, cursor.ReadU32());
  QARM_ASSIGN_OR_RETURN(uint32_t implicit, cursor.ReadU32());
  request.implicit_pairs = implicit != 0;
  QARM_ASSIGN_OR_RETURN(request.num_candidates, cursor.ReadU64());
  if (request.k == 0) {
    return Status::IOError("count request has k == 0");
  }
  if (!request.implicit_pairs) {
    if (request.num_candidates >
        cursor.remaining() / (4 * static_cast<size_t>(request.k))) {
      return Status::IOError("count request ids exceed payload");
    }
    QARM_RETURN_NOT_OK(cursor.ReadI32Array(
        static_cast<size_t>(request.num_candidates) * request.k,
        &request.ids));
  }
  QARM_RETURN_NOT_OK(CheckFullyConsumed(cursor));
  return request;
}

void EncodeCountReply(const DistCountReply& reply, std::string* out) {
  QbtAppendU32(out, reply.worker_id);
  QbtAppendU64(out, reply.counts.size());
  for (uint32_t c : reply.counts) QbtAppendU32(out, c);
  AppendCountingStats(reply.stats, out);
}

Result<DistCountReply> ParseCountReply(const uint8_t* data, size_t size) {
  Cursor cursor(data, size);
  DistCountReply reply;
  QARM_ASSIGN_OR_RETURN(reply.worker_id, cursor.ReadU32());
  QARM_ASSIGN_OR_RETURN(uint64_t num_counts, cursor.ReadU64());
  QARM_RETURN_NOT_OK(
      cursor.ReadU32Array(static_cast<size_t>(num_counts), &reply.counts));
  QARM_RETURN_NOT_OK(ParseCountingStats(&cursor, &reply.stats));
  QARM_RETURN_NOT_OK(CheckFullyConsumed(cursor));
  return reply;
}

}  // namespace qarm
