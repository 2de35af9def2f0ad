// Message vocabulary of the coordinator <-> worker protocol, layered on
// dist/framing.h. The frame type carries the DistMessageType; payloads are
// encoded with the QBT little-endian helpers.
//
// Protocol (lockstep, one outstanding request per worker):
//   coordinator                      worker
//   ----------------------------------------------------------------
//   kPass1Request (a block range) ->
//                                 <-  kPass1Reply (ShardSnapshot, QCPS)
//   kCatalog (QCP catalog bytes)  ->                      (no reply)
//   kCountRequest (range + plan)  ->
//                                 <-  kCountReply (the range's counters)
//   ... one kCountRequest per pass ...
//   kShutdown (empty)            ->                       (worker exits)
//
// Every scan request names the blocks [begin, end) it covers, so one
// session scans whichever range each pass needs: the coordinator splits a
// pass's range across its workers (SplitRange). A counting pass is plan ->
// counters -> one reduce (core/support_counting.h): the coordinator plans,
// each worker checks the plan (CheckCountPlan) and scans its range into
// the plan's counters, and the coordinator adds the replies up in worker
// order and reduces once.
//
// A worker that hits an unrecoverable error answers the request with
// kError (a status message) instead of the reply type; the coordinator
// fails the run rather than respawning — the respawned worker would hit
// the same error. A vanished worker (EOF/EPIPE) is respawned instead.
#ifndef QARM_DIST_MESSAGES_H_
#define QARM_DIST_MESSAGES_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/support_counting.h"

namespace qarm {

enum class DistMessageType : uint32_t {
  kPass1Request = 1,
  kPass1Reply = 2,
  kCatalog = 3,
  kCountRequest = 4,
  kCountReply = 5,
  kShutdown = 6,
  kError = 7,
  // Every session opens with these (dist/handshake.h), forked and TCP
  // workers alike.
  kHello = 8,     // coordinator -> worker: versioned DistHello
  kHelloAck = 9,  // worker -> coordinator: identity echo + shard identity
  // Liveness while a long counting pass runs: the worker emits these
  // between request and reply so the coordinator's per-frame read deadline
  // measures peer health, not pass length. Never a reply; receivers skip.
  kHeartbeat = 10,
};

// kPass1Request: the blocks to scan, begin and end as varints. A range
// whose end precedes its begin is an IOError; the worker checks the end
// against its file.
void EncodePass1Request(const IndexRange& blocks, std::string* out);
Result<IndexRange> ParsePass1Request(const uint8_t* data, size_t size);

// kCountRequest: the blocks to scan as in kPass1Request, then the plan's
// groups as varints (per group a u8 kind, its dimensions and items, for
// counted groups the member count, and for member groups each member's
// ranged item ids), never its member runs or candidates.
struct DistCountRequest {
  IndexRange blocks;
  CountPlan plan;
};

void EncodeCountRequest(const IndexRange& blocks, const CountPlan& plan,
                        std::string* out);
Result<DistCountRequest> ParseCountRequest(const uint8_t* data, size_t size);

// kCountReply: u32 worker_id, then each group's counters as varints (a
// grid as zero runs between non-zero cells), then the worker's
// CountingStats. A scan fills only its threads, isa, io, replicated bytes
// and build and scan times; the coordinator's plan and reduce give the
// rest (dist_miner.cc).
struct DistCountReply {
  uint32_t worker_id = 0;
  CountingStats stats;
};

void EncodeCountReply(const DistCountReply& reply,
                      const PassCounters& counters, std::string* out);

// Adds a reply's counters into `merged` (MakeCounters of the request's
// plan). Counters of another shape, or counting more than the `shard_rows`
// rows of the request's range, are an IOError, after which `merged` is
// void.
Result<DistCountReply> MergeCountReply(const uint8_t* data, size_t size,
                                       uint64_t shard_rows,
                                       PassCounters* merged);

}  // namespace qarm

#endif  // QARM_DIST_MESSAGES_H_
