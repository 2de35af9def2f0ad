// Message vocabulary of the coordinator <-> worker protocol, layered on
// dist/framing.h. The frame type carries the DistMessageType; payloads are
// encoded with the QBT little-endian helpers.
//
// Protocol (lockstep, one outstanding request per worker):
//   coordinator                      worker
//   ----------------------------------------------------------------
//   kPass1Request (empty)        ->
//                                <-  kPass1Reply (ShardSnapshot, QCPS)
//   kCatalog (QCP catalog bytes) ->                       (no reply)
//   kCountRequest                ->
//                                <-  kCountReply
//   ... one kCountRequest per pass ...
//   kShutdown (empty)            ->                       (worker exits)
//
// A worker that hits an unrecoverable error answers the request with
// kError (a status message) instead of the reply type; the coordinator
// fails the run rather than respawning — the respawned worker would hit
// the same error. A vanished worker (EOF/EPIPE) is respawned instead.
#ifndef QARM_DIST_MESSAGES_H_
#define QARM_DIST_MESSAGES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
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
  // TCP sessions only (dist/handshake.h). A fork-mode worker inherits its
  // config through fork and never sees these.
  kHello = 8,     // coordinator -> worker: versioned DistHello
  kHelloAck = 9,  // worker -> coordinator: identity echo + shard identity
  // Liveness while a long counting pass runs: the worker emits these
  // between request and reply so the coordinator's per-frame read deadline
  // measures peer health, not pass length. Never a reply; receivers skip.
  kHeartbeat = 10,
};

// One pass's candidates, coordinator -> worker. Pass 2 over a full L1
// frontier ships only the `implicit_pairs` flag — both sides hold the same
// catalog, so the worker derives C2 itself (an ImplicitPairStream) instead
// of receiving millions of ids. Later passes ship the materialized ids.
struct DistCountRequest {
  uint32_t k = 0;
  bool implicit_pairs = false;
  uint64_t num_candidates = 0;
  std::vector<int32_t> ids;  // k * num_candidates when !implicit_pairs
};

// One shard's counts, worker -> coordinator. `counts` is parallel to the
// request's candidate sequence; `stats` is the shard's CountingStats
// (summed/maxed into the pass stats by the coordinator).
struct DistCountReply {
  uint32_t worker_id = 0;
  std::vector<uint32_t> counts;
  CountingStats stats;
};

void EncodeCountRequest(const DistCountRequest& request, std::string* out);
Result<DistCountRequest> ParseCountRequest(const uint8_t* data, size_t size);

void EncodeCountReply(const DistCountReply& reply, std::string* out);
Result<DistCountReply> ParseCountReply(const uint8_t* data, size_t size);

}  // namespace qarm

#endif  // QARM_DIST_MESSAGES_H_
