// The versioned Hello/HelloAck handshake that opens every worker session,
// whichever launcher started it: a forked child on its socketpair and a
// `qarm worker` TCP connection both receive their assignment and
// execution knobs as the session's first frame:
//
//   coordinator                          worker (forked, or qarm worker)
//   ------------------------------------------------------------------
//   kHello (DistHello)               ->
//                                    <-  kHelloAck (DistHelloAck)
//   ... then the ordinary request loop (dist/messages.h) ...
//
// DistHello carries the protocol version FIRST, then the worker's identity
// (worker id, generation), the run fingerprint, and the execution knobs the worker needs (thread count, counter budget,
// fault spec, heartbeat interval, write deadline). The worker scans only
// QBT files, which carry their own block size, so no block size travels.
// Output-affecting options never travel: the worker only scans value
// counts and counts supports against the catalog the coordinator
// broadcasts, so the fingerprint — not an options codec — is the
// run-identity contract.
//
// DistHelloAck echoes the identity and adds the worker's view of its QBT
// file (row/block counts and the block-index prefix CRC), which the
// coordinator cross-checks against its own file so a worker serving a
// stale or wrong copy — one started before a `qarm append`, say — is
// rejected at handshake time, not as a count mismatch three passes later.
//
// Every field is validated against the payload's remaining size before any
// allocation (the QBT/QRS division-form discipline), and a version
// mismatch is reported as its own InvalidArgument — a peer speaking a
// different protocol must produce a readable diagnostic, not a CRC error
// or a truncated-message complaint.
#ifndef QARM_DIST_HANDSHAKE_H_
#define QARM_DIST_HANDSHAKE_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace qarm {

// Bump on any wire-visible change to the frame layout, the handshake
// payloads, or the request/reply vocabulary.
inline constexpr uint32_t kDistProtocolVersion = 7;

// Caps the Hello's fault-spec string. Real specs are tens of bytes; the
// cap only exists so a hostile length prefix cannot turn into a giant
// allocation before the remaining-size check would catch it.
inline constexpr uint64_t kDistMaxFaultSpecBytes = 4096;

struct DistHello {
  uint32_t version = kDistProtocolVersion;
  uint32_t worker_id = 0;
  uint64_t generation = 0;
  uint64_t fingerprint = 0;
  // Execution knobs for the worker's scans.
  uint64_t num_threads = 1;
  uint64_t counter_memory_budget_bytes = 0;
  // Liveness + deadline contract for this session (ms). heartbeat_ms == 0
  // disables heartbeats; io_timeout_ms bounds the worker's frame writes.
  uint64_t heartbeat_ms = 0;
  uint64_t io_timeout_ms = 0;
  // Deterministic fault spec (storage + network kinds), empty = none.
  std::string inject_faults_spec;
};

struct DistHelloAck {
  uint32_t version = kDistProtocolVersion;
  uint32_t worker_id = 0;
  uint64_t generation = 0;
  uint64_t fingerprint = 0;  // echo of the Hello's
  // The worker's view of its QBT file.
  uint64_t num_rows = 0;
  uint64_t num_blocks = 0;
  uint32_t index_crc = 0;  // block-index prefix CRC over num_blocks entries
};

void EncodeHello(const DistHello& hello, std::string* out);
// InvalidArgument on a version mismatch (message names both versions) or a
// thread count above MinerOptions::kMaxThreads (the MinerOptions::Validate
// bound); IOError on truncation, oversized fields, or trailing bytes.
Result<DistHello> ParseHello(const uint8_t* data, size_t size);

void EncodeHelloAck(const DistHelloAck& ack, std::string* out);
Result<DistHelloAck> ParseHelloAck(const uint8_t* data, size_t size);

}  // namespace qarm

#endif  // QARM_DIST_HANDSHAKE_H_
