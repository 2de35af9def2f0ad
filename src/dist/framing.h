// Length-prefixed, CRC-framed messages over a dist/transport.h byte
// stream (the socketpair between the distributed-mining coordinator and a
// forked worker, or the TCP connection to a remote one). One frame:
//
//   [0]  u8[4]  magic "QDF1"
//   [4]  u32    message type (DistMessageType)
//   [8]  u64    payload_size
//   [16] ...    payload bytes
//   [..] u32    CRC-32 of the payload
//
// All integers little-endian (the QBT helpers). Over a local socketpair a
// CRC mismatch means a program bug; over TCP it additionally covers a
// connection that died mid-frame and got glued to garbage — either way the
// coordinator treats it like a dead worker. A clean EOF mid-frame surfaces
// as IOError (the peer died). SendFrame assembles the whole frame into one
// buffer and issues a single Transport::Write, so the fault injector's
// partial-write sabotage tears real frame boundaries.
#ifndef QARM_DIST_FRAMING_H_
#define QARM_DIST_FRAMING_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "dist/transport.h"

namespace qarm {

inline constexpr char kDistFrameMagic[4] = {'Q', 'D', 'F', '1'};
inline constexpr size_t kDistFrameHeaderSize = 4 + 4 + 8;

// Guard against a corrupt length prefix allocating the moon. Generous:
// the largest real payload is one pass's merged counts (a few MB).
inline constexpr uint64_t kDistMaxPayload = 1ull << 32;

struct DistFrame {
  uint32_t type = 0;
  std::string payload;
};

// Writes one frame. `bytes_sent`, when non-null, is incremented by the
// framed size (header + payload + CRC).
Status SendFrame(Transport& transport, uint32_t type,
                 const std::string& payload, uint64_t* bytes_sent = nullptr);

// Reads one frame, validating magic and CRC. EOF before any byte, EOF
// mid-frame, a read deadline, and CRC mismatch all return IOError — to the
// coordinator they mean the same thing (the worker is gone). The whole
// frame is bounded by the transport's read_timeout_ms(), measured from
// this call and checked after every partial read, so a peer trickling one
// byte at a time still times out; since each read is bounded by the same
// timeout, a frame takes under twice it. Each frame (a heartbeat too)
// starts a fresh bound.
Result<DistFrame> RecvFrame(Transport& transport,
                            uint64_t* bytes_received = nullptr);

}  // namespace qarm

#endif  // QARM_DIST_FRAMING_H_
