// The worker side of distributed mining: a request loop that scans the QBT
// block range each request names and answers the coordinator's framed
// messages.
// Workers are deliberately dumb — they hold no pass state beyond the
// published item catalog, so a relaunched worker only needs the catalog
// and the current request replayed to continue.
//
// Every session, whichever launcher opened it, is served by
// ServeConnection: the Hello/HelloAck handshake supplies the assignment
// and execution knobs, then a request loop answers the coordinator. A
// forked worker runs it on its end of the socketpair over the
// coordinator's inherited QBT; the TCP worker server
// (dist/worker_server.h) runs it once per accepted connection.
#ifndef QARM_DIST_WORKER_H_
#define QARM_DIST_WORKER_H_

#include <atomic>
#include <cstdint>

#include "common/status.h"
#include "dist/transport.h"
#include "storage/record_source.h"

namespace qarm {

// Serves one session on `transport`: receives the kHello, validates it
// against `file`, arms the session's write deadline and network faults
// from it, answers kHelloAck with `file`'s identity (rows, blocks, index
// CRC), then serves requests over the block ranges they name of `file`
// until a kShutdown frame (OK) or a transport failure (the error). Clean
// per-request failures — a range past `file`'s blocks among them — are
// answered with kError frames and the session continues; storage fault kinds in the Hello's spec wrap the scans in a
// FaultInjectingRecordSource at the Hello's generation. An opening
// frame that is not a valid Hello gets a best-effort kError and ends the
// session with that error. `handshakes`, when non-null, counts the
// sessions that reached the HelloAck.
Status ServeConnection(TcpTransport& transport, const QbtFileSource& file,
                       std::atomic<uint64_t>* handshakes = nullptr);

}  // namespace qarm

#endif  // QARM_DIST_WORKER_H_
