// The one POSIX TCP socket layer. The HTTP rule server and client
// (serve/) and the distributed-mining transport (dist/) listen, accept,
// connect and send through these functions, so a socket is set up one way
// and every message send is bounded by one deadline rule. IPv4 only; a host
// is an IPv4 literal or a name resolved through getaddrinfo ("localhost").
//
// RecvUntil is SendAll's receive twin: the HTTP server reads each request
// head, and the client each response head and body, under one deadline, so
// a peer trickling bytes is cut off like a silent one. The dist transport's
// reads stay with RecvFrame (dist/framing.h), which bounds a whole frame by
// the transport's read timeout.
#ifndef QARM_COMMON_SOCKET_H_
#define QARM_COMMON_SOCKET_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "common/status.h"
#include "common/timer.h"

namespace qarm {

// Binds and listens on host:port (port 0 = ephemeral) with SO_REUSEADDR and
// a backlog of 128; returns the fd. `bound_port`, when non-null, receives
// the actual port. InvalidArgument when the host does not resolve.
Result<int> TcpListen(const std::string& host, uint16_t port,
                      uint16_t* bound_port);

// Accepts one connection on `listen_fd` (retrying EINTR) and turns Nagle
// off on it. IOError once the listener is shut down or broken.
Result<int> TcpAccept(int listen_fd);

// Connects to host:port and turns Nagle off (requests and frames are small
// and latency-bound). One attempt; the dist coordinator retries it with
// backoff (common/retry.h) for discovery/reconnect. A non-zero `timeout_ms`
// bounds the connect itself, across signals that interrupt the wait, so a
// silently dropping endpoint cannot hang the caller.
Result<int> TcpConnect(const std::string& host, uint16_t port,
                       uint64_t timeout_ms);

// Sets the kernel's per-call receive and send timeouts on `fd`. A zero
// leaves that direction as it is.
void SetSocketTimeouts(int fd, uint64_t recv_timeout_ms,
                       uint64_t send_timeout_ms);

// Sends all of [data, data + size) with MSG_NOSIGNAL (a dead peer is an
// EPIPE, not a SIGPIPE), retrying EINTR and short sends. The wall clock is
// read after every send(), partial ones included, and once `deadline_ms`
// has passed since the call the send fails with IOError "timed out". A
// reader that drains a few bytes at a time is cut off like one that drains
// none. With the socket's send timeout set to the same value, one blocked
// send() cannot outlast the deadline by more than that timeout, so a
// message takes under twice its deadline. `deadline_ms` == 0 means no
// deadline.
Status SendAll(int fd, const void* data, size_t size, uint64_t deadline_ms);

// Appends received bytes to `*buffer` until `done(*buffer)` holds (checked
// before each recv(), so bytes already buffered may suffice). The clock is
// read after every recv() that leaves `done` false, and once `deadline_ms`
// has passed on `since` the receive fails with IOError "timed out"; a
// recv() that hits the socket's receive timeout fails the same way. Callers
// set that timeout to at most `deadline_ms`, so a receive takes under twice
// its deadline however the peer trickles. A peer that closes first is
// IOError "connection closed". `deadline_ms` == 0 means no deadline.
Status RecvUntil(int fd, std::string* buffer, const Timer& since,
                 uint64_t deadline_ms,
                 const std::function<bool(const std::string&)>& done);

}  // namespace qarm

#endif  // QARM_COMMON_SOCKET_H_
