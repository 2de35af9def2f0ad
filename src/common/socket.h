// The one POSIX TCP socket layer. The HTTP rule server and client
// (serve/) and the distributed-mining transport (dist/) listen, accept,
// connect and send through these functions, so a socket is set up one way
// and every message send is bounded by one deadline rule. IPv4 only; a host
// is an IPv4 literal or a name resolved through getaddrinfo ("localhost").
//
// Receives stay with the callers: an idle keep-alive HTTP connection is
// closed when its receive timeout fires, while a dist transport read is
// retried up to its frame deadline.
#ifndef QARM_COMMON_SOCKET_H_
#define QARM_COMMON_SOCKET_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/status.h"

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
// and latency-bound). One attempt; callers wrap it in RetryWithBackoff for
// discovery/reconnect. A non-zero `timeout_ms` bounds the connect itself,
// so a silently dropping endpoint cannot hang the caller.
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

}  // namespace qarm

#endif  // QARM_COMMON_SOCKET_H_
