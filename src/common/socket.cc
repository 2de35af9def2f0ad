#include "common/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstring>

#include "common/string_util.h"
#include "common/timer.h"

namespace qarm {
namespace {

// One backlog for every server: HTTP keep-alive clients and dist
// coordinators alike.
constexpr int kListenBacklog = 128;

void SetSocketTimeout(int fd, int which, uint64_t timeout_ms) {
  if (timeout_ms == 0) return;
  timeval tv;
  tv.tv_sec = static_cast<time_t>(timeout_ms / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout_ms % 1000) * 1000);
  ::setsockopt(fd, SOL_SOCKET, which, &tv, sizeof(tv));
}

// Fills `addr` from an IPv4 literal or, failing that, a resolved hostname
// ("localhost", a DNS name). IPv6 is out of scope.
Status ResolveIpv4(const std::string& host, in_addr* addr) {
  if (::inet_pton(AF_INET, host.c_str(), addr) == 1) return Status::OK();
  addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), nullptr, &hints, &res);
  if (rc != 0 || res == nullptr) {
    if (res != nullptr) ::freeaddrinfo(res);
    return Status::InvalidArgument(StrFormat(
        "cannot resolve host '%s': %s", host.c_str(), ::gai_strerror(rc)));
  }
  *addr = reinterpret_cast<const sockaddr_in*>(res->ai_addr)->sin_addr;
  ::freeaddrinfo(res);
  return Status::OK();
}

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

Result<int> TcpListen(const std::string& host, uint16_t port,
                      uint16_t* bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (const Status resolved = ResolveIpv4(host, &addr.sin_addr);
      !resolved.ok()) {
    ::close(fd);
    return resolved;
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status status = Status::IOError(
        StrFormat("bind %s:%u failed: %s", host.c_str(), port,
                  std::strerror(errno)));
    ::close(fd);
    return status;
  }
  if (::listen(fd, kListenBacklog) != 0) {
    const Status status =
        Status::IOError(std::string("listen: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  if (bound_port != nullptr) {
    sockaddr_in bound;
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
      const Status status = Status::IOError(std::string("getsockname: ") +
                                            std::strerror(errno));
      ::close(fd);
      return status;
    }
    *bound_port = ntohs(bound.sin_port);
  }
  return fd;
}

Result<int> TcpAccept(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) {
      SetNoDelay(fd);
      return fd;
    }
    if (errno != EINTR) {
      return Status::IOError(std::string("accept: ") + std::strerror(errno));
    }
  }
}

Result<int> TcpConnect(const std::string& host, uint16_t port,
                       uint64_t timeout_ms) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (const Status resolved = ResolveIpv4(host, &addr.sin_addr);
      !resolved.ok()) {
    ::close(fd);
    return resolved;
  }
  // Non-blocking connect + poll bounds the connect, then the socket goes
  // back to blocking mode for its owner.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno == EINPROGRESS) {
    pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLOUT;
    // A signal interrupts poll() before the connect completes: wait again
    // for the rest of the timeout. The wait is capped at INT_MAX ms, since
    // a larger int cast goes negative and poll() would wait forever.
    const Timer timer;
    do {
      const double left_ms =
          static_cast<double>(timeout_ms) - timer.ElapsedMillis();
      const int wait_ms =
          timeout_ms == 0
              ? -1
              : static_cast<int>(std::clamp(std::ceil(left_ms), 0.0,
                                            static_cast<double>(INT_MAX)));
      rc = ::poll(&pfd, 1, wait_ms);
    } while (rc < 0 && errno == EINTR);
    if (rc == 0) {
      ::close(fd);
      return Status::IOError(StrFormat("connect %s:%u timed out",
                                       host.c_str(), port));
    }
    if (rc < 0) {
      const Status status =
          Status::IOError(StrFormat("connect %s:%u poll failed: %s",
                                    host.c_str(), port, std::strerror(errno)));
      ::close(fd);
      return status;
    }
    int err = 0;
    socklen_t len = sizeof(err);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
    rc = err == 0 ? 0 : -1;
    errno = err;
  }
  if (rc != 0) {
    ::close(fd);
    return Status::IOError(StrFormat("connect %s:%u failed: %s", host.c_str(),
                                     port, std::strerror(errno)));
  }
  ::fcntl(fd, F_SETFL, flags);
  SetNoDelay(fd);
  return fd;
}

void SetSocketTimeouts(int fd, uint64_t recv_timeout_ms,
                       uint64_t send_timeout_ms) {
  SetSocketTimeout(fd, SO_RCVTIMEO, recv_timeout_ms);
  SetSocketTimeout(fd, SO_SNDTIMEO, send_timeout_ms);
}

Status SendAll(int fd, const void* data, size_t size, uint64_t deadline_ms) {
  const Timer timer;
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = ::send(fd, p, size, MSG_NOSIGNAL);
    if (n > 0) {
      p += n;
      size -= static_cast<size_t>(n);
    } else if (n < 0 && errno != EINTR && errno != EAGAIN &&
               errno != EWOULDBLOCK) {
      return Status::IOError(
          StrFormat("send failed: %s", std::strerror(errno)));
    }
    // A short send, a timed-out one (EAGAIN: the reader is slow, not gone)
    // or an interrupted one: retry from the unsent tail until the deadline.
    if (size > 0 && deadline_ms != 0 &&
        timer.ElapsedMillis() >= static_cast<double>(deadline_ms)) {
      return Status::IOError(
          StrFormat("send timed out after %llu ms",
                    static_cast<unsigned long long>(deadline_ms)));
    }
  }
  return Status::OK();
}

Status RecvUntil(int fd, std::string* buffer, const Timer& since,
                 uint64_t deadline_ms,
                 const std::function<bool(const std::string&)>& done) {
  const auto timed_out = [deadline_ms] {
    return Status::IOError(
        StrFormat("recv timed out after %llu ms",
                  static_cast<unsigned long long>(deadline_ms)));
  };
  while (!done(*buffer)) {
    // Read after every recv() that left the message incomplete, partial
    // ones included: a trickle of bytes does not extend the deadline.
    if (deadline_ms != 0 &&
        since.ElapsedMillis() >= static_cast<double>(deadline_ms)) {
      return timed_out();
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      buffer->append(chunk, static_cast<size_t>(n));
    } else if (n == 0) {
      return Status::IOError("connection closed");
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return timed_out();  // the socket's receive timeout fired
    } else if (errno != EINTR) {
      return Status::IOError(
          StrFormat("recv failed: %s", std::strerror(errno)));
    }
  }
  return Status::OK();
}

}  // namespace qarm
