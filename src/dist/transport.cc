#include "dist/transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/hash.h"
#include "common/string_util.h"

namespace qarm {
namespace {

// Same stream-split trick as the storage injector: the faulted? decision
// and the kind choice for one write ordinal are independent draws.
constexpr uint64_t kNetFaultStream = 0x6e657466ULL;   // "netf"
constexpr uint64_t kNetKindStream = 0x6e6b696eULL;    // "nkin"

double UnitUniform(uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

uint64_t NowMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void SetSocketTimeout(int fd, int which, uint64_t timeout_ms) {
  if (timeout_ms == 0) return;
  timeval tv;
  tv.tv_sec = static_cast<time_t>(timeout_ms / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout_ms % 1000) * 1000);
  ::setsockopt(fd, SOL_SOCKET, which, &tv, sizeof(tv));
}

// Fills `addr` from an IPv4 literal or, failing that, a resolved hostname
// ("localhost", a DNS name). IPv6 is out of scope for this transport.
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

NetFaultInjection NetFaultsFromSpec(const FaultInjectionConfig& config,
                                    uint64_t generation) {
  NetFaultInjection faults;
  faults.kinds = NetFaultKinds(config.kinds);
  faults.enabled = faults.kinds != 0;
  faults.seed = config.seed;
  faults.rate = config.rate;
  faults.after_writes = config.after_reads;
  faults.generation = generation;
  faults.fails = config.fails_per_block;
  faults.stall_ms = config.stall_ms;
  return faults;
}

TcpTransport::TcpTransport(int fd, uint64_t io_timeout_ms,
                           uint64_t read_timeout_ms, NetFaultInjection faults)
    : fd_(fd),
      io_timeout_ms_(io_timeout_ms),
      read_timeout_ms_(read_timeout_ms),
      faults_(faults) {
  // The kernel timeouts arm the bound; the wall-clock checks in Read/Write
  // keep EINTR or byte-trickle loops from stretching it.
  SetSocketTimeout(fd_, SO_RCVTIMEO, read_timeout_ms_);
  SetSocketTimeout(fd_, SO_SNDTIMEO, io_timeout_ms_);
}

void TcpTransport::SetWriteTimeoutMs(uint64_t io_timeout_ms) {
  io_timeout_ms_ = io_timeout_ms;
  if (fd_ >= 0) SetSocketTimeout(fd_, SO_SNDTIMEO, io_timeout_ms_);
}

bool TcpTransport::PickFault(uint64_t ordinal, FaultKind* kind) const {
  if (!faults_.enabled || faults_.generation >= faults_.fails ||
      ordinal < faults_.after_writes) {
    return false;
  }
  const uint64_t bits = SplitMix64(faults_.seed ^ kNetFaultStream ^
                                   ordinal * 0x9e3779b97f4a7c15ULL);
  if (UnitUniform(bits) >= faults_.rate) return false;
  FaultKind enabled[3];
  size_t n = 0;
  for (FaultKind k : {FaultKind::kConnReset, FaultKind::kStall,
                      FaultKind::kPartialWrite}) {
    if (faults_.kinds & static_cast<uint32_t>(k)) enabled[n++] = k;
  }
  if (n == 0) return false;
  const uint64_t pick = SplitMix64(faults_.seed ^ kNetKindStream ^
                                   ordinal * 0x9e3779b97f4a7c15ULL);
  *kind = enabled[pick % n];
  return true;
}

void TcpTransport::AbortConnection() {
  std::lock_guard<std::mutex> lock(fd_mu_);
  if (fd_ < 0) return;
  // SO_LINGER with zero timeout turns close() into an RST: the peer's next
  // read fails with ECONNRESET instead of a clean EOF, modeling a crashed
  // or NAT-dropped connection rather than an orderly shutdown.
  linger lg;
  lg.l_onoff = 1;
  lg.l_linger = 0;
  ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
  ::close(fd_);
  fd_ = -1;
}

Status TcpTransport::Read(void* data, size_t size, size_t* bytes_read) {
  *bytes_read = 0;
  if (fd_ < 0) return Status::IOError("transport is closed");
  const uint64_t deadline =
      read_timeout_ms_ > 0 ? NowMs() + read_timeout_ms_ : 0;
  for (;;) {
    const ssize_t n = ::recv(fd_, data, size, 0);
    if (n >= 0) {
      *bytes_read = static_cast<size_t>(n);
      return Status::OK();
    }
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
      if (deadline != 0 && NowMs() >= deadline) {
        return Status::IOError(StrFormat(
            "transport read timed out after %llu ms",
            static_cast<unsigned long long>(read_timeout_ms_)));
      }
      continue;
    }
    return Status::IOError(
        StrFormat("transport read failed: %s", std::strerror(errno)));
  }
}

Status TcpTransport::Write(const void* data, size_t size) {
  if (fd_ < 0) return Status::IOError("transport is closed");
  const uint64_t ordinal = writes_++;
  FaultKind kind;
  if (PickFault(ordinal, &kind)) {
    switch (kind) {
      case FaultKind::kConnReset:
        AbortConnection();
        return Status::IOError(StrFormat(
            "injected connection reset on write %llu",
            static_cast<unsigned long long>(ordinal)));
      case FaultKind::kPartialWrite: {
        // Half the bytes land, then the connection dies mid-frame: the
        // peer's framing layer must surface a clean IOError, never hang.
        const size_t prefix = size / 2;
        if (prefix > 0) {
          const ssize_t sent = ::send(fd_, data, prefix, MSG_NOSIGNAL);
          (void)sent;
        }
        AbortConnection();
        return Status::IOError(StrFormat(
            "injected partial write on write %llu",
            static_cast<unsigned long long>(ordinal)));
      }
      case FaultKind::kStall:
        // Play dead long enough for the peer's read deadline to fire, then
        // proceed with the write; by then the peer has usually torn the
        // connection down, so the send below reports the broken pipe.
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(faults_.stall_ms));
        break;
      default:
        break;
    }
  }
  const char* p = static_cast<const char*>(data);
  size_t remaining = size;
  const uint64_t deadline = io_timeout_ms_ > 0 ? NowMs() + io_timeout_ms_ : 0;
  while (remaining > 0) {
    const ssize_t n = ::send(fd_, p, remaining, MSG_NOSIGNAL);
    if (n > 0) {
      p += n;
      remaining -= static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EINTR || errno == EAGAIN ||
                  errno == EWOULDBLOCK)) {
      if (deadline != 0 && NowMs() >= deadline) {
        return Status::IOError(StrFormat(
            "transport write timed out after %llu ms",
            static_cast<unsigned long long>(io_timeout_ms_)));
      }
      continue;
    }
    return Status::IOError(
        StrFormat("transport write failed: %s", std::strerror(errno)));
  }
  return Status::OK();
}

void TcpTransport::Close() {
  std::lock_guard<std::mutex> lock(fd_mu_);
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void TcpTransport::Shutdown() {
  std::lock_guard<std::mutex> lock(fd_mu_);
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

Result<int> TcpConnect(const std::string& host, uint16_t port,
                       uint64_t io_timeout_ms) {
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
  // Bound the connect itself: a silently dropping (partitioned) endpoint
  // must not hang discovery. Non-blocking connect + poll, then back to
  // blocking mode for the transport.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno == EINPROGRESS) {
    pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLOUT;
    const int timeout =
        io_timeout_ms == 0 ? -1 : static_cast<int>(io_timeout_ms);
    rc = ::poll(&pfd, 1, timeout);
    if (rc == 0) {
      ::close(fd);
      return Status::IOError(StrFormat("connect %s:%u timed out",
                                       host.c_str(), port));
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
  if (::listen(fd, 16) != 0) {
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

}  // namespace qarm
