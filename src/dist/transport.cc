#include "dist/transport.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
#include <thread>

#include "common/string_util.h"
#include "common/timer.h"

namespace qarm {

TcpTransport::TcpTransport(int fd, uint64_t io_timeout_ms,
                           uint64_t read_timeout_ms)
    : fd_(fd),
      io_timeout_ms_(io_timeout_ms),
      read_timeout_ms_(read_timeout_ms) {
  // The kernel timeouts arm the bound; the wall-clock checks in Read and
  // SendAll keep EINTR or byte-trickle loops from stretching it.
  SetSocketTimeouts(fd_, read_timeout_ms_, io_timeout_ms_);
}

void TcpTransport::SetFaults(const FaultInjectionConfig& faults) {
  faults_ = faults;
  faults_armed_ = FaultsArmed(faults_, FaultSite::kFrameWrite);
}

void TcpTransport::SetWriteTimeoutMs(uint64_t io_timeout_ms) {
  io_timeout_ms_ = io_timeout_ms;
  if (fd_ >= 0) SetSocketTimeouts(fd_, 0, io_timeout_ms_);
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
  const Timer timer;
  for (;;) {
    const ssize_t n = ::recv(fd_, data, size, 0);
    if (n >= 0) {
      *bytes_read = static_cast<size_t>(n);
      return Status::OK();
    }
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
      if (read_timeout_ms_ != 0 &&
          timer.ElapsedMillis() >= static_cast<double>(read_timeout_ms_)) {
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
  const std::optional<FaultKind> kind =
      faults_armed_ && ordinal >= faults_.after
          ? ScheduledFault(faults_, FaultSite::kFrameWrite, ordinal)
          : std::nullopt;
  if (kind.has_value()) {
    switch (*kind) {
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
  return SendAll(fd_, data, size, io_timeout_ms_);
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

}  // namespace qarm
