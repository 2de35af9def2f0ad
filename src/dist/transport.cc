#include "dist/transport.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/hash.h"
#include "common/string_util.h"
#include "common/timer.h"

namespace qarm {
namespace {

// Same stream-split trick as the storage injector: the faulted? decision
// and the kind choice for one write ordinal are independent draws.
constexpr uint64_t kNetFaultStream = 0x6e657466ULL;   // "netf"
constexpr uint64_t kNetKindStream = 0x6e6b696eULL;    // "nkin"

double UnitUniform(uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
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
  // The kernel timeouts arm the bound; the wall-clock checks in Read and
  // SendAll keep EINTR or byte-trickle loops from stretching it.
  SetSocketTimeouts(fd_, read_timeout_ms_, io_timeout_ms_);
}

void TcpTransport::SetWriteTimeoutMs(uint64_t io_timeout_ms) {
  io_timeout_ms_ = io_timeout_ms;
  if (fd_ >= 0) SetSocketTimeouts(fd_, 0, io_timeout_ms_);
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
