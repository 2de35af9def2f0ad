// Byte-stream transport between the distributed-mining coordinator and a
// worker. TcpTransport is the one socket implementation: it runs over a
// connected TCP socket (a `qarm worker` session) and over the socketpair a
// forked worker is launched with, so both launchers share its deadlines.
// A write goes through common/socket.h's SendAll, the send every socket in
// the repo uses; a read is bounded per call here and per frame by
// RecvFrame (dist/framing.h). A vanished, partitioned, silent or trickling
// peer surfaces as a bounded IOError, never a hang. The worker side can
// also carry the fault injector's network kinds (conn_reset, stall,
// partial_write): frame write n of the connection is sabotaged when
// storage/fault_injection.h's one seeded schedule picks key n, so every
// recovery path in the coordinator is exercised by reproducible tests in
// both launch modes.
//
// Reads may return fewer bytes than asked (that is what the byte-split
// framing tests rely on); writes either complete or fail. A clean EOF is
// Status::OK with *bytes_read == 0.
#ifndef QARM_DIST_TRANSPORT_H_
#define QARM_DIST_TRANSPORT_H_

#include <cstddef>
#include <cstdint>
#include <mutex>

#include "common/socket.h"
#include "common/status.h"
#include "storage/fault_injection.h"

namespace qarm {

class Transport {
 public:
  virtual ~Transport() = default;

  // Reads up to `size` bytes into `data`. On success *bytes_read is the
  // number transferred; 0 means the peer closed the stream. Partial reads
  // are normal.
  virtual Status Read(void* data, size_t size, size_t* bytes_read) = 0;

  // Writes all of [data, data + size) or returns an error.
  virtual Status Write(const void* data, size_t size) = 0;

  // How long RecvFrame may take over one whole frame, in ms from its call;
  // 0 = no bound (the frame's reads wait as long as the transport does).
  virtual uint64_t read_timeout_ms() const { return 0; }

  // Idempotent. After Close every Read/Write fails.
  virtual void Close() = 0;
};

// Stream-socket transport with deadlines. Owns the fd: Close (and the
// destructor) closes it. `io_timeout_ms` is every Write's SendAll deadline
// and the socket's send timeout. A non-zero `read_timeout_ms` bounds each
// Read (the socket's receive timeout, plus a wall-clock check so EINTR
// retries cannot extend it) and each whole frame RecvFrame reads.
// read_timeout_ms == 0 leaves reads blocking: a worker waits indefinitely
// for the next request by design; only the coordinator must never hang.
class TcpTransport : public Transport {
 public:
  TcpTransport(int fd, uint64_t io_timeout_ms, uint64_t read_timeout_ms);
  ~TcpTransport() override { Close(); }

  Status Read(void* data, size_t size, size_t* bytes_read) override;
  Status Write(const void* data, size_t size) override;
  void Close() override;
  uint64_t read_timeout_ms() const override { return read_timeout_ms_; }

  // Fails any Read/Write blocked on this transport. The one member another
  // thread may call (a server stopping its sessions): it is ordered
  // against the owner's Close and injected aborts, so it never shuts down
  // an fd number that was closed and reused.
  void Shutdown();

  // A worker learns the session's fault config (generation included) and
  // write deadline from the Hello — which arrives over this very
  // transport — so both are armed after construction. The write ordinal,
  // the schedule's key, keeps counting from the handshake; a config with
  // no network kind, or at generation >= fails, faults nothing.
  void SetFaults(const FaultInjectionConfig& faults);
  void SetWriteTimeoutMs(uint64_t io_timeout_ms);

 private:
  // Sets SO_LINGER(0) and closes, so the peer sees RST, not orderly EOF.
  void AbortConnection();

  // Guards fd_ changes against Shutdown; the owning thread reads fd_
  // without it.
  std::mutex fd_mu_;
  int fd_ = -1;
  uint64_t io_timeout_ms_ = 0;
  uint64_t read_timeout_ms_ = 0;
  FaultInjectionConfig faults_;
  bool faults_armed_ = false;
  uint64_t writes_ = 0;
};

}  // namespace qarm

#endif  // QARM_DIST_TRANSPORT_H_
