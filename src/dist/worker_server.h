// The `qarm worker` process: listens on a TCP port, and serves one mining
// session (dist/worker.h ServeConnection, the same session a forked worker
// runs) per accepted connection. Each session opens the QBT when it starts,
// so a server left running across `qarm append` serves the grown file to
// the next run. Sessions may run concurrently — that is how shard
// redistribution works: when another worker dies, the coordinator connects
// a second session to a survivor, and its requests name the dead worker's
// blocks.
//
// Connection lifecycle (ServeConnection):
//   accept -> RecvFrame (must be kHello) -> ParseHello -> arm faults and
//   the write deadline from the Hello -> send kHelloAck (shard identity:
//   rows, blocks, index CRC) -> the request loop until shutdown/EOF.
//
// A connection that opens with garbage (bad magic, truncated Hello, a
// version mismatch) gets a best-effort kError frame and is closed; the
// server itself keeps serving. The server trusts the coordinator for shard
// assignment but never for memory safety: every Hello field is bounds-
// checked by the handshake codec before use.
#ifndef QARM_DIST_WORKER_SERVER_H_
#define QARM_DIST_WORKER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "dist/transport.h"

namespace qarm {

struct WorkerServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  // 0 = ephemeral; read the bound port back via port()
  std::string qbt_path;
  // Write deadline used until a session's Hello supplies its own.
  uint64_t handshake_timeout_ms = 30000;
};

class WorkerServer {
 public:
  // Checks that the QBT opens, binds the listener, and starts the accept
  // thread.
  static Result<std::unique_ptr<WorkerServer>> Start(
      const WorkerServerOptions& options);

  ~WorkerServer();

  // Stops accepting, tears down in-flight sessions (their reads fail with
  // a shutdown error), and joins every thread. Idempotent.
  void Stop();

  uint16_t port() const { return port_; }
  uint64_t sessions_served() const {
    return sessions_served_.load(std::memory_order_relaxed);
  }

 private:
  WorkerServer() = default;

  void AcceptLoop(int listen_fd);

  WorkerServerOptions options_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread accept_thread_;

  std::mutex mu_;
  bool stopping_ = false;
  struct Session {
    std::thread thread;
    std::shared_ptr<TcpTransport> transport;
  };
  std::vector<Session> sessions_;
  std::atomic<uint64_t> sessions_served_{0};
};

}  // namespace qarm

#endif  // QARM_DIST_WORKER_SERVER_H_
