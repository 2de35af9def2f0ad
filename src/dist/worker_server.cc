#include "dist/worker_server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <utility>

#include "dist/framing.h"
#include "dist/messages.h"
#include "dist/worker.h"
#include "storage/record_source.h"

namespace qarm {

Result<std::unique_ptr<WorkerServer>> WorkerServer::Start(
    const WorkerServerOptions& options) {
  std::unique_ptr<WorkerServer> server(new WorkerServer());
  server->options_ = options;
  // A path that does not open fails here; each session opens its own view.
  QARM_RETURN_NOT_OK(QbtFileSource::Open(options.qbt_path).status());
  QARM_ASSIGN_OR_RETURN(
      server->listen_fd_,
      TcpListen(options.host, options.port, &server->port_));
  // The loop gets the listener by value: Stop() resets listen_fd_ while
  // the accept thread may still be returning from its last accept.
  server->accept_thread_ = std::thread(
      [s = server.get(), fd = server->listen_fd_] { s->AcceptLoop(fd); });
  return server;
}

WorkerServer::~WorkerServer() { Stop(); }

void WorkerServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
    // Sessions block in recv with no deadline (idle between passes is
    // normal); shutdown makes those reads fail so the threads exit. The
    // transports are closed by their owning shared_ptrs after the join.
    for (Session& session : sessions_) session.transport->Shutdown();
  }
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  // The accept loop spawns no new sessions once stopping_ is set, so the
  // vector is stable after the join above.
  for (Session& session : sessions_) {
    if (session.thread.joinable()) session.thread.join();
  }
  sessions_.clear();
}

void WorkerServer::AcceptLoop(int listen_fd) {
  for (;;) {
    Result<int> fd = TcpAccept(listen_fd);
    if (!fd.ok()) return;  // listener shut down (or broken) — stop serving
    auto transport = std::make_shared<TcpTransport>(
        *fd, options_.handshake_timeout_ms, /*read_timeout_ms=*/0);
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      transport->Close();
      continue;
    }
    Session session;
    session.transport = transport;
    // A failed handshake or a session ended by EOF/reset closes only this
    // connection; the server lives on.
    session.thread = std::thread([this, transport] {
      // The session maps the file as it is now, so a server started before
      // `qarm append` serves the grown file to the next run.
      Result<std::unique_ptr<QbtFileSource>> file =
          QbtFileSource::Open(options_.qbt_path);
      if (!file.ok()) {
        (void)SendFrame(*transport,
                        static_cast<uint32_t>(DistMessageType::kError),
                        file.status().ToString());
        return;
      }
      const Status served =
          ServeConnection(*transport, **file, &sessions_served_);
      (void)served;
    });
    sessions_.push_back(std::move(session));
  }
}

}  // namespace qarm
