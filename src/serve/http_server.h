// A thin hand-rolled HTTP/1.1 front end over the common/socket.h layer —
// no external dependencies. Scope is exactly what rule serving needs: GET
// requests, query strings, keep-alive connections, JSON responses. N
// threads share one listening socket and each runs an accept loop; a
// per-connection receive timeout plus an atomic stop flag makes shutdown
// prompt and clean (Stop() is safe from signal-adjacent contexts and
// idempotent).
//
// The server is transport only: every request is handed to a
// caller-provided handler (RuleService in production, lambdas in tests).
#ifndef QARM_SERVE_HTTP_SERVER_H_
#define QARM_SERVE_HTTP_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"

namespace qarm {

struct HttpRequest {
  std::string method;  // "GET"
  std::string path;    // "/match" — target up to '?'
  // Query parameters in target order, URL-decoded ('+' and %XX).
  std::vector<std::pair<std::string, std::string>> params;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
};

// Percent-decodes `text` ('+' becomes space); malformed escapes are kept
// verbatim. Exposed for the query canonicalizer and tests.
std::string UrlDecode(const std::string& text);

// Percent-encodes everything outside [A-Za-z0-9._~-].
std::string UrlEncode(const std::string& text);

struct HttpServerOptions {
  // An IPv4 literal or a host name ("localhost").
  std::string host = "127.0.0.1";
  uint16_t port = 0;  // 0 = ephemeral; bound port via HttpServer::port()
  size_t num_threads = 4;
  size_t max_request_bytes = 64 * 1024;
  // Wall clock a request head may take to arrive, from when the server
  // starts waiting for it (RecvUntil's deadline, also the socket's receive
  // timeout). An idle keep-alive connection closes after it, and a client
  // trickling its head is cut off at it.
  int recv_timeout_ms = 5000;
  // Wall clock one response may take to send (SendAll's deadline, also the
  // socket's send timeout). A reader that stalls or trickles past it is cut
  // off and its connection closed without reuse, so one response holds a
  // server thread for under twice this.
  int send_deadline_ms = 15000;
  // SO_SNDBUF for accepted sockets; 0 keeps the OS default. Tests shrink
  // this to force send() to block on a slow reader.
  int send_buffer_bytes = 0;
};

class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  // Binds, listens, and starts the accept threads. The handler runs on
  // server threads and must be thread-safe.
  static Result<std::unique_ptr<HttpServer>> Start(
      const HttpServerOptions& options, Handler handler);

  ~HttpServer();
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  // The bound port (resolves port 0).
  uint16_t port() const { return port_; }

  // Stops accepting, drains the threads, closes the socket. Idempotent.
  void Stop();

  uint64_t connections_accepted() const {
    return connections_.load(std::memory_order_relaxed);
  }

 private:
  HttpServer() = default;

  void AcceptLoop();
  void ServeConnection(int fd);

  Handler handler_;
  HttpServerOptions options_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> connections_{0};
  std::vector<std::thread> threads_;
};

}  // namespace qarm

#endif  // QARM_SERVE_HTTP_SERVER_H_
