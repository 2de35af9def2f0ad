// Minimal blocking HTTP/1.1 client over common/socket.h — the counterpart
// of http_server.h for the load generator, the CLI smoke helper, and the
// end-to-end tests. Supports exactly what those need: GET over a
// keep-alive connection, Content-Length responses, per-call timeouts.
#ifndef QARM_SERVE_HTTP_CLIENT_H_
#define QARM_SERVE_HTTP_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "serve/http_server.h"

namespace qarm {

// One keep-alive connection. Not thread-safe; benchmark clients own one
// connection per thread.
class HttpClient {
 public:
  // `host` is an IPv4 literal or a host name ("localhost"). `timeout_ms`
  // bounds the connect, each request's send and each response's receive.
  static Result<std::unique_ptr<HttpClient>> Connect(
      const std::string& host, uint16_t port, int timeout_ms = 5000);

  ~HttpClient();
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  // Issues `GET target` and reads the full response. IOError when the
  // connection broke (callers reconnect); the HTTP status code is in the
  // response, not the Status.
  Result<HttpResponse> Get(const std::string& target);

 private:
  HttpClient() = default;
  int fd_ = -1;
  uint64_t timeout_ms_ = 0;
  std::string buffer_;  // bytes past the previous response
};

// One-shot convenience: connect, GET, close.
Result<HttpResponse> HttpGet(const std::string& host, uint16_t port,
                             const std::string& target,
                             int timeout_ms = 5000);

}  // namespace qarm

#endif  // QARM_SERVE_HTTP_CLIENT_H_
