#include "serve/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/string_util.h"

namespace qarm {
namespace {

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

const char* StatusText(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 413:
      return "Payload Too Large";
    case 405:
      return "Method Not Allowed";
    default:
      return "Internal Server Error";
  }
}

// The status line, headers and (unless `with_body` is false, for HEAD)
// body of `response`: the one encoding of every response the server sends.
std::string EncodeResponse(const HttpResponse& response, bool keep_alive,
                           bool with_body) {
  std::string payload = "HTTP/1.1 " + std::to_string(response.status) + " " +
                        StatusText(response.status) +
                        "\r\nContent-Type: " + response.content_type +
                        "\r\nContent-Length: " +
                        std::to_string(response.body.size()) +
                        (keep_alive ? "\r\nConnection: keep-alive"
                                    : "\r\nConnection: close") +
                        "\r\n\r\n";
  if (with_body) payload += response.body;
  return payload;
}

// Sends the whole buffer; false on a broken connection or a reader that
// stays stalled past `deadline_ms`. EAGAIN/EWOULDBLOCK here means the
// SO_SNDTIMEO send timeout fired while the socket buffer was full — the
// peer is slow, not gone — so the send is retried (the kernel resumes from
// the unsent tail) until the wall-clock deadline expires. Treating the
// first timeout as fatal used to abandon a half-written keep-alive
// response mid-body; now only a genuinely stuck reader gets cut off, and
// the caller closes the connection without reusing it (a partial response
// makes the stream unframeable).
bool SendAll(int fd, const std::string& data, int deadline_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(deadline_ms);
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                       MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK) &&
          std::chrono::steady_clock::now() < deadline) {
        continue;
      }
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

std::string UrlDecode(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '+') {
      out += ' ';
    } else if (c == '%' && i + 2 < text.size() &&
               HexValue(text[i + 1]) >= 0 && HexValue(text[i + 2]) >= 0) {
      out += static_cast<char>(HexValue(text[i + 1]) * 16 +
                               HexValue(text[i + 2]));
      i += 2;
    } else {
      out += c;
    }
  }
  return out;
}

std::string UrlEncode(const std::string& text) {
  static const char* kHex = "0123456789ABCDEF";
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    const unsigned char u = static_cast<unsigned char>(c);
    if ((u >= 'A' && u <= 'Z') || (u >= 'a' && u <= 'z') ||
        (u >= '0' && u <= '9') || u == '.' || u == '_' || u == '~' ||
        u == '-') {
      out += c;
    } else {
      out += '%';
      out += kHex[u >> 4];
      out += kHex[u & 0xF];
    }
  }
  return out;
}

Result<std::unique_ptr<HttpServer>> HttpServer::Start(
    const HttpServerOptions& options, Handler handler) {
  if (!handler) return Status::InvalidArgument("http server needs a handler");
  if (options.num_threads == 0) {
    return Status::InvalidArgument("http server needs at least one thread");
  }
  auto server = std::unique_ptr<HttpServer>(new HttpServer());
  server->handler_ = std::move(handler);
  server->options_ = options;

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  server->listen_fd_ = fd;
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options.port);
  if (::inet_pton(AF_INET, options.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad listen address: " + options.host);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Status::IOError("bind " + options.host + ":" +
                           std::to_string(options.port) + ": " +
                           std::strerror(errno));
  }
  if (::listen(fd, 128) != 0) {
    return Status::IOError(std::string("listen: ") + std::strerror(errno));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    return Status::IOError(std::string("getsockname: ") +
                           std::strerror(errno));
  }
  server->port_ = ntohs(bound.sin_port);

  server->threads_.reserve(options.num_threads);
  for (size_t i = 0; i < options.num_threads; ++i) {
    server->threads_.emplace_back([s = server.get()] { s->AcceptLoop(); });
  }
  return server;
}

HttpServer::~HttpServer() { Stop(); }

void HttpServer::Stop() {
  if (stop_.exchange(true)) {
    return;
  }
  // Unblock every accept(): shutdown makes pending accepts fail without
  // racing the fd number against a new open (the close happens after the
  // threads are joined).
  ::shutdown(listen_fd_, SHUT_RDWR);
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void HttpServer::AcceptLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // shutdown() during Stop() lands here; anything else on a live
      // server is a transient accept failure worth retrying.
      if (stop_.load(std::memory_order_acquire)) break;
      continue;
    }
    connections_.fetch_add(1, std::memory_order_relaxed);
    timeval timeout{};
    timeout.tv_sec = options_.recv_timeout_ms / 1000;
    timeout.tv_usec = (options_.recv_timeout_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    // Bound each send() too: without SO_SNDTIMEO a reader that stops
    // draining parks the thread in send() forever. SendAll retries timed-out
    // sends until options_.send_deadline_ms of wall clock has passed.
    timeval send_timeout{};
    send_timeout.tv_sec = options_.send_timeout_ms / 1000;
    send_timeout.tv_usec = (options_.send_timeout_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &send_timeout,
                 sizeof(send_timeout));
    if (options_.send_buffer_bytes > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.send_buffer_bytes,
                   sizeof(options_.send_buffer_bytes));
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ServeConnection(fd);
    ::close(fd);
  }
}

void HttpServer::ServeConnection(int fd) {
  std::string buffer;
  while (!stop_.load(std::memory_order_acquire)) {
    // Accumulate until the end of the request head.
    size_t head_end = buffer.find("\r\n\r\n");
    while (head_end == std::string::npos) {
      if (buffer.size() > options_.max_request_bytes) {
        HttpResponse too_big;
        too_big.status = 413;
        too_big.body = "{\"error\":\"request too large\"}";
        SendAll(fd, EncodeResponse(too_big, /*keep_alive=*/false,
                               /*with_body=*/true),
                options_.send_deadline_ms);
        return;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) return;  // closed, timed out, or errored
      buffer.append(chunk, static_cast<size_t>(n));
      head_end = buffer.find("\r\n\r\n");
    }
    const std::string head = buffer.substr(0, head_end);
    buffer.erase(0, head_end + 4);

    // Request line: METHOD SP target SP version.
    const size_t line_end = head.find("\r\n");
    const std::string request_line =
        line_end == std::string::npos ? head : head.substr(0, line_end);
    bool keep_alive = true;
    HttpRequest request;
    HttpResponse response;
    const size_t sp1 = request_line.find(' ');
    const size_t sp2 =
        sp1 == std::string::npos ? std::string::npos
                                 : request_line.find(' ', sp1 + 1);
    if (sp2 == std::string::npos) {
      response.status = 400;
      response.body = "{\"error\":\"malformed request line\"}";
      keep_alive = false;
    } else {
      request.method = request_line.substr(0, sp1);
      std::string target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
      const std::string version = request_line.substr(sp2 + 1);
      if (version.rfind("HTTP/1.0", 0) == 0) keep_alive = false;
      // "Connection: close" in any casing turns keep-alive off.
      for (size_t pos = line_end;
           pos != std::string::npos && pos + 2 < head.size();) {
        const size_t next = head.find("\r\n", pos + 2);
        std::string header = head.substr(
            pos + 2,
            (next == std::string::npos ? head.size() : next) - pos - 2);
        for (char& c : header) {
          c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
        }
        if (header == "connection: close") keep_alive = false;
        if (header == "connection: keep-alive") keep_alive = true;
        pos = next;
      }
      const size_t question = target.find('?');
      request.path = UrlDecode(target.substr(0, question));
      if (question != std::string::npos) {
        for (const std::string& pair :
             Split(target.substr(question + 1), '&')) {
          if (pair.empty()) continue;
          const size_t eq = pair.find('=');
          if (eq == std::string::npos) {
            request.params.emplace_back(UrlDecode(pair), "");
          } else {
            request.params.emplace_back(UrlDecode(pair.substr(0, eq)),
                                        UrlDecode(pair.substr(eq + 1)));
          }
        }
      }
      if (request.method != "GET" && request.method != "HEAD") {
        response.status = 405;
        response.body = "{\"error\":\"only GET is supported\"}";
      } else {
        response = handler_(request);
      }
    }

    const std::string payload =
        EncodeResponse(response, keep_alive, request.method != "HEAD");
    if (!SendAll(fd, payload, options_.send_deadline_ms) || !keep_alive) {
      return;
    }
  }
}

}  // namespace qarm
