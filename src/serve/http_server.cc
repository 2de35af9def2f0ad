#include "serve/http_server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cctype>

#include "common/socket.h"
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

  QARM_ASSIGN_OR_RETURN(
      server->listen_fd_,
      TcpListen(options.host, options.port, &server->port_));

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
    const Result<int> accepted = TcpAccept(listen_fd_);
    if (!accepted.ok()) {
      // shutdown() during Stop() lands here; anything else on a live
      // server is a transient accept failure worth retrying.
      if (stop_.load(std::memory_order_acquire)) break;
      continue;
    }
    const int fd = *accepted;
    connections_.fetch_add(1, std::memory_order_relaxed);
    SetSocketTimeouts(fd, options_.recv_timeout_ms,
                      options_.send_deadline_ms);
    if (options_.send_buffer_bytes > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.send_buffer_bytes,
                   sizeof(options_.send_buffer_bytes));
    }
    ServeConnection(fd);
    ::close(fd);
  }
}

void HttpServer::ServeConnection(int fd) {
  std::string buffer;
  while (!stop_.load(std::memory_order_acquire)) {
    // Accumulate until the end of the request head, under one deadline from
    // when the wait for it begins: an idle keep-alive connection and a
    // client trickling its head are both closed once it passes.
    size_t head_end = std::string::npos;
    const Timer waiting;
    const Status received = RecvUntil(
        fd, &buffer, waiting, static_cast<uint64_t>(options_.recv_timeout_ms),
        [&](const std::string& bytes) {
          head_end = bytes.find("\r\n\r\n");
          return head_end != std::string::npos ||
                 bytes.size() > options_.max_request_bytes;
        });
    if (!received.ok()) return;  // closed, timed out, or errored
    if (head_end == std::string::npos) {
      HttpResponse too_big;
      too_big.status = 413;
      too_big.body = "{\"error\":\"request too large\"}";
      const std::string payload = EncodeResponse(
          too_big, /*keep_alive=*/false, /*with_body=*/true);
      SendAll(fd, payload.data(), payload.size(), options_.send_deadline_ms);
      return;
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
      // "Connection: close" in any casing, with or without whitespace
      // around the value (RFC 9110), turns keep-alive off.
      for (size_t pos = line_end;
           pos != std::string::npos && pos + 2 < head.size();) {
        const size_t next = head.find("\r\n", pos + 2);
        std::string header = head.substr(
            pos + 2,
            (next == std::string::npos ? head.size() : next) - pos - 2);
        for (char& c : header) {
          c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
        }
        const std::string_view field(header);
        const size_t colon = field.find(':');
        if (colon != std::string_view::npos &&
            StripWhitespace(field.substr(0, colon)) == "connection") {
          const std::string_view value =
              StripWhitespace(field.substr(colon + 1));
          if (value == "close") keep_alive = false;
          if (value == "keep-alive") keep_alive = true;
        }
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
    // A response cut off at the deadline leaves the stream unframeable, so
    // the connection closes rather than being reused.
    const Status sent =
        SendAll(fd, payload.data(), payload.size(), options_.send_deadline_ms);
    if (!sent.ok() || !keep_alive) return;
  }
}

}  // namespace qarm
