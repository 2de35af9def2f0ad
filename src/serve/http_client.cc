#include "serve/http_client.h"

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstring>

#include "common/socket.h"
#include "common/string_util.h"

namespace qarm {
namespace {

// Case-insensitive "does `line` start with `prefix`".
bool StartsWithIgnoreCase(const std::string& line, const char* prefix) {
  const size_t n = std::strlen(prefix);
  if (line.size() < n) return false;
  for (size_t i = 0; i < n; ++i) {
    if (std::tolower(static_cast<unsigned char>(line[i])) !=
        std::tolower(static_cast<unsigned char>(prefix[i]))) {
      return false;
    }
  }
  return true;
}

}  // namespace

Result<std::unique_ptr<HttpClient>> HttpClient::Connect(
    const std::string& host, uint16_t port, int timeout_ms) {
  const uint64_t timeout = static_cast<uint64_t>(std::max(timeout_ms, 0));
  QARM_ASSIGN_OR_RETURN(const int fd, TcpConnect(host, port, timeout));
  SetSocketTimeouts(fd, timeout, timeout);
  auto client = std::unique_ptr<HttpClient>(new HttpClient());
  client->fd_ = fd;
  client->timeout_ms_ = timeout;
  return client;
}

HttpClient::~HttpClient() {
  if (fd_ >= 0) ::close(fd_);
}

Result<HttpResponse> HttpClient::Get(const std::string& target) {
  const std::string request = "GET " + target +
                              " HTTP/1.1\r\nHost: qarm\r\nConnection: "
                              "keep-alive\r\n\r\n";
  QARM_RETURN_NOT_OK(
      SendAll(fd_, request.data(), request.size(), timeout_ms_));

  // Read the response head, then the body, under one deadline.
  const Timer receiving;
  size_t head_end = std::string::npos;
  QARM_RETURN_NOT_OK(RecvUntil(fd_, &buffer_, receiving, timeout_ms_,
                               [&head_end](const std::string& bytes) {
                                 head_end = bytes.find("\r\n\r\n");
                                 return head_end != std::string::npos;
                               }));
  const std::string head = buffer_.substr(0, head_end);
  buffer_.erase(0, head_end + 4);

  HttpResponse response;
  // Status line: HTTP/1.1 NNN reason.
  const size_t sp = head.find(' ');
  if (sp == std::string::npos || head.size() < sp + 4) {
    return Status::IOError("malformed status line: " + head.substr(0, 32));
  }
  Result<uint64_t> code = ParseUint64(head.substr(sp + 1, 3));
  if (!code.ok()) {
    return Status::IOError("malformed status code in: " + head.substr(0, 32));
  }
  response.status = static_cast<int>(*code);

  size_t content_length = std::string::npos;
  for (const std::string& line : Split(head, '\n')) {
    std::string trimmed(StripWhitespace(line));
    if (StartsWithIgnoreCase(trimmed, "content-length:")) {
      Result<uint64_t> length = ParseUint64(
          StripWhitespace(trimmed.substr(std::strlen("content-length:"))));
      if (!length.ok()) return Status::IOError("bad Content-Length");
      content_length = static_cast<size_t>(*length);
    } else if (StartsWithIgnoreCase(trimmed, "content-type:")) {
      response.content_type = std::string(StripWhitespace(
          trimmed.substr(std::strlen("content-type:"))));
    }
  }
  if (content_length == std::string::npos) {
    return Status::IOError("response without Content-Length");
  }
  QARM_RETURN_NOT_OK(RecvUntil(fd_, &buffer_, receiving, timeout_ms_,
                               [content_length](const std::string& bytes) {
                                 return bytes.size() >= content_length;
                               }));
  response.body = buffer_.substr(0, content_length);
  buffer_.erase(0, content_length);
  return response;
}

Result<HttpResponse> HttpGet(const std::string& host, uint16_t port,
                             const std::string& target, int timeout_ms) {
  QARM_ASSIGN_OR_RETURN(std::unique_ptr<HttpClient> client,
                        HttpClient::Connect(host, port, timeout_ms));
  return client->Get(target);
}

}  // namespace qarm
