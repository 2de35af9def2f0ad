#include "common/string_util.h"

#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace qarm {

std::vector<std::string> Split(std::string_view input, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = input.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(input.substr(start));
      break;
    }
    out.emplace_back(input.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string JsonEscape(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::string_view StripWhitespace(std::string_view s) {
  size_t begin = 0;
  while (begin < s.size() &&
         (s[begin] == ' ' || s[begin] == '\t' || s[begin] == '\r' ||
          s[begin] == '\n')) {
    ++begin;
  }
  size_t end = s.size();
  while (end > begin &&
         (s[end - 1] == ' ' || s[end - 1] == '\t' || s[end - 1] == '\r' ||
          s[end - 1] == '\n')) {
    --end;
  }
  return s.substr(begin, end - begin);
}

std::string FormatDouble(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  std::string s(buf);
  if (s.find('.') != std::string::npos) {
    size_t last = s.find_last_not_of('0');
    if (s[last] == '.') --last;
    s.erase(last + 1);
  }
  return s;
}

Result<double> ParseDouble(std::string_view text) {
  std::string field(StripWhitespace(text));
  if (field.empty()) {
    return Status::InvalidArgument("expected a number, got empty text");
  }
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(field.c_str(), &end);
  if (end == field.c_str() || *end != '\0') {
    return Status::InvalidArgument("'" + field + "' is not a number");
  }
  if (errno == ERANGE || !std::isfinite(v)) {
    return Status::OutOfRange("'" + field + "' is out of range for a double");
  }
  return v;
}

Result<uint64_t> ParseUint64(std::string_view text) {
  std::string field(StripWhitespace(text));
  if (field.empty()) {
    return Status::InvalidArgument("expected an integer, got empty text");
  }
  // strtoull silently negates "-1"; reject any sign explicitly.
  if (field[0] == '-' || field[0] == '+') {
    return Status::InvalidArgument("'" + field +
                                   "' is not an unsigned integer");
  }
  errno = 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(field.c_str(), &end, 10);
  if (end == field.c_str() || *end != '\0') {
    return Status::InvalidArgument("'" + field +
                                   "' is not an unsigned integer");
  }
  if (errno == ERANGE) {
    return Status::OutOfRange("'" + field + "' overflows a 64-bit integer");
  }
  return static_cast<uint64_t>(v);
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

}  // namespace qarm
