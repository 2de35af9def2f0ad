#include "common/output_writer.h"

#include <cerrno>
#include <charconv>
#include <cstdarg>
#include <cstring>

namespace qarm {

OutputWriter::OutputWriter(std::FILE* file)
    : file_(file), buffer_(new char[kBufferBytes]) {}

OutputWriter::OutputWriter(std::string* out) : out_(out) {}

OutputWriter::~OutputWriter() { Flush(); }

void OutputWriter::Write(std::string_view bytes) {
  if (out_ != nullptr) {
    out_->append(bytes);
    return;
  }
  if (!status_.ok()) return;
  if (bytes.size() > kBufferBytes - used_) {
    Flush();
    if (bytes.size() > kBufferBytes) {
      // Larger than the buffer: straight through.
      if (std::fwrite(bytes.data(), 1, bytes.size(), file_) != bytes.size()) {
        status_ = Status::IOError(std::strerror(errno));
      }
      return;
    }
  }
  std::memcpy(buffer_.get() + used_, bytes.data(), bytes.size());
  used_ += bytes.size();
}

void OutputWriter::Format(const char* fmt, ...) {
  char small[256];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(small, sizeof(small), fmt, args);
  va_end(args);
  if (n < 0) return;
  if (static_cast<size_t>(n) < sizeof(small)) {
    Write(std::string_view(small, static_cast<size_t>(n)));
    return;
  }
  std::string large(static_cast<size_t>(n) + 1, '\0');
  va_start(args, fmt);
  std::vsnprintf(large.data(), large.size(), fmt, args);
  va_end(args);
  large.pop_back();
  Write(large);
}

void OutputWriter::WriteFixed(double value, int precision) {
  // std::to_chars prints exactly what printf("%.*f") does, several times
  // faster; a double's "%f" form has at most 309 integer digits.
  char digits[400];
  const std::to_chars_result end =
      std::to_chars(digits, digits + sizeof(digits), value,
                    std::chars_format::fixed, precision);
  if (end.ec != std::errc()) {
    Format("%.*f", precision, value);
    return;
  }
  Write(std::string_view(digits, static_cast<size_t>(end.ptr - digits)));
}

void OutputWriter::WriteUint(uint64_t value) {
  char digits[20];
  const std::to_chars_result end =
      std::to_chars(digits, digits + sizeof(digits), value);
  Write(std::string_view(digits, static_cast<size_t>(end.ptr - digits)));
}

void OutputWriter::Flush() {
  if (file_ == nullptr || used_ == 0) return;
  if (status_.ok() && std::fwrite(buffer_.get(), 1, used_, file_) != used_) {
    status_ = Status::IOError(std::strerror(errno));
  }
  used_ = 0;
}

Status OutputWriter::Finish() {
  Flush();
  if (file_ != nullptr && status_.ok() &&
      (std::fflush(file_) != 0 || std::ferror(file_))) {
    status_ = Status::IOError(std::strerror(errno));
  }
  return status_;
}

}  // namespace qarm
