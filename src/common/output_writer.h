// OutputWriter — the one sink every rule output streams through: the mine
// text, CSV and JSON formats, `qarm rules dump`, and the serving engine's
// response bodies. Bytes collect in a fixed buffer that is flushed to a
// FILE* whenever it fills, so an output of any size costs one buffer of
// memory; a string sink appends straight to its string instead.
//
// A failed write is sticky: later writes are dropped, ok() turns false,
// and Finish() returns the error, so a full disk reaches the exit code
// instead of vanishing.
#ifndef QARM_COMMON_OUTPUT_WRITER_H_
#define QARM_COMMON_OUTPUT_WRITER_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"

namespace qarm {

class OutputWriter {
 public:
  static constexpr size_t kBufferBytes = 64 * 1024;

  // Buffers writes and flushes them to `file`, which stays open.
  explicit OutputWriter(std::FILE* file);
  // Appends every write to `*out`.
  explicit OutputWriter(std::string* out);
  // Flushes what is buffered; call Finish() to see whether it was written.
  ~OutputWriter();

  OutputWriter(const OutputWriter&) = delete;
  OutputWriter& operator=(const OutputWriter&) = delete;

  void Write(std::string_view bytes);
  void Write(char c) { Write(std::string_view(&c, 1)); }
  // printf-style formatting, appended like Write().
  void Format(const char* fmt, ...) __attribute__((format(printf, 2, 3)));
  // `value` as "%.*f" prints it, `precision` digits after the point.
  void WriteFixed(double value, int precision);
  // `value` in decimal.
  void WriteUint(uint64_t value);

  // False once a write has failed.
  bool ok() const { return status_.ok(); }

  // Flushes the buffer and the FILE*; returns the first write error.
  Status Finish();

 private:
  void Flush();

  std::FILE* file_ = nullptr;
  std::string* out_ = nullptr;
  std::unique_ptr<char[]> buffer_;
  size_t used_ = 0;
  Status status_;
};

}  // namespace qarm

#endif  // QARM_COMMON_OUTPUT_WRITER_H_
