// Status and Result<T>: exception-free error propagation for recoverable
// failures (bad options, malformed input files). Modeled on the
// Arrow/Abseil style used throughout database C++ codebases.
#ifndef QARM_COMMON_STATUS_H_
#define QARM_COMMON_STATUS_H_

#include <string>
#include <utility>
#include <variant>

#include "common/macros.h"

namespace qarm {

// Coarse error taxonomy; enough to route errors in a library of this size.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kIOError,
  kInternal,
  kCancelled,
};

// Human-readable name of a status code, e.g. "InvalidArgument".
const char* StatusCodeName(StatusCode code);

// A success-or-error value. Cheap to copy on the success path (no message
// allocation), explicit on the failure path.
class Status {
 public:
  // Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  // A run stopped on purpose before completing (SIGINT, a crash-test stop
  // point) — distinct from an error so callers can exit cleanly.
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  // An error whose code the caller chose at run time; `code` must not be
  // kOk.
  static Status Error(StatusCode code, std::string msg) {
    QARM_CHECK(code != StatusCode::kOk);
    return Status(code, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  StatusCode code_;
  std::string message_;
};

// Result<T> holds either a T or a non-OK Status.
template <typename T>
class Result {
 public:
  // Implicit construction from a value or an error keeps call sites terse:
  //   Result<int> F() { return 42; }
  //   Result<int> G() { return Status::InvalidArgument("nope"); }
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  Result(Status status)                          // NOLINT(runtime/explicit)
      : value_(std::move(status)) {
    QARM_CHECK(!std::get<Status>(value_).ok());
  }

  bool ok() const { return std::holds_alternative<T>(value_); }

  const Status& status() const {
    static const Status kOk;
    return ok() ? kOk : std::get<Status>(value_);
  }

  // Value accessors; must only be called when ok().
  const T& value() const& {
    QARM_CHECK(ok());
    return std::get<T>(value_);
  }
  T& value() & {
    QARM_CHECK(ok());
    return std::get<T>(value_);
  }
  T&& value() && {
    QARM_CHECK(ok());
    return std::move(std::get<T>(value_));
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::variant<T, Status> value_;
};

// Propagates a non-OK status to the caller.
#define QARM_RETURN_NOT_OK(expr)        \
  do {                                  \
    ::qarm::Status _st = (expr);        \
    if (!_st.ok()) return _st;          \
  } while (0)

// Assigns the value of a Result expression or propagates its error.
#define QARM_ASSIGN_OR_RETURN(lhs, expr)          \
  auto QARM_CONCAT_(_res_, __LINE__) = (expr);    \
  if (!QARM_CONCAT_(_res_, __LINE__).ok())        \
    return QARM_CONCAT_(_res_, __LINE__).status(); \
  lhs = std::move(QARM_CONCAT_(_res_, __LINE__)).value()

#define QARM_CONCAT_IMPL_(a, b) a##b
#define QARM_CONCAT_(a, b) QARM_CONCAT_IMPL_(a, b)

}  // namespace qarm

#endif  // QARM_COMMON_STATUS_H_
