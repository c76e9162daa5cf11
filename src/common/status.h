#ifndef HETKG_COMMON_STATUS_H_
#define HETKG_COMMON_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace hetkg {

/// Coarse error taxonomy used across the library. Mirrors the
/// RocksDB/Arrow convention of returning status objects instead of
/// throwing exceptions on hot paths.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kAlreadyExists,
  kIoError,
  kCorruption,
  kFailedPrecondition,
  kUnimplemented,
  kInternal,
  kDeadlineExceeded,
};

/// Returns a stable human-readable name for `code` ("OK",
/// "InvalidArgument", ...).
std::string_view StatusCodeName(StatusCode code);

/// A cheap value type describing the outcome of an operation.
///
/// The OK state carries no allocation; error states carry a code and a
/// message. Statuses are copyable and movable, and `ok()` must be
/// consulted before relying on any produced side effects.
class Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  /// Factory helpers, one per error category.
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
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Renders "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

namespace internal {
/// Prints `status` to stderr and aborts; Result::value() on an error.
[[noreturn]] void DieOnErrorResult(const Status& status);
}  // namespace internal

/// Either a value of type `T` or an error `Status`. Accessing the value
/// of an errored result is a programming error: it aborts with the
/// status text in every build type.
template <typename T>
class Result {
 public:
  /// Implicit construction from a value keeps `return value;` ergonomic.
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)

  /// Implicit construction from an error status. The status must not be
  /// OK: an OK result must carry a value.
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok() && "Result constructed from OK status without value");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    CheckOk();
    return *value_;
  }
  T& value() & {
    CheckOk();
    return *value_;
  }
  T&& value() && {
    CheckOk();
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the contained value, or `fallback` when errored.
  T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  void CheckOk() const {
    if (!ok()) [[unlikely]] internal::DieOnErrorResult(status_);
  }

  std::optional<T> value_;
  Status status_;
};

/// Propagates a non-OK status to the caller.
#define HETKG_RETURN_IF_ERROR(expr)            \
  do {                                         \
    ::hetkg::Status _hetkg_status = (expr);    \
    if (!_hetkg_status.ok()) {                 \
      return _hetkg_status;                    \
    }                                          \
  } while (false)

#define HETKG_INTERNAL_CONCAT2(a, b) a##b
#define HETKG_INTERNAL_CONCAT(a, b) HETKG_INTERNAL_CONCAT2(a, b)

/// Unwraps a Result into `lhs`, propagating errors to the caller.
#define HETKG_ASSIGN_OR_RETURN(lhs, expr)                                 \
  HETKG_INTERNAL_ASSIGN_OR_RETURN(                                        \
      HETKG_INTERNAL_CONCAT(_hetkg_result_, __LINE__), lhs, expr)

#define HETKG_INTERNAL_ASSIGN_OR_RETURN(tmp, lhs, expr) \
  auto tmp = (expr);                                    \
  if (!tmp.ok()) {                                      \
    return tmp.status();                                \
  }                                                     \
  lhs = std::move(tmp).value()

}  // namespace hetkg

#endif  // HETKG_COMMON_STATUS_H_
