// Status and Result<T>: exception-free error propagation across module
// boundaries, in the style of LevelDB/RocksDB.
#ifndef OPT_UTIL_STATUS_H_
#define OPT_UTIL_STATUS_H_

#include <cassert>
#include <string>
#include <utility>
#include <variant>

namespace opt {

/// Error taxonomy for the whole library. Codes are stable and coarse;
/// the message carries the detail.
enum class StatusCode : int {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kIOError = 3,
  kCorruption = 4,
  kOutOfRange = 5,
  kResourceExhausted = 6,
  kInternal = 7,
  kNotSupported = 8,
  kAborted = 9,
  /// Transient service-level degradation: the operation failed for a
  /// reason that is expected to heal (storage faults that exhausted
  /// their retry budget, a wedged page load, an overloaded backend).
  /// Callers may retry the whole request; partial results may accompany
  /// it (see QueryResult::degraded).
  kUnavailable = 10,
  /// The object is not in a state that allows the call (e.g. a sink
  /// used after Finish).
  kFailedPrecondition = 11,
};

/// Returns a short human-readable name for `code` ("OK", "IOError", ...).
const char* StatusCodeName(StatusCode code);

/// A Status is either OK (cheap, no allocation) or an error code plus a
/// message. Functions that can fail return Status (or Result<T>).
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status NotSupported(std::string msg) {
    return Status(StatusCode::kNotSupported, std::move(msg));
  }
  static Status Aborted(std::string msg) {
    return Status(StatusCode::kAborted, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  bool IsIOError() const { return code_ == StatusCode::kIOError; }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsCorruption() const { return code_ == StatusCode::kCorruption; }
  bool IsInvalidArgument() const {
    return code_ == StatusCode::kInvalidArgument;
  }
  bool IsUnavailable() const { return code_ == StatusCode::kUnavailable; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

/// Result<T> is a value or an error Status. Access to the value of a
/// non-OK result is a programming error (asserts in debug builds).
template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)) {}          // NOLINT(runtime/explicit)
  Result(Status status) : value_(std::move(status)) {    // NOLINT(runtime/explicit)
    assert(!std::get<Status>(value_).ok());
  }

  bool ok() const { return std::holds_alternative<T>(value_); }

  const Status& status() const {
    static const Status kOk;
    if (ok()) return kOk;
    return std::get<Status>(value_);
  }

  T& value() {
    assert(ok());
    return std::get<T>(value_);
  }
  const T& value() const {
    assert(ok());
    return std::get<T>(value_);
  }

  T& operator*() { return value(); }
  const T& operator*() const { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  std::variant<T, Status> value_;
};

}  // namespace opt

/// Propagates a non-OK Status to the caller.
#define OPT_RETURN_IF_ERROR(expr)            \
  do {                                       \
    ::opt::Status _st = (expr);              \
    if (!_st.ok()) return _st;               \
  } while (0)

/// Assigns the value of a Result expression or propagates its error.
#define OPT_ASSIGN_OR_RETURN(lhs, expr)      \
  OPT_ASSIGN_OR_RETURN_IMPL_(                \
      OPT_STATUS_CONCAT_(_res, __LINE__), lhs, expr)

#define OPT_ASSIGN_OR_RETURN_IMPL_(res, lhs, expr) \
  auto res = (expr);                               \
  if (!res.ok()) return res.status();              \
  lhs = std::move(res.value())

#define OPT_STATUS_CONCAT_INNER_(a, b) a##b
#define OPT_STATUS_CONCAT_(a, b) OPT_STATUS_CONCAT_INNER_(a, b)

#endif  // OPT_UTIL_STATUS_H_
