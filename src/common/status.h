#ifndef BEAS_COMMON_STATUS_H_
#define BEAS_COMMON_STATUS_H_

#include <string>
#include <utility>

namespace beas {

/// \brief Error categories used across the BEAS code base.
///
/// Following the RocksDB/Arrow idiom, BEAS does not use C++ exceptions;
/// every fallible operation returns a Status (or a Result<T>, see result.h).
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kNotImplemented,
  kParseError,        ///< SQL lexing/parsing failed.
  kBindError,         ///< Semantic analysis (name/type resolution) failed.
  kTypeError,         ///< Runtime type mismatch in expression evaluation.
  kConformanceError,  ///< Data violates an access constraint.
  kNotCovered,        ///< Query is not covered by the access schema.
  kBudgetExceeded,    ///< Deduced access bound exceeds the user budget.
  kIoError,           ///< File I/O failure.
  kInternal,          ///< Invariant violation; indicates a bug.
  kDeadlineExceeded,  ///< Query deadline expired before completion.
  kResourceExhausted, ///< Admission control rejected, or disk/queue full.
  kUnavailable,       ///< Subsystem latched/refusing work (e.g. WAL shard).
  kCorruption,        ///< Stored bytes fail integrity checks (CRC, framing).
};

/// \brief Returns a short human-readable name for a status code.
const char* StatusCodeToString(StatusCode code);

/// \brief Stable machine-readable token for a status code, as carried in
/// wire error bodies ("DEADLINE_EXCEEDED", "RESOURCE_EXHAUSTED", ...).
///
/// Unlike StatusCodeToString (a display name, free to change), these
/// tokens are part of the network protocol's error taxonomy: clients
/// dispatch on them, so they never change once shipped.
const char* StatusCodeName(StatusCode code);

/// \brief Maps a status code onto the HTTP status the JSON adapter
/// answers with — the third leg of the error taxonomy (enum value on the
/// binary wire, token in machine-readable bodies, HTTP code here).
///
/// Client errors (parse/bind/type/argument) map to 400-family codes so a
/// load balancer never retries them; overload and deadline verdicts map
/// to 429/504 so generic HTTP clients back off correctly; kUnavailable is
/// 503 (retryable) while kCorruption and internal faults are 500.
int StatusCodeToHttp(StatusCode code);

/// \brief A lightweight success-or-error value.
///
/// The OK status carries no allocation; error statuses carry a message.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string msg)
      : code_(code), msg_(std::move(msg)) {}

  /// \name Factory helpers, one per StatusCode.
  /// @{
  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status NotImplemented(std::string msg) {
    return Status(StatusCode::kNotImplemented, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status BindError(std::string msg) {
    return Status(StatusCode::kBindError, std::move(msg));
  }
  static Status TypeError(std::string msg) {
    return Status(StatusCode::kTypeError, std::move(msg));
  }
  static Status ConformanceError(std::string msg) {
    return Status(StatusCode::kConformanceError, std::move(msg));
  }
  static Status NotCovered(std::string msg) {
    return Status(StatusCode::kNotCovered, std::move(msg));
  }
  static Status BudgetExceeded(std::string msg) {
    return Status(StatusCode::kBudgetExceeded, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  /// @}

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return msg_; }

  /// Renders e.g. "ParseError: unexpected token".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && msg_ == other.msg_;
  }

 private:
  StatusCode code_;
  std::string msg_;
};

}  // namespace beas

/// Propagates a non-OK Status to the caller.
#define BEAS_RETURN_NOT_OK(expr)                 \
  do {                                           \
    ::beas::Status _st = (expr);                 \
    if (!_st.ok()) return _st;                   \
  } while (0)

#endif  // BEAS_COMMON_STATUS_H_
