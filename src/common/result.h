#ifndef BEAS_COMMON_RESULT_H_
#define BEAS_COMMON_RESULT_H_

#include <cassert>
#include <optional>
#include <utility>

#include "common/status.h"

namespace beas {

/// \brief Either a value of type T or an error Status (Arrow-style).
///
/// A Result is in exactly one of two states: it holds a value (and an OK
/// status), or it holds a non-OK status. Accessing the value of an errored
/// Result is a programming error (asserted in debug builds).
template <typename T>
class Result {
 public:
  /// Constructs from a value (implicit, enables `return value;`).
  Result(T value)  // NOLINT(google-explicit-constructor)
      : status_(Status::OK()), value_(std::move(value)) {}

  /// Constructs from a non-OK status (implicit, enables `return status;`).
  Result(Status status)  // NOLINT(google-explicit-constructor)
      : status_(std::move(status)) {
    assert(!status_.ok() && "Result constructed from OK status without value");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  /// Returns the contained value; requires ok().
  T& ValueOrDie() & {
    assert(ok());
    return *value_;
  }
  const T& ValueOrDie() const& {
    assert(ok());
    return *value_;
  }
  T&& ValueOrDie() && {
    assert(ok());
    return std::move(*value_);
  }

  T& operator*() & { return ValueOrDie(); }
  const T& operator*() const& { return ValueOrDie(); }
  T* operator->() { return &ValueOrDie(); }
  const T* operator->() const { return &ValueOrDie(); }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace beas

/// Evaluates an expression returning Result<T>; on error, propagates the
/// status; on success, assigns the value to `lhs`.
#define BEAS_ASSIGN_OR_RETURN_IMPL(tmp, lhs, expr) \
  auto tmp = (expr);                               \
  if (!tmp.ok()) return tmp.status();              \
  lhs = std::move(tmp).ValueOrDie();

#define BEAS_ASSIGN_OR_RETURN_CONCAT(x, y) x##y
#define BEAS_ASSIGN_OR_RETURN_NAME(x, y) BEAS_ASSIGN_OR_RETURN_CONCAT(x, y)

#define BEAS_ASSIGN_OR_RETURN(lhs, expr) \
  BEAS_ASSIGN_OR_RETURN_IMPL(            \
      BEAS_ASSIGN_OR_RETURN_NAME(_beas_result_, __COUNTER__), lhs, expr)

#endif  // BEAS_COMMON_RESULT_H_
