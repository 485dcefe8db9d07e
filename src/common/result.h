#ifndef QUICK_COMMON_RESULT_H_
#define QUICK_COMMON_RESULT_H_

#include <cassert>
#include <utility>
#include <variant>

#include "common/status.h"

namespace quick {

/// Holds either a value of type T or a non-OK Status (Arrow's Result /
/// absl::StatusOr idiom). Construction from a value or from an error Status
/// is implicit so functions can `return value;` or `return status;`.
template <typename T>
class Result {
 public:
  Result(T value) : repr_(std::move(value)) {}  // NOLINT(runtime/explicit)
  Result(Status status) : repr_(std::move(status)) {  // NOLINT
    assert(!std::get<Status>(repr_).ok() && "Result built from OK status");
  }

  bool ok() const { return std::holds_alternative<T>(repr_); }

  /// Returns OK when a value is held, otherwise the held error.
  Status status() const {
    return ok() ? Status::OK() : std::get<Status>(repr_);
  }

  const T& value() const& {
    assert(ok());
    return std::get<T>(repr_);
  }
  T& value() & {
    assert(ok());
    return std::get<T>(repr_);
  }
  T&& value() && {
    assert(ok());
    return std::get<T>(std::move(repr_));
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  /// `*std::move(result)` moves the value out instead of copying it.
  T&& operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the value, or `fallback` when this Result holds an error.
  T value_or(T fallback) const {
    return ok() ? value() : std::move(fallback);
  }

 private:
  std::variant<Status, T> repr_;
};

/// Evaluates `rexpr` (a Result<T>); on error returns its Status from the
/// enclosing function, otherwise assigns the value to `lhs`.
#define QUICK_ASSIGN_OR_RETURN(lhs, rexpr)          \
  QUICK_ASSIGN_OR_RETURN_IMPL_(                     \
      QUICK_CONCAT_(_result_tmp_, __LINE__), lhs, rexpr)

#define QUICK_CONCAT_INNER_(a, b) a##b
#define QUICK_CONCAT_(a, b) QUICK_CONCAT_INNER_(a, b)
#define QUICK_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, rexpr) \
  auto tmp = (rexpr);                                 \
  if (!tmp.ok()) return tmp.status();                 \
  lhs = std::move(tmp).value()

}  // namespace quick

#endif  // QUICK_COMMON_RESULT_H_
