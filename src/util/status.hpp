// Classified, recoverable errors for the engine and executors.
//
// BDL_CHECK (util/common.hpp) remains the right tool for *internal*
// invariants — a failed check there is a library bug. Status is for the
// failures a production runtime must survive: malformed graphs handed over
// an API boundary, kernels that fault at run time, workers that stall.
// The engine classifies these, contains them, and degrades (see
// DESIGN.md §7) instead of crashing or hanging.
//
// Result<T> carries either a value or a non-ok Status. Both types are
// [[nodiscard]]: dropping an error on the floor is exactly the silent-UB
// failure mode this layer exists to remove.
#pragma once

#include <optional>
#include <string>
#include <utility>

#include "util/common.hpp"

namespace brickdl {

enum class StatusCode : u8 {
  kOk = 0,
  kInvalidGraph,     ///< malformed IR: cycles, dangling tensors, bad parse
  kShapeMismatch,    ///< stored shapes disagree with shape inference / bindings
  kBadIoMap,         ///< an executor io map is missing a required tensor
  kInvalidOptions,   ///< EngineOptions / executor configuration out of range
  kKernelFailure,    ///< a backend kernel faulted or produced non-finite data
  kExecutorStall,    ///< workers stopped making progress (watchdog exhausted)
  kBudgetExceeded,   ///< a planned subgraph footprint exceeds the on-chip budget
  kOverloaded,       ///< admission refused: the serving queue is at capacity
  kDeadlineExceeded, ///< a request's deadline passed (or cannot be met) — shed
  kShuttingDown,     ///< the server is draining; no new work is admitted
  kUnknownSchema,    ///< a versioned artifact carries an unrecognized schema
  kInternal,         ///< the runtime failed (e.g. threads could not start)
};

const char* status_code_name(StatusCode code);

class [[nodiscard]] Status {
 public:
  Status() = default;  ///< ok
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {
    BDL_CHECK_MSG(code != StatusCode::kOk,
                  "non-default Status must carry an error code");
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "kKernelFailure: <message>" (or "kOk").
  std::string to_string() const;

  /// Throws Error(to_string()) when not ok — the bridge back to the
  /// legacy throwing API surface.
  void throw_if_error() const;

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// Exception wrapper used to carry a Status through layers that only speak
/// exceptions (backend kernels, constructors). Status-returning entry
/// points catch it and hand back the payload unchanged.
class StatusError : public Error {
 public:
  explicit StatusError(Status status)
      : Error(status.to_string()), status_(std::move(status)) {}
  const Status& status() const { return status_; }

 private:
  Status status_;
};

template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    BDL_CHECK_MSG(!status_.ok(), "Result built from an ok Status needs a value");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  T& value() {
    BDL_CHECK_MSG(value_.has_value(), "value() on error Result: "
                                          << status_.to_string());
    return *value_;
  }
  const T& value() const {
    BDL_CHECK_MSG(value_.has_value(), "value() on error Result: "
                                          << status_.to_string());
    return *value_;
  }
  /// Move the value out (throws Error when this holds a status).
  T take() {
    status_.throw_if_error();
    return std::move(*value_);
  }

 private:
  Status status_;
  std::optional<T> value_;
};

#define BDL_RETURN_IF_ERROR(expr)                 \
  do {                                            \
    ::brickdl::Status bdl_status_ = (expr);       \
    if (!bdl_status_.ok()) return bdl_status_;    \
  } while (0)

}  // namespace brickdl
