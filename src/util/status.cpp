#include "util/status.hpp"

namespace brickdl {

const char* status_code_name(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "kOk";
    case StatusCode::kInvalidGraph:
      return "kInvalidGraph";
    case StatusCode::kShapeMismatch:
      return "kShapeMismatch";
    case StatusCode::kBadIoMap:
      return "kBadIoMap";
    case StatusCode::kInvalidOptions:
      return "kInvalidOptions";
    case StatusCode::kKernelFailure:
      return "kKernelFailure";
    case StatusCode::kExecutorStall:
      return "kExecutorStall";
    case StatusCode::kBudgetExceeded:
      return "kBudgetExceeded";
    case StatusCode::kOverloaded:
      return "kOverloaded";
    case StatusCode::kDeadlineExceeded:
      return "kDeadlineExceeded";
    case StatusCode::kShuttingDown:
      return "kShuttingDown";
    case StatusCode::kUnknownSchema:
      return "kUnknownSchema";
    case StatusCode::kInternal:
      return "kInternal";
  }
  return "k?";
}

std::string Status::to_string() const {
  if (ok()) return "kOk";
  std::string out = status_code_name(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

void Status::throw_if_error() const {
  if (!ok()) throw StatusError(*this);
}

}  // namespace brickdl
