#include "common/status.h"

#include <cstdio>
#include <cstdlib>

namespace hetkg {

std::string_view StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kAlreadyExists:
      return "AlreadyExists";
    case StatusCode::kIoError:
      return "IoError";
    case StatusCode::kCorruption:
      return "Corruption";
    case StatusCode::kFailedPrecondition:
      return "FailedPrecondition";
    case StatusCode::kUnimplemented:
      return "Unimplemented";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kDeadlineExceeded:
      return "DeadlineExceeded";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) {
    return "OK";
  }
  std::string out(StatusCodeName(code_));
  out += ": ";
  out += message_;
  return out;
}

namespace internal {

void DieOnErrorResult(const Status& status) {
  std::fprintf(stderr, "Result::value() on an error: %s\n",
               status.ToString().c_str());
  std::abort();
}

}  // namespace internal

}  // namespace hetkg
