// Lightweight error propagation for operations that can fail on user input
// (file parsing, netlist construction from external text, ...) and — since
// the serving layer — for structured job failures (cancellation, deadlines,
// admission rejections).
//
// The library does not throw across its public API; fallible factories return
// StatusOr<T>. Internal contract violations use assertions / logic_error and
// indicate bugs, not bad input. The one sanctioned exception type is
// StatusError, which carries a Status across an execution boundary that has a
// structured catch at the top (the job runner in serve/job.cpp): cooperative
// cancellation and fault injection throw it out of deep kernels, and the job
// system converts it back into the job's Status.
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

namespace statsizer {

/// Canonical error codes, a minimal subset of the absl/gRPC taxonomy. Codes
/// classify failures for programmatic handling (admission control retries on
/// kResourceExhausted, the job system retries kUnavailable); the message
/// stays the human-readable payload.
enum class StatusCode {
  kOk = 0,
  /// The caller's input is wrong (parse errors, unknown names, bad ranges).
  /// Retrying the identical request cannot succeed.
  kInvalidArgument,
  /// A cooperative deadline expired before the operation finished.
  kDeadlineExceeded,
  /// The operation was cancelled by its owner before completion.
  kCancelled,
  /// Admission control rejected the request (queue depth / in-flight memory
  /// over limit). The condition is load-dependent: retry after backing off.
  kResourceExhausted,
  /// A transient dependency failure (the code deterministic fault injection
  /// uses for "flaky" faults). Nothing re-runs the operation: the client
  /// decides whether to resend it.
  kUnavailable,
  /// Everything else: an unexpected exception escaping a job, a broken
  /// invariant surfacing as Status instead of a crash.
  kInternal,
};

/// Canonical lower_snake_case name ("invalid_argument", ...), the spelling
/// the newline-JSON server protocol uses on the wire.
[[nodiscard]] constexpr std::string_view to_string(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kInvalidArgument: return "invalid_argument";
    case StatusCode::kDeadlineExceeded: return "deadline_exceeded";
    case StatusCode::kCancelled: return "cancelled";
    case StatusCode::kResourceExhausted: return "resource_exhausted";
    case StatusCode::kUnavailable: return "unavailable";
    case StatusCode::kInternal: return "internal";
  }
  return "internal";
}

/// Outcome of a fallible operation: ok, or an error with a canonical code and
/// a human-readable message (including source location info where available,
/// e.g. "line 12: ...").
class Status {
 public:
  /// Successful status.
  Status() = default;

  /// Failed status carrying @p message. The default code is kInternal —
  /// call sites that know the failure class use the named factories below
  /// (or pass a code explicitly) so callers can branch on code().
  static Status error(std::string message, StatusCode code = StatusCode::kInternal) {
    Status s;
    s.message_ = std::move(message);
    s.code_ = code == StatusCode::kOk ? StatusCode::kInternal : code;
    return s;
  }

  static Status invalid_argument(std::string message) {
    return error(std::move(message), StatusCode::kInvalidArgument);
  }
  static Status deadline_exceeded(std::string message) {
    return error(std::move(message), StatusCode::kDeadlineExceeded);
  }
  static Status cancelled(std::string message) {
    return error(std::move(message), StatusCode::kCancelled);
  }
  static Status resource_exhausted(std::string message) {
    return error(std::move(message), StatusCode::kResourceExhausted);
  }
  static Status unavailable(std::string message) {
    return error(std::move(message), StatusCode::kUnavailable);
  }
  static Status internal(std::string message) {
    return error(std::move(message), StatusCode::kInternal);
  }

  [[nodiscard]] bool ok() const { return code_ == StatusCode::kOk; }
  [[nodiscard]] StatusCode code() const { return code_; }
  [[nodiscard]] const std::string& message() const { return message_; }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// The sanctioned exception carrier for structured failures that must unwind
/// out of deep kernels (cooperative cancellation/deadline checkpoints, fault
/// injection). Thrown by util::checkpoint, caught by the job runner, which
/// stores the payload as the job's Status. what() is the status message.
class StatusError : public std::runtime_error {
 public:
  explicit StatusError(Status status)
      : std::runtime_error(status.message()), status_(std::move(status)) {}

  [[nodiscard]] const Status& status() const { return status_; }

 private:
  Status status_;
};

/// A value or an error. Minimal analogue of absl::StatusOr.
template <typename T>
class StatusOr {
 public:
  // NOLINTNEXTLINE(google-explicit-constructor): implicit by design, mirrors absl.
  StatusOr(T value) : value_(std::move(value)) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  StatusOr(Status status) : status_(std::move(status)) {}

  [[nodiscard]] bool ok() const { return status_.ok() && value_.has_value(); }
  [[nodiscard]] const Status& status() const { return status_; }

  /// Precondition: ok().
  [[nodiscard]] const T& value() const& { return *value_; }
  [[nodiscard]] T& value() & { return *value_; }
  [[nodiscard]] T&& value() && { return std::move(*value_); }

  [[nodiscard]] const T& operator*() const& { return *value_; }
  [[nodiscard]] T& operator*() & { return *value_; }
  [[nodiscard]] const T* operator->() const { return &*value_; }
  [[nodiscard]] T* operator->() { return &*value_; }

 private:
  std::optional<T> value_;
  Status status_;
};

}  // namespace statsizer
