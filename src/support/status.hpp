// Lightweight error-handling vocabulary used across the Privagic codebase.
//
// Compiler-style code wants to *accumulate* diagnostics rather than abort on
// the first problem, so the primary tool here is DiagnosticEngine (see
// diagnostics.hpp). Status/Result cover the simpler "this single operation
// failed" cases (parsing, runtime setup, ...).
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>

namespace privagic {

/// Machine-readable failure kind, so callers can branch on *why* an
/// operation failed instead of string-matching messages. kGeneric is the
/// catch-all used by the legacy message-only constructor path.
enum class StatusCode {
  kOk = 0,
  kGeneric,         // unclassified failure (message-only ctor)
  kTimeout,         // a wait exceeded its configured deadline (no retransmission ran)
  kCorrupt,         // a message failed its integrity check (MAC mismatch)
  kForged,          // a spawn failed authentication (§8 spawn guard)
  kWorkerPoisoned,  // a worker was marked unrecoverable; its waiters drained
  kShutdown,        // the runtime stopped while the operation was pending
  kWatchdogTimeout,      // the watchdog unwedged this worker's blocked wait
  kRetransmitExhausted,  // every retry retransmitted and the window still ran dry
  kAttestationFailed,    // a restarting enclave presented a stale/tampered checkpoint
  kEpcExhausted,         // an allocation exceeded a color's enforced EPC budget
};

/// Short stable name for a code ("timeout", "worker-poisoned", ...).
[[nodiscard]] inline const char* status_code_name(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kGeneric: return "error";
    case StatusCode::kTimeout: return "timeout";
    case StatusCode::kCorrupt: return "corrupt";
    case StatusCode::kForged: return "forged";
    case StatusCode::kWorkerPoisoned: return "worker-poisoned";
    case StatusCode::kShutdown: return "shutdown";
    case StatusCode::kWatchdogTimeout: return "watchdog-timeout";
    case StatusCode::kRetransmitExhausted: return "retransmit-exhausted";
    case StatusCode::kAttestationFailed: return "attestation-failed";
    case StatusCode::kEpcExhausted: return "epc-exhausted";
  }
  return "?";
}

/// Outcome of an operation that can fail with a human-readable message.
class Status {
 public:
  /// Constructs a success value.
  Status() = default;

  /// Constructs a failure carrying @p message (code kGeneric).
  static Status error(std::string message) {
    return Status(StatusCode::kGeneric, std::move(message));
  }

  /// Constructs a failure with an explicit failure kind.
  static Status error(StatusCode code, std::string message) {
    return Status(code, std::move(message));
  }

  [[nodiscard]] bool ok() const { return !message_.has_value(); }
  [[nodiscard]] StatusCode code() const { return code_; }
  [[nodiscard]] const std::string& message() const {
    static const std::string kOk = "ok";
    return message_ ? *message_ : kOk;
  }

  explicit operator bool() const { return ok(); }

 private:
  explicit Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}
  StatusCode code_ = StatusCode::kOk;
  std::optional<std::string> message_;
};

/// A value-or-error sum type. Access to the value of a failed Result throws,
/// which turns silent misuse into a loud test failure.
template <typename T>
class Result {
 public:
  Result(T value) : storage_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Result(Status status) : storage_(std::move(status)) {  // NOLINT(google-explicit-constructor)
    if (std::get<Status>(storage_).ok()) {
      throw std::logic_error("Result constructed from an OK status without a value");
    }
  }

  static Result error(std::string message) { return Result(Status::error(std::move(message))); }

  [[nodiscard]] bool ok() const { return std::holds_alternative<T>(storage_); }

  [[nodiscard]] const T& value() const& {
    require_ok();
    return std::get<T>(storage_);
  }
  [[nodiscard]] T& value() & {
    require_ok();
    return std::get<T>(storage_);
  }
  [[nodiscard]] T&& value() && {
    require_ok();
    return std::get<T>(std::move(storage_));
  }

  [[nodiscard]] const std::string& message() const {
    static const std::string kOk = "ok";
    return ok() ? kOk : std::get<Status>(storage_).message();
  }

  /// The failure Status (an OK status when the Result holds a value), so
  /// callers can branch on `status().code()`.
  [[nodiscard]] Status status() const {
    // Rebuilt from code and message rather than copied: under
    // -fsanitize=address, GCC 12 cannot prove the copy dead when a T is held
    // and warns (-Wmaybe-uninitialized) about Status bytes the T never wrote.
    const Status* failure = std::get_if<Status>(&storage_);
    return failure != nullptr ? Status::error(failure->code(), failure->message()) : Status();
  }

  explicit operator bool() const { return ok(); }

 private:
  void require_ok() const {
    if (!ok()) {
      throw std::runtime_error("Result accessed while holding error: " + message());
    }
  }

  std::variant<T, Status> storage_;
};

}  // namespace privagic
