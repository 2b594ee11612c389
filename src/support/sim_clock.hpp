// Simulated time.
//
// Every benchmark in this repository reports *simulated* nanoseconds
// accumulated by the SGX cost model (see src/sgx/cost_model.hpp) rather than
// wall-clock time. This keeps the figures deterministic and lets a laptop
// reproduce the relative shape of results the paper measured on SGX hardware.
#pragma once

#include <chrono>
#include <cstdint>

namespace privagic {

/// A monotone accumulator of simulated nanoseconds. One per simulated thread.
class SimClock {
 public:
  /// Advances simulated time by @p ns nanoseconds.
  void advance_ns(double ns) { now_ns_ += ns; }

  /// Current simulated time since construction, in nanoseconds.
  [[nodiscard]] double now_ns() const { return now_ns_; }

  /// Resets the clock to zero (between benchmark phases).
  void reset() { now_ns_ = 0.0; }

  /// Synchronization helper: after a blocking wait on another simulated
  /// thread, the waiter's clock jumps forward to the producer's time if the
  /// producer is ahead (time cannot flow backwards).
  void join_at_least(double other_now_ns) {
    if (other_now_ns > now_ns_) now_ns_ = other_now_ns;
  }

 private:
  double now_ns_ = 0.0;
};

/// A point in *simulated* time a benchmark must finish a recovery by. Used by
/// the fault-sweep bench to account retry/backoff latency in the same
/// deterministic nanoseconds as every other figure, instead of wall time.
class SimDeadline {
 public:
  SimDeadline(const SimClock& clock, double budget_ns)
      : clock_(&clock), expiry_ns_(clock.now_ns() + budget_ns) {}

  [[nodiscard]] bool expired() const { return clock_->now_ns() >= expiry_ns_; }
  [[nodiscard]] double remaining_ns() const {
    const double left = expiry_ns_ - clock_->now_ns();
    return left > 0.0 ? left : 0.0;
  }

 private:
  const SimClock* clock_;
  double expiry_ns_;
};

/// A wall-clock deadline for the *functional* runtime (timed waits), where
/// real threads block on real condition variables. Monotonic.
class Deadline {
 public:
  static Deadline after(std::chrono::milliseconds budget) {
    return Deadline(std::chrono::steady_clock::now() + budget);
  }
  /// A deadline that never expires (the seed runtime's behavior).
  static Deadline never() { return Deadline(std::chrono::steady_clock::time_point::max()); }

  [[nodiscard]] bool expired() const {
    return std::chrono::steady_clock::now() >= at_;
  }
  [[nodiscard]] std::chrono::steady_clock::time_point time_point() const { return at_; }

 private:
  explicit Deadline(std::chrono::steady_clock::time_point at) : at_(at) {}
  std::chrono::steady_clock::time_point at_;
};

}  // namespace privagic
