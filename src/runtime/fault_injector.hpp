// Deterministic adversarial fault injection for the cross-enclave message
// boundary.
//
// Privagic's queues live in unsafe memory (§7.3.2), so the hardened threat
// model grants the attacker full control over them: messages can be dropped,
// duplicated, reordered, corrupted, or delayed at will. The FaultInjector
// models exactly that attacker, interposed on every Mailbox::push. Two modes,
// freely combined:
//
//   * probabilistic — per-fault-kind probabilities drawn from a seeded
//     xoshiro256** stream (support/rng.hpp), so a "10% drop rate" sweep
//     reproduces bit-identically run-to-run;
//   * scripted     — an explicit fault plan mapping boundary-crossing index
//     (0-based, in push order) to a fault kind. Scripted entries override
//     the probabilistic draw at their index. This is what the regression
//     tests use: "drop exactly the 5th message" is reproducible forever.
//
// Reordered/delayed messages are *held back* per channel and released after
// later pushes to the same channel, so a fault never migrates a message
// between mailboxes. A held message with no subsequent traffic behaves like
// a drop — which is precisely what the recovery protocol (workers.hpp) must
// tolerate anyway.
//
// The injector is a test/bench harness: it uses a mutex internally and is
// safe to share across all channels of a runtime.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "runtime/message.hpp"
#include "support/rng.hpp"

namespace privagic::runtime {

enum class FaultKind : std::uint8_t {
  kNone = 0,
  kDrop,       // message vanishes
  kDuplicate,  // message delivered twice
  kReorder,    // message held back behind the next one on the same channel
  kCorrupt,    // payload bits flipped (MAC left stale → detectable under a guard)
  kDelay,      // message held back for cfg.delay_crossings pushes on the channel
  kCrash,      // the receiving worker's enclave dies as this message lands
};

[[nodiscard]] const char* fault_kind_name(FaultKind kind);

struct FaultConfig {
  std::uint64_t seed = 1;  // RNG seed for the probabilistic mode
  // Per-crossing fault probabilities; their sum must be <= 1.
  double drop = 0.0;
  double duplicate = 0.0;
  double reorder = 0.0;
  double corrupt = 0.0;
  double delay = 0.0;
  // Probability that a crossing kills the *receiving* worker: a kCrash
  // control message is queued ahead of the (still delivered) message, so the
  // enclave dies just as the request reaches it. Meaningful only against a
  // runtime with crash recovery enabled (workers.hpp CheckpointOptions);
  // without it the victim color is poisoned.
  double crash = 0.0;
  // A delayed message is released after this many later pushes to its
  // channel (reorder always uses 1).
  int delay_crossings = 2;
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultConfig config);

  /// Scripts the fault applied at boundary crossing @p index (0-based, in
  /// global classification order). Overrides the probabilistic draw.
  void script(std::uint64_t index, FaultKind kind);

  /// Classifies the next boundary crossing and counts it. Thread-safe.
  FaultKind classify();

  /// Applies a fault decision to @p m for channel @p channel: appends the
  /// messages to actually deliver *now* to @p out (0 for a drop, 2 for a
  /// duplicate, a corrupted copy for kCorrupt) plus any previously held
  /// messages that are now due on this channel.
  void filter(std::size_t channel, const Message& m, std::vector<Message>& out);

  /// Releases every held message of @p channel into @p out (shutdown drain).
  void flush(std::size_t channel, std::vector<Message>& out);

  /// Injected-fault counts, per kind — the ground truth the RuntimeStats
  /// counters are checked against in deterministic mode.
  struct Counts {
    std::uint64_t crossings = 0;
    std::uint64_t drops = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t reorders = 0;
    std::uint64_t corrupts = 0;
    std::uint64_t delays = 0;
    std::uint64_t crashes = 0;
  };
  [[nodiscard]] Counts counts() const;

 private:
  struct Held {
    Message message;
    std::uint64_t due_at_push = 0;  // channel push count at which to release
  };
  struct Channel {
    std::uint64_t pushes = 0;
    std::vector<Held> held;
  };

  FaultKind classify_locked();
  void count_locked(FaultKind kind);
  Message corrupted_copy(const Message& m);

  mutable std::mutex mu_;
  FaultConfig config_;
  Xoshiro256 rng_;
  std::map<std::uint64_t, FaultKind> plan_;
  std::map<std::size_t, Channel> channels_;
  Counts counts_;
};

}  // namespace privagic::runtime
