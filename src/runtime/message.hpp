// Inter-enclave messages (§7.3.2): spawn starts a chunk on another enclave's
// worker, cont carries an F value, ack is a completion/barrier token.
//
// Because the queues live in *unsafe* memory, the hardened threat model lets
// an attacker drop, duplicate, reorder, corrupt, or forge any of these. Two
// fields defend the protocol (the §8 extension, grown into a full recovery
// path — see DESIGN.md "Fault model & recovery"):
//   * `seq`  — a sequence number, monotonic per target mailbox, stamped on
//     every legitimate send. Receivers discard a seq they have already consumed,
//     which makes sender-side retransmission (and attacker duplication)
//     idempotent. 0 means "unsequenced" (raw injected traffic).
//   * `auth` — a MAC over all semantic fields + seq under a secret shared by
//     the enclaves but not by the attacker. 0 when the guard is disabled.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "support/rng.hpp"

namespace privagic::runtime {

enum class MsgKind : std::uint8_t { kSpawn, kCont, kAck, kStop, kPoison, kCrash };

struct Message {
  MsgKind kind = MsgKind::kCont;
  std::int64_t tag = 0;      // cont/ack matching tag
  std::int64_t payload = 0;  // cont payload

  // Spawn fields (trampoline invocation arguments).
  std::uint64_t chunk = 0;
  std::int64_t tags = 0;
  std::int64_t leader = 0;
  std::int64_t flags = 0;

  // Sequence number, monotonic per target mailbox (0 = unsequenced; see above).
  std::uint64_t seq = 0;

  // Message authentication (the §8 extension): a MAC over the fields above
  // under a secret shared by the enclaves but not by the attacker, who
  // controls the queues in unsafe memory. 0 when the guard is disabled.
  std::uint64_t auth = 0;

  static Message spawn(std::uint64_t chunk, std::int64_t tags, std::int64_t leader,
                       std::int64_t flags) {
    Message m;
    m.kind = MsgKind::kSpawn;
    m.chunk = chunk;
    m.tags = tags;
    m.leader = leader;
    m.flags = flags;
    return m;
  }
  static Message cont(std::int64_t tag, std::int64_t payload) {
    Message m;
    m.kind = MsgKind::kCont;
    m.tag = tag;
    m.payload = payload;
    return m;
  }
  static Message ack(std::int64_t tag) {
    Message m;
    m.kind = MsgKind::kAck;
    m.tag = tag;
    return m;
  }
  static Message stop() {
    Message m;
    m.kind = MsgKind::kStop;
    return m;
  }
  /// Synthetic control message the watchdog uses to unwedge a worker that is
  /// blocked past its deadline. Never crosses the injector and never forged
  /// (it is produced and consumed inside the same runtime object).
  static Message poison() {
    Message m;
    m.kind = MsgKind::kPoison;
    return m;
  }
  /// Kill signal for the worker that pops it: the enclave aborts on the spot,
  /// losing every byte of in-enclave state (DESIGN.md §12). Produced by the
  /// FaultInjector's crash mode or ThreadRuntime::inject_crash; like kPoison
  /// it is runtime-internal control and carries no seq/MAC — the threat model
  /// already grants the attacker the power to kill an enclave at will (a
  /// denial, never a disclosure).
  static Message crash() {
    Message m;
    m.kind = MsgKind::kCrash;
    return m;
  }

  [[nodiscard]] bool is_control() const {
    return kind == MsgKind::kSpawn || kind == MsgKind::kStop ||
           kind == MsgKind::kPoison || kind == MsgKind::kCrash;
  }
};

/// A fixed-capacity run of messages bound for one mailbox — the slot type of
/// the sender-side batching slab (workers.hpp). One MessageBatch per target
/// color lives inline in the sending thread's OutboxSet, so enqueueing a
/// message is a single struct copy into pre-owned storage: the batched call
/// path allocates nothing per message. kCapacity bounds how many messages can
/// ever be deferred between two flush points; RecoveryOptions::max_batch may
/// lower (never raise) the effective bound.
struct MessageBatch {
  static constexpr std::size_t kCapacity = 16;

  std::array<Message, kCapacity> slots{};
  std::size_t count = 0;

  [[nodiscard]] bool empty() const { return count == 0; }
  [[nodiscard]] const Message* data() const { return slots.data(); }

  /// Appends @p m; the caller must flush before appending past capacity.
  void push(const Message& m) { slots[count++] = m; }

  void clear() { count = 0; }
};

/// MAC over every semantic field of @p m (stand-in for the HMAC a production
/// runtime would compute inside the enclave). Returns 0 when the guard is
/// disabled (secret 0); otherwise never 0, so "unsigned" is always invalid
/// under a guard.
[[nodiscard]] inline std::uint64_t message_mac(const Message& m, std::uint64_t secret) {
  if (secret == 0) return 0;
  std::uint64_t h = secret;
  for (std::uint64_t field :
       {static_cast<std::uint64_t>(m.kind), static_cast<std::uint64_t>(m.tag),
        static_cast<std::uint64_t>(m.payload), m.chunk, static_cast<std::uint64_t>(m.tags),
        static_cast<std::uint64_t>(m.leader), static_cast<std::uint64_t>(m.flags), m.seq}) {
    h = fmix64(h ^ field);
  }
  return h | 1;
}

}  // namespace privagic::runtime
