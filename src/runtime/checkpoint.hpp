// Crash recovery for enclave workers: sealed checkpoints, a write-ahead
// protocol journal, and the simulated re-attestation handshake (DESIGN.md
// §12).
//
// The §6 recovery layer survives faults on the *wire*; this subsystem
// survives the death of an enclave itself. The model follows real SGX
// sealing: everything an enclave needs to resume — its memory image and the
// protocol-visible state of its in-flight chunk — lives OUTSIDE the enclave,
// in unsafe memory, protected not by isolation but by cryptography:
//
//   * SealedCheckpoint — a point-in-time snapshot of one color's state (the
//     receive dedup window + the embedder's memory image), MAC'd under the
//     enclave-held secret and stamped with the enclave measurement and a
//     monotonic epoch. The attacker can read it (our simulation skips the
//     encryption half of sealing; nothing downstream depends on secrecy) but
//     cannot forge it, and cannot roll it back: the current epoch lives in a
//     trusted monotonic counter the attacker does not control.
//   * JournalEntry — one protocol event (chunk start/end, send, receive)
//     appended after the snapshot it extends. Entries are MAC-chained, so
//     truncating or splicing the journal is as detectable as editing it.
//     Snapshot + journal = an *incremental* checkpoint: compaction folds the
//     journal back into a fresh snapshot at quiescent points.
//   * verify_checkpoint — the re-attestation gate a restarted (or
//     failing-over) worker must pass before any of the above is trusted:
//     measurement match, MAC check, epoch-exact match against the trusted
//     counter, journal chain replay. Stale and tampered presentations are
//     distinguished because they mean different attacks (rollback vs
//     forgery) and are counted separately.
//
// Recovery itself (who restarts, who replays, exactly-once semantics) lives
// in workers.hpp; this header is the data model plus the pure checks, so the
// tests can attack the sealed bytes directly.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "runtime/message.hpp"
#include "support/rng.hpp"

namespace privagic::runtime {

/// Protocol points at which a test can arm a deterministic crash for one
/// color (ThreadRuntime::arm_crash). The injector's probabilistic crash mode
/// lands at kWaitEntry (the kCrash control message is consumed by a wait);
/// the other points pin the nastier interleavings the tests need.
enum class CrashPoint : std::uint8_t {
  kWaitEntry = 0,   // entering a blocking wait (also: kCrash message consumed)
  kPreSend,         // in send(), before the message is sequenced or journaled
  kMidBatch,        // in flush_one(), after push_batch, before accounting
  kPostCheckpoint,  // right after a compaction sealed a fresh snapshot
};
inline constexpr std::size_t kNumCrashPoints = 4;

[[nodiscard]] inline const char* crash_point_name(CrashPoint p) {
  switch (p) {
    case CrashPoint::kWaitEntry: return "wait-entry";
    case CrashPoint::kPreSend: return "pre-send";
    case CrashPoint::kMidBatch: return "mid-batch";
    case CrashPoint::kPostCheckpoint: return "post-checkpoint";
  }
  return "?";
}

/// One protocol event in a color's write-ahead journal, appended BEFORE its
/// visible effect. Replay walks these in order: kChunkStart re-dispatches the
/// chunk, kRecv feeds the chunk the value it consumed the first time, kSend
/// re-pushes the logged message (original seq — the receiver's dedup window
/// makes it land at most once), kSelfSend is a no-op (its matching kRecv is
/// replayed too), kChunkDone closes the frame.
enum class JournalOp : std::uint8_t { kChunkStart, kChunkDone, kSend, kSelfSend, kRecv };

struct JournalEntry {
  JournalOp op = JournalOp::kRecv;
  std::uint64_t target = 0;  // destination color for kSend
  Message msg;               // the full message (carries seq + auth for kSend)
  std::uint64_t auth = 0;    // chain MAC: this entry + everything before it
};

/// Chain MAC for one journal entry: binds the entry's fields to the previous
/// entry's auth (the genesis value is the checkpoint's own MAC), so cutting,
/// reordering, or editing any prefix breaks every later link.
[[nodiscard]] inline std::uint64_t journal_entry_mac(JournalOp op, std::uint64_t target,
                                                    const Message& m, std::uint64_t prev,
                                                    std::uint64_t secret) {
  std::uint64_t h = secret ^ prev;
  for (std::uint64_t field :
       {static_cast<std::uint64_t>(op), target, static_cast<std::uint64_t>(m.kind),
        static_cast<std::uint64_t>(m.tag), static_cast<std::uint64_t>(m.payload), m.chunk,
        static_cast<std::uint64_t>(m.tags), static_cast<std::uint64_t>(m.leader),
        static_cast<std::uint64_t>(m.flags), m.seq, m.auth}) {
    h = fmix64(h ^ field);
  }
  return h | 1;
}

/// A sealed point-in-time snapshot of one color's recoverable state. Lives
/// (conceptually) in unsafe memory: readable and replaceable by the
/// attacker, but not forgeable (mac) and not rewindable (epoch is checked
/// against a trusted monotonic counter at re-attestation).
struct SealedCheckpoint {
  std::uint64_t epoch = 0;        // bumped on every seal; anti-rollback
  std::uint64_t measurement = 0;  // identity of the enclave that sealed it
  std::vector<std::byte> payload; // dedup window + embedder state image
  std::uint64_t mac = 0;
};

/// Simulated MRENCLAVE: a deterministic digest of the runtime instance, the
/// color, and the shared secret. A replica of the same color in the same
/// runtime reproduces it; anything else fails the measurement check.
[[nodiscard]] inline std::uint64_t enclave_measurement(std::uint64_t runtime_uid,
                                                      std::size_t color,
                                                      std::uint64_t secret) {
  return fmix64(fmix64(runtime_uid ^ secret) ^ (0x9E37'79B9u + color)) | 1;
}

[[nodiscard]] inline std::uint64_t checkpoint_mac(const SealedCheckpoint& cp,
                                                  std::uint64_t secret) {
  std::uint64_t h = fmix64(secret ^ cp.epoch);
  h = fmix64(h ^ cp.measurement);
  h = fmix64(h ^ cp.payload.size());
  for (std::size_t i = 0; i < cp.payload.size(); ++i) {
    h = fmix64(h ^ (static_cast<std::uint64_t>(cp.payload[i]) + i));
  }
  return h | 1;
}

/// Outcome of the re-attestation handshake over a presented checkpoint.
enum class AttestVerdict : std::uint8_t {
  kOk = 0,
  kStale,     // epoch behind the trusted counter: a rollback replay
  kTampered,  // measurement/MAC/journal-chain mismatch: forged bytes
};

/// The full re-attestation check a restarting worker runs before trusting
/// @p cp and @p journal. @p expected_epoch comes from the trusted monotonic
/// counter; @p expected_measurement from re-deriving the enclave identity.
[[nodiscard]] inline AttestVerdict verify_checkpoint(
    const SealedCheckpoint& cp, const std::vector<JournalEntry>& journal,
    std::uint64_t expected_measurement, std::uint64_t expected_epoch,
    std::uint64_t secret) {
  if (cp.measurement != expected_measurement) return AttestVerdict::kTampered;
  if (cp.mac != checkpoint_mac(cp, secret)) return AttestVerdict::kTampered;
  if (cp.epoch != expected_epoch) return AttestVerdict::kStale;
  std::uint64_t prev = cp.mac;
  for (const JournalEntry& e : journal) {
    if (e.auth != journal_entry_mac(e.op, e.target, e.msg, prev, secret)) {
      return AttestVerdict::kTampered;
    }
    prev = e.auth;
  }
  return AttestVerdict::kOk;
}

/// Knobs for per-color checkpointing, crash handling, and hot failover.
/// Disabled by default; a runtime without it treats a crash as fatal for the
/// victim color (poisoned, waiters drain with kWorkerPoisoned).
struct CheckpointOptions {
  bool enabled = false;
  /// Keep one warm standby replica per enclave color. On a crash the standby
  /// — already attested off the critical path — takes over the mailbox and
  /// replays the journal; the dead worker re-attests in the background and
  /// becomes the new standby. Without it the single worker restarts cold, on
  /// the critical path.
  bool hot_failover = false;
  /// Journal length at which a top-level chunk completion folds the journal
  /// into a fresh sealed snapshot. Soft target: compaction only happens at
  /// quiescent points (never mid-chunk), so a long chunk can overshoot it.
  std::size_t checkpoint_interval = 64;
  /// Burn the simulated restart time (sgx::CostParams) as wall-clock time
  /// too, on the paths where the victim would feel it. The cost is always
  /// charged into RuntimeStats::restart_ns_charged; sleeping is what makes
  /// the failover throughput floor in bench/fault_sweep an honest comparison.
  bool sleep_on_restart = true;
  /// Embedder state capture: serialize color @p c's memory image (the
  /// interpreter snapshots the color's SimMemory regions). Absent = the
  /// embedder has no state beyond the protocol window (bench harnesses).
  std::function<std::vector<std::byte>(std::size_t)> state_snapshot;
  std::function<void(std::size_t, std::span<const std::byte>)> state_restore;
};

}  // namespace privagic::runtime
