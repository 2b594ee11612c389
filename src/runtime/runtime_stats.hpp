// Observability + failure vocabulary for the fault-tolerant runtime.
//
// RuntimeStats counts every recovery-relevant event the runtime observes;
// the fault tests assert these against the FaultInjector's scripted fault
// counts, and bench/fault_sweep reports them per fault rate. RuntimeFault is
// the exception the recovery protocol throws when a wait cannot be completed
// — unlike WorkerStopped it *is* a std::exception, because embedders are
// supposed to catch it and turn it into a Status (the interpreter surfaces
// it as a runtime trap).
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "support/status.hpp"

namespace privagic::runtime {

/// Counters for the runtime's own view of faults and recoveries. All relaxed
/// atomics: they order nothing, they only count.
///
/// Concurrency audit (observability PR): every field below is incremented
/// from worker/watchdog threads while the host thread may call snapshot(),
/// so *no* member may be a plain integer — keep new counters atomic. The
/// aggregated snapshot is additionally mirrored into obs::MetricsRegistry by
/// interp::Machine::runtime_stats() when metrics collection is enabled.
struct RuntimeStats {
  // Sequenced sends (spawn/cont/ack). ThreadRuntime never bumps this atomic:
  // its stats_snapshot() derives the count from the per-target seq counters.
  std::atomic<std::uint64_t> messages_sent{0};
  std::atomic<std::uint64_t> duplicates_discarded{0};// seq already consumed
  std::atomic<std::uint64_t> corrupt_dropped{0};     // cont/ack MAC mismatch
  std::atomic<std::uint64_t> forged_spawn_rejects{0};// spawn MAC mismatch (§8 guard)
  std::atomic<std::uint64_t> wait_timeouts{0};       // a timed wait expired once
  std::atomic<std::uint64_t> retries{0};             // backoff rounds after a timeout
  std::atomic<std::uint64_t> retransmits{0};         // messages re-pushed from the sent log
  std::atomic<std::uint64_t> watchdog_fires{0};      // watchdog unwedged a blocked worker
  std::atomic<std::uint64_t> poisoned_workers{0};    // workers marked unrecoverable

  // Batched call path (perf PR). batched_messages / batch_flushes give the
  // mean coalescing factor; slab_highwater is a *maximum* (deepest outbox
  // slot ever flushed), not a sum — snapshot/accumulate treat it as such.
  std::atomic<std::uint64_t> batched_messages{0};    // messages delivered via push_batch
  std::atomic<std::uint64_t> batch_flushes{0};       // outbox flushes (>=1 message each)
  std::atomic<std::uint64_t> calls_elided{0};        // same-color spawns run inline
  std::atomic<std::uint64_t> slab_highwater{0};      // max messages in one flushed slot

  // Crash recovery (DESIGN.md §12). restart_ns_charged is simulated time
  // from the SGX cost model (rebuild + re-attestation), not wall clock.
  std::atomic<std::uint64_t> worker_crashes{0};      // enclave deaths observed
  std::atomic<std::uint64_t> failovers{0};           // warm replica takeovers
  std::atomic<std::uint64_t> cold_restarts{0};       // in-place restarts (no replica)
  std::atomic<std::uint64_t> checkpoints_taken{0};   // journal compactions sealed
  std::atomic<std::uint64_t> checkpoint_bytes{0};    // total sealed payload bytes
  std::atomic<std::uint64_t> journal_entries{0};     // protocol events journaled
  std::atomic<std::uint64_t> replay_entries{0};      // journal entries walked on recovery
  std::atomic<std::uint64_t> replayed_sends{0};      // sends re-pushed during replay
  std::atomic<std::uint64_t> checkpoint_rejects_stale{0};    // re-attest: rollback
  std::atomic<std::uint64_t> checkpoint_rejects_tampered{0}; // re-attest: forged
  std::atomic<std::uint64_t> restart_ns_charged{0};  // simulated restart/attest cost

  /// Monotonic max update for slab_highwater (relaxed CAS loop).
  static void raise_max(std::atomic<std::uint64_t>& a, std::uint64_t v) {
    std::uint64_t cur = a.load(std::memory_order_relaxed);
    while (cur < v && !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  /// Plain-value snapshot (tests, bench rows).
  struct Snapshot {
    std::uint64_t messages_sent = 0;
    std::uint64_t duplicates_discarded = 0;
    std::uint64_t corrupt_dropped = 0;
    std::uint64_t forged_spawn_rejects = 0;
    std::uint64_t wait_timeouts = 0;
    std::uint64_t retries = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t watchdog_fires = 0;
    std::uint64_t poisoned_workers = 0;
    std::uint64_t batched_messages = 0;
    std::uint64_t batch_flushes = 0;
    std::uint64_t calls_elided = 0;
    std::uint64_t slab_highwater = 0;
    std::uint64_t worker_crashes = 0;
    std::uint64_t failovers = 0;
    std::uint64_t cold_restarts = 0;
    std::uint64_t checkpoints_taken = 0;
    std::uint64_t checkpoint_bytes = 0;
    std::uint64_t journal_entries = 0;
    std::uint64_t replay_entries = 0;
    std::uint64_t replayed_sends = 0;
    std::uint64_t checkpoint_rejects_stale = 0;
    std::uint64_t checkpoint_rejects_tampered = 0;
    std::uint64_t restart_ns_charged = 0;
  };

  [[nodiscard]] Snapshot snapshot() const {
    Snapshot s;
    s.messages_sent = messages_sent.load(std::memory_order_relaxed);
    s.duplicates_discarded = duplicates_discarded.load(std::memory_order_relaxed);
    s.corrupt_dropped = corrupt_dropped.load(std::memory_order_relaxed);
    s.forged_spawn_rejects = forged_spawn_rejects.load(std::memory_order_relaxed);
    s.wait_timeouts = wait_timeouts.load(std::memory_order_relaxed);
    s.retries = retries.load(std::memory_order_relaxed);
    s.retransmits = retransmits.load(std::memory_order_relaxed);
    s.watchdog_fires = watchdog_fires.load(std::memory_order_relaxed);
    s.poisoned_workers = poisoned_workers.load(std::memory_order_relaxed);
    s.batched_messages = batched_messages.load(std::memory_order_relaxed);
    s.batch_flushes = batch_flushes.load(std::memory_order_relaxed);
    s.calls_elided = calls_elided.load(std::memory_order_relaxed);
    s.slab_highwater = slab_highwater.load(std::memory_order_relaxed);
    s.worker_crashes = worker_crashes.load(std::memory_order_relaxed);
    s.failovers = failovers.load(std::memory_order_relaxed);
    s.cold_restarts = cold_restarts.load(std::memory_order_relaxed);
    s.checkpoints_taken = checkpoints_taken.load(std::memory_order_relaxed);
    s.checkpoint_bytes = checkpoint_bytes.load(std::memory_order_relaxed);
    s.journal_entries = journal_entries.load(std::memory_order_relaxed);
    s.replay_entries = replay_entries.load(std::memory_order_relaxed);
    s.replayed_sends = replayed_sends.load(std::memory_order_relaxed);
    s.checkpoint_rejects_stale =
        checkpoint_rejects_stale.load(std::memory_order_relaxed);
    s.checkpoint_rejects_tampered =
        checkpoint_rejects_tampered.load(std::memory_order_relaxed);
    s.restart_ns_charged = restart_ns_charged.load(std::memory_order_relaxed);
    return s;
  }

  void accumulate(const Snapshot& s) {
    messages_sent.fetch_add(s.messages_sent, std::memory_order_relaxed);
    duplicates_discarded.fetch_add(s.duplicates_discarded, std::memory_order_relaxed);
    corrupt_dropped.fetch_add(s.corrupt_dropped, std::memory_order_relaxed);
    forged_spawn_rejects.fetch_add(s.forged_spawn_rejects, std::memory_order_relaxed);
    wait_timeouts.fetch_add(s.wait_timeouts, std::memory_order_relaxed);
    retries.fetch_add(s.retries, std::memory_order_relaxed);
    retransmits.fetch_add(s.retransmits, std::memory_order_relaxed);
    watchdog_fires.fetch_add(s.watchdog_fires, std::memory_order_relaxed);
    poisoned_workers.fetch_add(s.poisoned_workers, std::memory_order_relaxed);
    batched_messages.fetch_add(s.batched_messages, std::memory_order_relaxed);
    batch_flushes.fetch_add(s.batch_flushes, std::memory_order_relaxed);
    calls_elided.fetch_add(s.calls_elided, std::memory_order_relaxed);
    raise_max(slab_highwater, s.slab_highwater);  // a max, not a sum
    worker_crashes.fetch_add(s.worker_crashes, std::memory_order_relaxed);
    failovers.fetch_add(s.failovers, std::memory_order_relaxed);
    cold_restarts.fetch_add(s.cold_restarts, std::memory_order_relaxed);
    checkpoints_taken.fetch_add(s.checkpoints_taken, std::memory_order_relaxed);
    checkpoint_bytes.fetch_add(s.checkpoint_bytes, std::memory_order_relaxed);
    journal_entries.fetch_add(s.journal_entries, std::memory_order_relaxed);
    replay_entries.fetch_add(s.replay_entries, std::memory_order_relaxed);
    replayed_sends.fetch_add(s.replayed_sends, std::memory_order_relaxed);
    checkpoint_rejects_stale.fetch_add(s.checkpoint_rejects_stale,
                                       std::memory_order_relaxed);
    checkpoint_rejects_tampered.fetch_add(s.checkpoint_rejects_tampered,
                                          std::memory_order_relaxed);
    restart_ns_charged.fetch_add(s.restart_ns_charged, std::memory_order_relaxed);
  }
};

/// Thrown by the recovery protocol when a wait cannot complete: the deadline
/// and every retry expired (kTimeout), or the runtime detected that a worker
/// this wait depends on — possibly the waiter itself — is beyond recovery
/// (kWorkerPoisoned). Embedders catch it and surface `status()`.
class RuntimeFault : public std::runtime_error {
 public:
  RuntimeFault(StatusCode code, const std::string& what)
      : std::runtime_error(what), code_(code) {}

  [[nodiscard]] StatusCode code() const { return code_; }
  [[nodiscard]] Status status() const { return Status::error(code_, what()); }

 private:
  StatusCode code_;
};

}  // namespace privagic::runtime
