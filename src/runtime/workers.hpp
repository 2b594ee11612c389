// Per-application-thread worker group (§7.3.1 / §8).
//
// "Privagic supposes that the Privagic runtime runs a worker thread in each
// enclave for each application thread." A ThreadRuntime owns one mailbox per
// color in the color table. The calling application thread acts as the U
// worker (index 0, matching Figure 7 where main()'s interface runs in the U
// column); one thread per enclave color runs an idle loop that pops spawn
// messages and invokes the chunk runner.
//
// The chunk runner is supplied by the embedder (the interpreter): it
// executes chunk #id's trampoline with the spawn's (tags, leader, flags).
// Intrinsic implementations (spawn/cont/wait/ack/wait_ack) are methods here;
// each takes the *current* worker's color index so nested waits pull from
// the right mailbox.
//
// == Fault model & recovery ==
//
// The queues live in unsafe memory, so the hardened threat model lets an
// attacker drop, duplicate, reorder, corrupt, delay, or forge any message
// (modeled deterministically by fault_injector.hpp). The seed runtime
// blocked forever in Mailbox::next the moment one message went missing; this
// runtime degrades gracefully instead (RecoveryOptions):
//
//   * every legitimate send is stamped with a `seq` — monotonic per target
//     mailbox, so the only counter a sender touches is its target's — and MAC'd
//     under the enclave-held secret (message_mac); receivers quarantine
//     MAC mismatches (forged spawns / corrupted conts+acks) and discard
//     already-seen seqs, so duplication — attacker- or retry-induced — is
//     idempotent;
//   * waits are timed (Mailbox::next_for) with bounded retry and exponential
//     backoff; each retry retransmits the awaited message from a sender-side
//     log kept in safe memory, so a dropped cont/ack is recovered rather
//     than fatal. The timed wait is the one mechanism that bounds a blocked
//     worker;
//   * a worker whose wait is beyond recovery is marked *poisoned*; its wait
//     throws RuntimeFault (kTimeout / kRetransmitExhausted / kWorkerPoisoned)
//     instead of hanging, and the embedder surfaces that as a Status-carrying
//     runtime trap (interp::Machine::call).
//
// All defaults keep the seed semantics (untimed waits): the recovery
// machinery activates only through RecoveryOptions.
//
// == Batched call path (DESIGN.md §11) ==
//
// Sends do not push the target mailbox directly. Each sending thread owns
// an OutboxSet — a fixed-size slab with one MessageBatch per target color —
// and send() appends into it: a struct copy into pre-owned storage, no
// allocation, no lock, no wake. The batch travels as one Mailbox::push_batch
// when (a) the slot fills, (b) the sender reaches any blocking point (every
// wait / the worker idle loop / shutdown), or (c) the embedder calls
// flush_current() before leaving the runtime (the interpreter flushes before
// external calls and at interface-call return). Because every thread flushes
// before it can observe or wait on anything, per-(sender,target) FIFO order
// and the §5 visible-effect barriers are exactly those of a push per send;
// all recovery bookkeeping (seq, MAC, sent log, counters) happens at enqueue
// time, and the injector filters each message of a batch on its own, so
// retransmission and the scripted fault crossings do not depend on batching.
//
// Same-color direct dispatch: a message whose target color IS the sender's
// own color never needs to cross unsafe memory at all — it is queued on the
// sending thread's private self-queue and consumed at that thread's next
// wait (spawns run inline via the chunk runner; counted in
// stats_snapshot().calls_elided, and the dispatch itself still appears in the
// interp.chunks_dispatched metric). Self messages carry no seq/MAC and are
// invisible to the injector: nothing the attacker owns ever holds them.
//
// == Crash recovery (robustness PR; DESIGN.md §12) ==
//
// The fault model above covers the *wire*; CheckpointOptions extends it to
// the death of an enclave worker itself (FaultKind::kCrash, armed crash
// points, ThreadRuntime::inject_crash). A crash throws WorkerCrashed through
// the chunk code — every byte of in-enclave state (outbox slabs, self-queue,
// the running chunk's stack) is discarded — and the color's lifecycle loop
// recovers from the sealed checkpoint + write-ahead journal kept in unsafe
// memory (checkpoint.hpp): re-attest (measurement + monotonic-epoch check,
// charged through the SGX cost model), restore the dedup window and the
// embedder's memory image, then replay the journal. Replayed receives come
// from the log (their seqs re-enter the window), replayed sends keep their
// ORIGINAL seq so the receiver's dedup window makes redelivery — ours or an
// in-flight retransmission's — land exactly once. With hot_failover a warm
// standby replica per color takes over the mailbox instead, paying only the
// attestation handshake on the critical path while the dead worker rebuilds
// in the background and becomes the new standby.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/hooks.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/fault_injector.hpp"
#include "runtime/mailbox.hpp"
#include "runtime/runtime_stats.hpp"
#include "sgx/cost_model.hpp"
#include "support/rng.hpp"
#include "support/status.hpp"

namespace privagic::runtime {

/// Thrown through chunk code when a stop message arrives while a worker is
/// blocked in wait/wait_ack. Deliberately NOT derived from std::exception:
/// embedder error handling (which catches std::exception to keep the message
/// protocol alive) must not swallow it — only the worker idle loop does.
struct WorkerStopped {};

/// Thrown through chunk code when the worker's enclave dies (a kCrash control
/// message or an armed crash point). Like WorkerStopped it is deliberately
/// NOT a std::exception: embedder error handling must not swallow it — only
/// the color's lifecycle loop (worker_lifecycle) catches it and runs the §12
/// restart/failover protocol.
struct WorkerCrashed {};

/// Knobs for the fault-recovery protocol. The zero-initialized defaults
/// reproduce the seed runtime exactly: untimed waits, no injector.
/// (RuntimeFault, in runtime_stats.hpp, *is* a std::exception — embedders
/// are supposed to catch it and surface its Status.)
struct RecoveryOptions {
  /// Non-zero enables spawn/cont/ack authentication (the §8 extension):
  /// legitimate messages are MAC'd with this enclave-held secret; forged or
  /// corrupted ones pushed into the unsafe-memory queues are quarantined.
  std::uint64_t spawn_secret = 0;
  /// Base deadline for one wait attempt; 0 = wait forever (seed behavior).
  /// Microsecond-typed so crash-recovery configs can run sub-millisecond
  /// deadlines (Mailbox spins those out instead of parking); millisecond
  /// literals keep working through the implicit lossless conversion.
  std::chrono::microseconds wait_deadline{0};
  /// Deadline override for the application worker (U, color 0); 0 = use
  /// wait_deadline. When a message is lost, *both* ends of the exchange are
  /// usually blocked; giving one side headroom over the other makes exactly
  /// one of them time out and recover, which keeps the retry/retransmit
  /// counters deterministic for the scripted fault tests.
  std::chrono::microseconds app_wait_deadline{0};
  /// Backoff rounds after the first timeout before the wait gives up. The
  /// attempt deadline doubles each round (d, 2d, 4d, ...).
  int max_retries = 3;
  /// Adversarial interposer on every mailbox push (nullptr = clean runs).
  FaultInjector* injector = nullptr;
  /// Crash recovery (DESIGN.md §12): per-color sealed checkpoints + journal,
  /// re-attestation on restart, optional warm-replica failover. Disabled by
  /// default — a crash then permanently poisons the victim color.
  CheckpointOptions checkpoint{};
  /// Placement plan slot table (DESIGN.md §15): color c's mailbox, worker
  /// thread, and recovery state fold into index color_slot[c]. Empty =
  /// identity (one enclave per color, the default). Entries must be
  /// idempotent (color_slot[color_slot[c]] == color_slot[c]), in range,
  /// keep U at slot 0, and never fold a named color into U. Co-resident
  /// colors share the leader's worker, so traffic between them rides the
  /// same-color inline-dispatch path (calls elided, no mailbox crossing).
  std::vector<std::size_t> color_slot{};
};

class ThreadRuntime {
 public:
  /// Runs chunk @p chunk's trampoline on the current thread; `me` is the
  /// color index of the worker executing it.
  using ChunkRunner = std::function<void(std::size_t me, std::uint64_t chunk,
                                         std::int64_t tags, std::int64_t leader,
                                         std::int64_t flags)>;

  /// @p num_colors — size of the color table (index 0 = U).
  ThreadRuntime(std::size_t num_colors, ChunkRunner runner, RecoveryOptions options)
      : runner_(std::move(runner)),
        options_(std::move(options)),
        // The retransmission log is only ever read from wait_kind's timeout
        // path, and a timeout needs a nonzero deadline — with the wait-forever
        // defaults the log is unreachable, so sends skip the global-mutex +
        // slot-copy bookkeeping entirely (it is ~half the per-message cost on
        // the fault-free hot path).
        retransmit_live_(options_.wait_deadline.count() > 0 ||
                         options_.app_wait_deadline.count() > 0),
        seal_secret_(options_.spawn_secret ^ kSealSalt),
        mailboxes_(num_colors),
        next_seq_(num_colors),
        seen_(num_colors),
        sent_log_(num_colors),
        poisoned_(num_colors),
        armed_(num_colors) {
    if (!options_.color_slot.empty()) {
      if (options_.color_slot.size() != num_colors) {
        throw std::invalid_argument("color_slot size must equal num_colors");
      }
      if (options_.color_slot[0] != 0) {
        throw std::invalid_argument("color_slot must keep U (color 0) at slot 0");
      }
      for (std::size_t c = 0; c < num_colors; ++c) {
        const std::size_t s = options_.color_slot[c];
        if (s >= num_colors) {
          throw std::invalid_argument("color_slot entry out of range");
        }
        if (options_.color_slot[s] != s) {
          throw std::invalid_argument("color_slot must be idempotent (slots are leaders)");
        }
        if (c != 0 && s == 0) {
          throw std::invalid_argument("color_slot must not fold a named color into U");
        }
      }
    }
    for (std::size_t c = 0; c < num_colors; ++c) {
      mailboxes_[c] = std::make_unique<Mailbox>();
      if (options_.injector != nullptr) {
        mailboxes_[c]->set_injector(options_.injector, c);
      }
      poisoned_[c].store(false, std::memory_order_relaxed);
      for (auto& a : armed_[c]) a.store(-1, std::memory_order_relaxed);
      recovery_.push_back(std::make_unique<ColorRecovery>());
    }
    // One worker per enclave color, plus a warm standby replica each when hot
    // failover is on. The replica parks on the color's handoff gate, not on
    // the mailbox: the mailbox's one consumer is whichever thread is active.
    const std::size_t replicas =
        (options_.checkpoint.enabled && options_.checkpoint.hot_failover) ? 2 : 1;
    for (std::size_t c = 1; c < num_colors; ++c) {
      // Under a placement plan only group leaders get a worker; member
      // colors' traffic lands in the leader's mailbox via index().
      if (!options_.color_slot.empty() && options_.color_slot[c] != c) continue;
      for (std::size_t r = 0; r < replicas; ++r) {
        workers_.emplace_back([this, c, r] { worker_lifecycle(c, /*primary=*/r == 0); });
      }
    }
  }

  ~ThreadRuntime() { shutdown(); }
  ThreadRuntime(const ThreadRuntime&) = delete;
  ThreadRuntime& operator=(const ThreadRuntime&) = delete;

  void shutdown() {
    if (stopped_) return;
    stopped_ = true;
    flush_current();  // don't let queued protocol messages rot behind the stops
    for (std::size_t c = 1; c < mailboxes_.size(); ++c) {
      mailboxes_[c]->push(Message::stop());
    }
    // Release any parked standby replicas (and any crashed worker that is
    // mid-rebuild and about to park); the active workers exit via the sticky
    // stop above.
    for (std::size_t c = 1; c < recovery_.size(); ++c) {
      {
        const std::lock_guard<std::mutex> lock(recovery_[c]->mu);
        recovery_[c]->stop = true;
      }
      recovery_[c]->cv.notify_all();
    }
    for (auto& t : workers_) t.join();
    workers_.clear();
  }

  // -- Intrinsics (see partition/intrinsics.hpp) -------------------------------

  void spawn(std::int64_t target_color, std::uint64_t chunk, std::int64_t tags,
             std::int64_t leader, std::int64_t flags) {
    send(target_color, Message::spawn(chunk, tags, leader, flags));
  }

  void cont(std::int64_t target_color, std::int64_t tag, std::int64_t payload) {
    send(target_color, Message::cont(tag, payload));
  }

  void ack(std::int64_t target_color, std::int64_t tag) {
    send(target_color, Message::ack(tag));
  }

  /// Test/attacker hook: push an arbitrary message into a worker's mailbox,
  /// bypassing the signing path — models an adversary writing directly to
  /// the queues in unsafe memory.
  void inject_raw(std::int64_t target_color, const Message& m) {
    mailboxes_[index(target_color)]->push(m);
  }

  // -- Crash-recovery hooks (tests / fault harnesses; DESIGN.md §12) -----------

  /// Kills worker @p target_color's enclave at its next blocking point: a
  /// kCrash control message is queued on its mailbox (bypassing the
  /// injector — this models the attacker's kill switch, not wire traffic).
  void inject_crash(std::int64_t target_color) {
    mailboxes_[index(target_color)]->push(Message::crash());
  }

  /// Arms a deterministic crash for @p color: the (@p nth + 1)-th time that
  /// worker reaches protocol point @p point, its enclave dies. One-shot; the
  /// arming is consumed by the crash.
  void arm_crash(std::size_t color, CrashPoint point, std::uint64_t nth = 0) {
    armed_[index(static_cast<std::int64_t>(color))][static_cast<std::size_t>(point)]
        .store(static_cast<std::int64_t>(nth), std::memory_order_relaxed);
  }

  /// Attacker hooks over the sealed state in unsafe memory: read a copy,
  /// substitute an older copy (rollback), or flip payload bits (forgery).
  /// Re-attestation must reject the latter two — the §12 pin tests drive it.
  [[nodiscard]] SealedCheckpoint checkpoint_copy(std::size_t color) const {
    ColorRecovery& rec = *recovery_[color];
    const std::lock_guard<std::mutex> lock(rec.mu);
    return rec.checkpoint;
  }
  void substitute_checkpoint(std::size_t color, SealedCheckpoint cp) {
    ColorRecovery& rec = *recovery_[color];
    const std::lock_guard<std::mutex> lock(rec.mu);
    rec.checkpoint = std::move(cp);
  }
  void tamper_checkpoint(std::size_t color) {
    ColorRecovery& rec = *recovery_[color];
    const std::lock_guard<std::mutex> lock(rec.mu);
    if (!rec.checkpoint.payload.empty()) {
      rec.checkpoint.payload.front() ^= std::byte{0x5A};
    } else {
      rec.checkpoint.measurement ^= 1;
    }
  }

  [[nodiscard]] std::uint64_t checkpoint_epoch(std::size_t color) const {
    ColorRecovery& rec = *recovery_[color];
    const std::lock_guard<std::mutex> lock(rec.mu);
    return rec.checkpoint.epoch;
  }

  /// Flushes every batch the *calling thread* has deferred. Every wait and
  /// the worker idle loop flush implicitly; embedders call this before
  /// leaving the runtime's control for a while (the interpreter: before an
  /// external call, at interface-call return) so no recipient waits on a
  /// message parked in our outbox.
  void flush_current() { flush_outbox(thread_outbox(0)); }

  /// Blocks worker @p me until a cont with @p tag arrives; serves spawns
  /// re-entrantly while waiting. Throws RuntimeFault when recovery gives up.
  std::int64_t wait(std::size_t me, std::int64_t tag) {
    return wait_kind(index(static_cast<std::int64_t>(me)), MsgKind::kCont, tag).payload;
  }

  void wait_ack(std::size_t me, std::int64_t tag) {
    wait_kind(index(static_cast<std::int64_t>(me)), MsgKind::kAck, tag);
  }

  // -- Observability -----------------------------------------------------------

  [[nodiscard]] std::size_t num_colors() const { return mailboxes_.size(); }

  /// The runtime's counters. Folds in what the send path keeps out of the
  /// shared RuntimeStats atomics: messages_sent (from the per-target seq
  /// counters) and flush_one's thread-private batch_flushes /
  /// batched_messages / slab_highwater.
  [[nodiscard]] RuntimeStats::Snapshot stats_snapshot() const {
    RuntimeStats::Snapshot snap = stats_.snapshot();
    for (const SeqCounter& c : next_seq_) {
      snap.messages_sent += c.next.load(std::memory_order_relaxed) - 1;
    }
    const std::lock_guard<std::mutex> lock(outbox_mu_);
    for (const auto& set : outbox_sets_) {
      snap.batch_flushes += set->batch_flushes.load(std::memory_order_relaxed);
      snap.batched_messages +=
          set->batched_messages.load(std::memory_order_relaxed);
      snap.slab_highwater = std::max(
          snap.slab_highwater,
          set->slab_highwater.load(std::memory_order_relaxed));
    }
    return snap;
  }

  [[nodiscard]] bool poisoned(std::size_t color) const {
    return poisoned_[color].load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool any_poisoned() const {
    return any_poisoned_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::size_t kSentLogCap = 512;   // per-color retransmit window
  static constexpr std::size_t kSeqWindowCap = 8192;  // per-color dedup window
  static constexpr std::size_t kGoBackWindow = 8;   // fallback resend breadth
  // Domain-separates the checkpoint-sealing key from the message MAC key,
  // both derived from the one spawn_secret.
  static constexpr std::uint64_t kSealSalt = 0x5EA1'5EC4'E7B1'7E5Dull;
  // During replay only the newest this-many journaled sends are re-pushed
  // (with their original seq; the receiver's dedup window absorbs doubles).
  // Older ones were delivered, or were lost and already went through the §6
  // retransmission, so replay costs O(journal) memory work, not wakeups.
  static constexpr std::size_t kReplayResendWindow = 16;
  // Simulated SGX restart economics (sgx::CostParams): a cold restart pays
  // kRestartNs + kAttestationNs on the victim's critical path; a warm
  // takeover pays kAttestationNs (pre-attested) off it.
  static constexpr auto kRestartNs =
      static_cast<std::uint64_t>(sgx::CostParams{}.enclave_restart_ns);
  static constexpr auto kAttestationNs =
      static_cast<std::uint64_t>(sgx::CostParams{}.attestation_ns);

  /// Color id → mailbox/worker slot. THE single translation point for the
  /// placement plan: every path that routes by color (send, wait, inject,
  /// arm) funnels through here, so folding a color into its group leader's
  /// slot is one lookup — co-resident traffic then takes the same-color
  /// inline path in send() with no further special-casing.
  [[nodiscard]] std::size_t index(std::int64_t color) const {
    if (color < 0 || static_cast<std::size_t>(color) >= mailboxes_.size()) {
      throw std::out_of_range("bad color id " + std::to_string(color));
    }
    if (options_.color_slot.empty()) return static_cast<std::size_t>(color);
    return options_.color_slot[static_cast<std::size_t>(color)];
  }

  struct OutboxSet;  // defined below; the replay helpers take it by reference

  // -- Crash recovery state (DESIGN.md §12) ------------------------------------

  /// One enclave color's recoverable state: the sealed snapshot + write-ahead
  /// journal living (conceptually) in unsafe memory, the trusted monotonic
  /// epoch counter that defeats rollback, and the failover handoff gate.
  ///
  /// Locking: checkpoint / journal / committed_epoch / handoff / stop are
  /// shared (worker appends, standby copies on takeover, test hooks attack) —
  /// all under `mu`, which doubles as the happens-before edge of a handoff:
  /// the dying active locks it to set `handoff`, the standby locks it to
  /// consume, so every preceding plain write (the seq window, the journal,
  /// the mailbox's consumer-owned pending list) is visible to the replica,
  /// the mailbox's next consumer. The replay fields and `depth` below the
  /// marker are touched only by the color's currently-active thread —
  /// exactly one exists at any time — and need no lock.
  struct ColorRecovery {
    mutable std::mutex mu;
    std::condition_variable cv;
    SealedCheckpoint checkpoint;
    std::vector<JournalEntry> journal;
    std::uint64_t committed_epoch = 0;  // trusted counter; bumped at each seal
    bool handoff = false;               // a crash wants the standby to take over
    bool stop = false;
    // -- active-thread-only from here --
    std::vector<JournalEntry> replay;   // journal copy being replayed
    std::size_t cursor = 0;
    std::size_t replay_sends_total = 0;
    std::size_t replay_sends_seen = 0;
    bool replaying = false;
    int depth = 0;                      // chunk nesting; compaction only at 0
  };

  /// True when worker @p me's protocol events must hit the journal: crash
  /// recovery is on and @p me is an enclave (U runs outside any enclave — it
  /// cannot crash, so it logs nothing).
  [[nodiscard]] bool journaled(std::size_t me) const {
    return options_.checkpoint.enabled && me != 0;
  }

  void journal_append(std::size_t me, JournalOp op, std::uint64_t target,
                      const Message& m) {
    ColorRecovery& rec = *recovery_[me];
    const std::lock_guard<std::mutex> lock(rec.mu);
    const std::uint64_t prev =
        rec.journal.empty() ? rec.checkpoint.mac : rec.journal.back().auth;
    JournalEntry e;
    e.op = op;
    e.target = target;
    e.msg = m;
    e.auth = journal_entry_mac(op, target, m, prev, seal_secret_);
    rec.journal.push_back(std::move(e));
    stats_.journal_entries.fetch_add(1, std::memory_order_relaxed);
  }

  /// Folds the journal into a fresh sealed snapshot: the dedup window plus
  /// the embedder's state image, MAC'd and stamped with the next epoch. The
  /// trusted counter advances in the same critical section, so the
  /// just-replaced checkpoint is instantly stale to re-attestation.
  void seal_checkpoint(std::size_t me) {
    ColorRecovery& rec = *recovery_[me];
    SealedCheckpoint cp;
    const std::uint64_t wbytes = sizeof(SeqWindow);
    cp.payload.resize(sizeof(std::uint64_t) + wbytes);
    std::memcpy(cp.payload.data(), &wbytes, sizeof wbytes);
    std::memcpy(cp.payload.data() + sizeof wbytes, &seen_[me], wbytes);
    if (options_.checkpoint.state_snapshot) {
      const std::vector<std::byte> blob = options_.checkpoint.state_snapshot(me);
      cp.payload.insert(cp.payload.end(), blob.begin(), blob.end());
    }
    cp.measurement = enclave_measurement(uid_, me, seal_secret_);
    std::uint64_t epoch = 0;
    const std::size_t bytes = cp.payload.size();
    {
      const std::lock_guard<std::mutex> lock(rec.mu);
      cp.epoch = epoch = rec.checkpoint.epoch + 1;
      cp.mac = checkpoint_mac(cp, seal_secret_);
      rec.checkpoint = std::move(cp);
      rec.committed_epoch = epoch;
      rec.journal.clear();
    }
    stats_.checkpoints_taken.fetch_add(1, std::memory_order_relaxed);
    stats_.checkpoint_bytes.fetch_add(bytes, std::memory_order_relaxed);
    obs::on_checkpoint(static_cast<std::int64_t>(me), static_cast<std::int64_t>(epoch),
                       static_cast<std::int64_t>(bytes));
    maybe_crash_at(me, CrashPoint::kPostCheckpoint);
  }

  void maybe_compact(std::size_t me) {
    ColorRecovery& rec = *recovery_[me];
    if (rec.depth != 0) return;
    std::size_t n = 0;
    {
      const std::lock_guard<std::mutex> lock(rec.mu);
      n = rec.journal.size();
    }
    if (n >= options_.checkpoint.checkpoint_interval) seal_checkpoint(me);
  }

  /// Runs one chunk bracketed by kChunkStart/kChunkDone journal entries, and
  /// compacts the journal at quiescent (depth-0) completions.
  void run_chunk_journaled(std::size_t me, const Message& m) {
    const obs::RequestScope request(m.request);  // the chunk serves the spawn's request
    if (!journaled(me)) {
      runner_(me, m.chunk, m.tags, m.leader, m.flags);
      return;
    }
    ColorRecovery& rec = *recovery_[me];
    journal_append(me, JournalOp::kChunkStart, me, m);
    ++rec.depth;
    try {
      runner_(me, m.chunk, m.tags, m.leader, m.flags);
    } catch (...) {
      --rec.depth;
      throw;
    }
    --rec.depth;
    journal_append(me, JournalOp::kChunkDone, me, Message{});
    maybe_compact(me);
  }

  /// Semantic-field equality — the replay matcher. seq/auth excluded: a
  /// replayed send reuses the LOGGED seq, never a fresh one. The request id
  /// is excluded too: a replay need not run under the crashed run's request.
  static bool same_semantics(const Message& a, const Message& b) {
    return a.kind == b.kind && a.tag == b.tag && a.payload == b.payload &&
           a.chunk == b.chunk && a.tags == b.tags && a.leader == b.leader &&
           a.flags == b.flags;
  }

  static void end_replay(ColorRecovery& rec) {
    rec.replaying = false;
    rec.replay.clear();
    rec.cursor = 0;
  }

  [[noreturn]] void crash_now(std::size_t me, CrashPoint point) {
    stats_.worker_crashes.fetch_add(1, std::memory_order_relaxed);
    obs::on_worker_crash(static_cast<std::int64_t>(me),
                         static_cast<std::uint8_t>(point));
    throw WorkerCrashed{};
  }

  /// Armed-crash check at one protocol point; the counter counts hits down
  /// and fires (once) when it reaches zero. Only the owning worker thread
  /// ever decrements its own slots, so the load/sub pair cannot race.
  void maybe_crash_at(std::size_t me, CrashPoint point) {
    if (me == 0 || me >= armed_.size()) return;
    auto& slot = armed_[me][static_cast<std::size_t>(point)];
    if (slot.load(std::memory_order_relaxed) < 0) return;
    if (slot.fetch_sub(1, std::memory_order_relaxed) == 0) crash_now(me, point);
  }

  /// Simulated restart economics: always charged into the stats (simulated
  /// nanoseconds from the cost model), and burned as wall-clock time when the
  /// config says the delay sits on a path the benchmark must feel.
  void charge_restart(std::uint64_t ns, bool may_sleep) {
    stats_.restart_ns_charged.fetch_add(ns, std::memory_order_relaxed);
    if (may_sleep && options_.checkpoint.sleep_on_restart) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
    }
  }

  /// A crash loses every byte of in-enclave state: pending outbox slabs and
  /// the self-queue are discarded on the spot. Messages a mid-batch crash
  /// already pushed are NOT here anymore — clearing cannot double-deliver
  /// them, and replay's seq-preserving re-push cannot either (dedup window).
  void discard_outbox(std::size_t me) {
    OutboxSet& ob = thread_outbox(me);
    for (auto& b : ob.out) b.clear();
    ob.self.clear();
  }

  /// The re-attestation handshake + state restore a restarted or failing-over
  /// worker runs before touching any traffic. Returns false — with the color
  /// poisoned under kAttestationFailed — when the presented checkpoint is
  /// stale (rollback) or tampered (forgery); the caller still enters the
  /// worker loop so the group keeps a drainable, joinable thread.
  bool restore_and_replay(std::size_t me) {
    ColorRecovery& rec = *recovery_[me];
    SealedCheckpoint cp;
    std::vector<JournalEntry> journal;
    std::uint64_t committed = 0;
    {
      const std::lock_guard<std::mutex> lock(rec.mu);
      cp = rec.checkpoint;
      journal = rec.journal;
      committed = rec.committed_epoch;
    }
    const std::uint64_t measurement = enclave_measurement(uid_, me, seal_secret_);
    const AttestVerdict verdict =
        verify_checkpoint(cp, journal, measurement, committed, seal_secret_);
    obs::on_restore(static_cast<std::int64_t>(me), static_cast<std::int64_t>(cp.epoch),
                    static_cast<std::uint8_t>(verdict));
    if (verdict != AttestVerdict::kOk) {
      auto& counter = verdict == AttestVerdict::kStale
                          ? stats_.checkpoint_rejects_stale
                          : stats_.checkpoint_rejects_tampered;
      counter.fetch_add(1, std::memory_order_relaxed);
      poison(me, StatusCode::kAttestationFailed);
      return false;
    }
    // Unseal: [u64 window bytes][SeqWindow image][embedder state image].
    std::uint64_t wbytes = 0;
    if (cp.payload.size() >= sizeof wbytes) {
      std::memcpy(&wbytes, cp.payload.data(), sizeof wbytes);
      const std::size_t have = cp.payload.size() - sizeof wbytes;
      const std::size_t take = std::min<std::size_t>(
          {static_cast<std::size_t>(wbytes), have, sizeof(SeqWindow)});
      std::memcpy(&seen_[me], cp.payload.data() + sizeof wbytes, take);
      if (options_.checkpoint.state_restore && have > wbytes) {
        options_.checkpoint.state_restore(
            me, std::span<const std::byte>(cp.payload)
                    .subspan(sizeof wbytes + static_cast<std::size_t>(wbytes)));
      }
    }
    {
      const std::lock_guard<std::mutex> lock(rec.mu);
      rec.journal.clear();  // rebuilt entry by entry as replay re-executes
    }
    rec.replay = std::move(journal);
    rec.cursor = 0;
    rec.replaying = !rec.replay.empty();
    rec.replay_sends_total = 0;
    rec.replay_sends_seen = 0;
    rec.depth = 0;
    for (const JournalEntry& e : rec.replay) {
      if (e.op == JournalOp::kSend) ++rec.replay_sends_total;
    }
    replay_journal(me, rec);
    return true;
  }

  /// Top-level replay driver: re-dispatches the journaled chunks in order.
  /// A complete chunk re-executes entirely from the log (its receives come
  /// from kRecv entries, its sends dedup at the receivers); the final,
  /// partial chunk — if the crash hit mid-chunk — replays its logged prefix
  /// and then continues LIVE from the exact operation the crash interrupted.
  /// A well-formed journal holds only kChunkStart/kChunkDone at depth 0;
  /// anything else is divergence and ends replay.
  void replay_journal(std::size_t me, ColorRecovery& rec) {
    OutboxSet& ob = thread_outbox(me);
    while (rec.replaying && rec.cursor < rec.replay.size()) {
      const JournalEntry e = rec.replay[rec.cursor];
      if (e.op != JournalOp::kChunkStart) {
        end_replay(rec);
        break;
      }
      ++rec.cursor;
      stats_.replay_entries.fetch_add(1, std::memory_order_relaxed);
      // Re-consume the spawn exactly as the first run did: its seq re-enters
      // the dedup window (a retransmitted copy must not re-run the chunk) and
      // a replay-requeued self copy is popped.
      if (e.msg.seq != 0) seen_[me].insert(e.msg.seq);
      remove_matching_self_spawn(ob, e.msg);
      run_chunk_journaled(me, e.msg);
    }
    end_replay(rec);
  }

  /// A replayed kChunkStart may stem from a self-queue spawn that replay_send
  /// has re-queued; consume the queued copy so the reconstructed self-queue
  /// ends up holding exactly the messages that were unconsumed at the crash.
  static void remove_matching_self_spawn(OutboxSet& ob, const Message& m) {
    for (auto it = ob.self.begin(); it != ob.self.end(); ++it) {
      if (it->kind == MsgKind::kSpawn && same_semantics(*it, m)) {
        ob.self.erase(it);
        return;
      }
    }
  }

  /// Replay interception for wait_kind: while replaying, deliveries come from
  /// the journal, not the mailbox. kChunkStart entries are spawns that were
  /// served during this wait (re-entrant or inline) — run them; a matching
  /// kRecv is THE delivery — return it, re-inserting its seq so in-flight
  /// retransmissions of it still land exactly once. Anything else means the
  /// re-execution diverged from the log: end replay, go live.
  std::optional<Message> replay_wait(std::size_t me, ColorRecovery& rec, MsgKind kind,
                                     std::int64_t tag) {
    OutboxSet& ob = thread_outbox(me);
    while (rec.replaying) {
      if (rec.cursor >= rec.replay.size()) {
        end_replay(rec);
        break;
      }
      const JournalEntry e = rec.replay[rec.cursor];
      if (e.op == JournalOp::kChunkStart) {
        ++rec.cursor;
        stats_.replay_entries.fetch_add(1, std::memory_order_relaxed);
        if (e.msg.seq != 0) seen_[me].insert(e.msg.seq);
        remove_matching_self_spawn(ob, e.msg);
        run_chunk_journaled(me, e.msg);
        continue;
      }
      if (e.op == JournalOp::kRecv && e.msg.kind == kind && e.msg.tag == tag) {
        ++rec.cursor;
        stats_.replay_entries.fetch_add(1, std::memory_order_relaxed);
        if (e.msg.seq != 0) {
          seen_[me].insert(e.msg.seq);
        } else {
          take_self(ob, kind, tag, /*control_only=*/false);  // keep self aligned
        }
        journal_append(me, JournalOp::kRecv, me, e.msg);
        if (rec.cursor >= rec.replay.size()) end_replay(rec);
        return e.msg;
      }
      end_replay(rec);
    }
    return std::nullopt;
  }

  /// Replay interception for send(): consume the matching journal entry
  /// instead of sequencing a fresh message. Self sends re-enter the
  /// self-queue (their consumptions are replayed from the journal too);
  /// cross-color sends re-journal under their ORIGINAL seq and only the
  /// newest kReplayResendWindow of them are physically re-pushed — older
  /// ones were delivered (re-push dedups to nothing) or are already covered
  /// by the §6 retransmission machinery.
  bool replay_send(std::size_t me, ColorRecovery& rec, OutboxSet& ob,
                   std::size_t target, const Message& m) {
    if (rec.cursor >= rec.replay.size()) {
      end_replay(rec);
      return false;
    }
    const JournalEntry e = rec.replay[rec.cursor];
    const bool self = target == me;
    if (self && e.op == JournalOp::kSelfSend && same_semantics(e.msg, m)) {
      ++rec.cursor;
      stats_.replay_entries.fetch_add(1, std::memory_order_relaxed);
      journal_append(me, JournalOp::kSelfSend, target, e.msg);
      ob.self.push_back(e.msg);
      if (rec.cursor >= rec.replay.size()) end_replay(rec);
      return true;
    }
    if (!self && e.op == JournalOp::kSend && e.target == target &&
        same_semantics(e.msg, m)) {
      ++rec.cursor;
      stats_.replay_entries.fetch_add(1, std::memory_order_relaxed);
      journal_append(me, JournalOp::kSend, target, e.msg);
      ++rec.replay_sends_seen;
      if (rec.replay_sends_seen + kReplayResendWindow > rec.replay_sends_total) {
        stats_.replayed_sends.fetch_add(1, std::memory_order_relaxed);
        mailboxes_[target]->push(e.msg);  // original seq: receiver dedups
      }
      if (rec.cursor >= rec.replay.size()) end_replay(rec);
      return true;
    }
    end_replay(rec);
    return false;
  }

  /// Seals the color's very first checkpoint (epoch 1) exactly once — the
  /// primary does it before serving traffic; a replica taking over later
  /// finds epoch >= 1 and skips.
  void seal_genesis_if_needed(std::size_t me) {
    ColorRecovery& rec = *recovery_[me];
    {
      const std::lock_guard<std::mutex> lock(rec.mu);
      if (rec.checkpoint.epoch != 0) return;
    }
    seal_checkpoint(me);
  }

  /// A worker whose re-attestation was rejected serves NOTHING: it consumes
  /// and discards its mailbox (an unattested enclave has no state to answer
  /// from) until the shutdown stop arrives, keeping the group joinable while
  /// every dependent wait fails fast through the poison marking.
  void drain_until_stop(std::size_t me) {
    while (mailboxes_[me]->next_control().kind != MsgKind::kStop) {
    }
  }

  /// The §12 lifecycle wrapped around worker_loop: catch enclave death,
  /// restart or fail over, replay, repeat. Exactly one thread per color is
  /// "active" (serving the mailbox) at any instant; with hot failover the
  /// other parks on the handoff gate as a warm, pre-attested standby.
  ///
  /// The restore/replay and the genesis seal run INSIDE the try: a crash
  /// during replay (or during the seal itself — kPostCheckpoint) is just
  /// another enclave death, recovered by the next lap. The journal rebuilt
  /// up to that point is a valid prefix; what the lost suffix would have
  /// re-sent is covered by the peers' §6 retransmission.
  void worker_lifecycle(std::size_t me, bool primary) {
    ColorRecovery& rec = *recovery_[me];
    const bool ckpt = options_.checkpoint.enabled;
    const bool hot = ckpt && options_.checkpoint.hot_failover;
    bool active = primary;
    bool need_restore = false;
    while (true) {
      if (!active) {
        {
          std::unique_lock<std::mutex> lock(rec.mu);
          rec.cv.wait(lock, [&rec] { return rec.handoff || rec.stop; });
          if (rec.stop) return;
          rec.handoff = false;
        }
        // Warm takeover: this replica was built and attested off the critical
        // path, so the handoff pays only the re-attestation handshake (no
        // rebuild, no wall-clock sleep) before replaying the journal.
        stats_.failovers.fetch_add(1, std::memory_order_relaxed);
        charge_restart(kAttestationNs, /*may_sleep=*/false);
        thread_outbox(me);  // register color identity before any traffic
        std::size_t backlog = 0;
        {
          const std::lock_guard<std::mutex> lock(rec.mu);
          backlog = rec.journal.size();
        }
        obs::on_failover(static_cast<std::int64_t>(me),
                         static_cast<std::int64_t>(backlog));
        need_restore = true;
        active = true;
      }
      try {
        if (need_restore) {
          need_restore = false;
          if (!restore_and_replay(me)) {
            drain_until_stop(me);  // attestation reject: serve nothing, ever
            return;
          }
        }
        if (ckpt) seal_genesis_if_needed(me);
        worker_loop(me);
        return;  // clean stop
      } catch (const WorkerCrashed&) {
        discard_outbox(me);
        if (!ckpt) {
          // No recovery configured: the enclave is gone for good. Poison the
          // color so dependent waits fail fast, and keep this thread draining
          // control traffic so shutdown stays clean.
          poison(me, StatusCode::kWorkerPoisoned);
          continue;
        }
        if (hot) {
          {
            const std::lock_guard<std::mutex> lock(rec.mu);
            rec.handoff = true;
          }
          rec.cv.notify_one();
          // Rebuild in the background — off the color's critical path, the
          // standby is already taking over — then park as the new standby.
          charge_restart(kRestartNs + kAttestationNs, /*may_sleep=*/true);
          active = false;
          continue;
        }
        // Cold restart on the critical path: tear down, rebuild, re-attest —
        // all while every peer waiting on this color burns its deadline.
        stats_.cold_restarts.fetch_add(1, std::memory_order_relaxed);
        charge_restart(kRestartNs + kAttestationNs, /*may_sleep=*/true);
        need_restore = true;
        continue;
      }
    }
  }

  /// One sending thread's view of this runtime: a fixed slab of per-target
  /// batches plus the same-color self-queue. Created once per (thread,
  /// runtime) pair and owned by the runtime; only its creating thread ever
  /// touches it, so nothing here is synchronized.
  struct OutboxSet {
    std::size_t sender = 0;              // this thread's color identity
    std::vector<MessageBatch> out;       // slab: one slot per target color
    std::deque<Message> self;            // same-color loopback (never crosses)
    // Flush accounting. Single-writer: only the owning thread updates these,
    // so the hot path uses plain load+store pairs (no RMW, no lock prefix,
    // no cross-thread cache-line bouncing); stats_snapshot() folds them in
    // with relaxed loads from the aggregating thread.
    std::atomic<std::uint64_t> batch_flushes{0};
    std::atomic<std::uint64_t> batched_messages{0};
    std::atomic<std::uint64_t> slab_highwater{0};
  };

  /// Returns the calling thread's OutboxSet for *this* runtime, creating it
  /// with color identity @p sender on first use (worker threads register
  /// their own color at loop entry; any other thread — the application
  /// thread, an embedder — acts as U, matching the seed model where the
  /// caller IS the color-0 worker). The lookup is a thread-local list keyed
  /// by a monotonic runtime uid (never a recycled pointer), move-to-front so
  /// the hot runtime costs one compare.
  OutboxSet& thread_outbox(std::size_t sender) {
    thread_local std::vector<std::pair<std::uint64_t, OutboxSet*>> cache;
    for (std::size_t i = 0; i < cache.size(); ++i) {
      if (cache[i].first == uid_) {
        if (i != 0) std::swap(cache[0], cache[i]);
        return *cache[0].second;
      }
    }
    auto set = std::make_unique<OutboxSet>();
    set->sender = sender;
    set->out.resize(mailboxes_.size());
    OutboxSet* raw = set.get();
    {
      const std::lock_guard<std::mutex> lock(outbox_mu_);
      outbox_sets_.push_back(std::move(set));
    }
    cache.emplace_back(uid_, raw);
    std::swap(cache[0], cache.back());
    return *raw;
  }

  /// Delivers one outbox slot as a single push_batch and accounts for it.
  /// Order matters for crash semantics: the batch crosses the mailbox FIRST,
  /// then the armed kMidBatch point may kill us — modeling an enclave dying
  /// the instant after its slab hit unsafe memory. The accounting and the
  /// clear are lost with the enclave (worker_lifecycle discards the slab),
  /// yet delivery happened; replay's seq-preserving re-push makes the
  /// already-crossed copies dedup to nothing. No slot leaks: the slab is
  /// pre-owned storage, clear() just resets a count.
  void flush_one(OutboxSet& ob, std::size_t target) {
    MessageBatch& b = ob.out[target];
    if (b.empty()) return;
    mailboxes_[target]->push_batch(b.data(), b.count);
    maybe_crash_at(ob.sender, CrashPoint::kMidBatch);
    ob.batch_flushes.store(
        ob.batch_flushes.load(std::memory_order_relaxed) + 1,
        std::memory_order_relaxed);
    ob.batched_messages.store(
        ob.batched_messages.load(std::memory_order_relaxed) + b.count,
        std::memory_order_relaxed);
    if (b.count > ob.slab_highwater.load(std::memory_order_relaxed)) {
      ob.slab_highwater.store(b.count, std::memory_order_relaxed);
    }
    obs::on_batch_flush(b.count);
    b.clear();
  }

  void flush_outbox(OutboxSet& ob) {
    for (std::size_t t = 0; t < ob.out.size(); ++t) flush_one(ob, t);
  }

  /// Removes the first control message — or, unless @p control_only, the
  /// first (kind, tag) match — from the calling thread's self-queue,
  /// mirroring Mailbox::take's arrival-order rule.
  std::optional<Message> take_self(OutboxSet& ob, MsgKind kind, std::int64_t tag,
                                   bool control_only) {
    for (auto it = ob.self.begin(); it != ob.self.end(); ++it) {
      const bool match = !control_only && it->kind == kind && it->tag == tag;
      if (it->is_control() || match) {
        Message m = *it;
        ob.self.erase(it);
        return m;
      }
    }
    return std::nullopt;
  }

  /// Stamps seq + MAC, records the message for retransmission, and enqueues
  /// it in the calling thread's outbox (flushed through the possibly
  /// adversarial mailbox at the next flush point). Same-color messages
  /// short-circuit to the self-queue: they never touch unsafe memory, so
  /// they carry no seq/MAC and are invisible to the injector and to the
  /// messages_sent / msg_sends accounting (elided spawns surface in
  /// calls_elided instead, keeping the observability totals reconcilable).
  void send(std::int64_t target_color, Message m) {
    const std::size_t target = index(target_color);
    m.request = obs::current_request();
    OutboxSet& ob = thread_outbox(0);
    maybe_crash_at(ob.sender, CrashPoint::kPreSend);
    const bool jrn = journaled(ob.sender);
    if (jrn && recovery_[ob.sender]->replaying &&
        replay_send(ob.sender, *recovery_[ob.sender], ob, target, m)) {
      return;  // consumed from the journal under its original seq
    }
    if (target == ob.sender) {
      if (jrn) journal_append(ob.sender, JournalOp::kSelfSend, target, m);
      ob.self.push_back(m);
      return;
    }
    // Seqs need only be unique per receiving window: one counter per target
    // keeps a cross-core miss off every send, and counts messages_sent.
    m.seq = next_seq_[target].next.fetch_add(1, std::memory_order_relaxed);
    m.auth = message_mac(m, options_.spawn_secret);
    // Journal after the seq stamp so a post-crash replay re-pushes this exact
    // wire message and the receiver's dedup window absorbs any double.
    if (jrn) journal_append(ob.sender, JournalOp::kSend, target, m);
    if (retransmit_live_) {
      const std::lock_guard<std::mutex> lock(sent_mu_);
      sent_log_[target].push(m, sent_order_++);
    }
    MessageBatch& b = ob.out[target];
    if (b.count >= MessageBatch::kCapacity) flush_one(ob, target);
    // All protocol bookkeeping happened above, at enqueue time — only the
    // mailbox crossing is deferred. The send event/counter fires here too:
    // "sent" means "handed to the runtime", which keeps the trace chain (send
    // before its chunk dispatch) and the per-color counters deterministic.
    obs::on_msg_send(target_color, static_cast<std::uint8_t>(m.kind), m.tag,
                     static_cast<std::int64_t>(m.chunk));
    b.push(m);
  }

  /// Re-pushes the most recent logged message matching (kind, tag) destined
  /// for color @p me — the recovery path for a cont/ack/spawn lost in
  /// transit. The copy keeps its original seq, so if the "lost" original
  /// eventually surfaces too, the receiver keeps exactly one.
  bool retransmit(std::size_t me, MsgKind kind, std::int64_t tag) {
    std::vector<std::pair<std::size_t, SentRing::Entry>> resend;  // (target, entry)
    {
      const std::lock_guard<std::mutex> lock(sent_mu_);
      const auto& log = sent_log_[me];
      for (std::size_t i = log.size(); i-- > 0;) {
        const SentRing::Entry& logged = log.from_oldest(i);
        if (logged.msg.kind == kind && logged.msg.tag == tag) {
          resend.emplace_back(me, logged);
          break;
        }
      }
      if (resend.empty()) {
        // Go-back fallback: the awaited message was never logged for this
        // color, so the silence stems from a loss further up the dependency
        // chain (e.g. the spawn — plus its already-delivered param conts —
        // that should eventually produce our cont). Re-push a window of the
        // globally most recent sends, ordered by send order (seqs are per
        // target, so they cannot compare across targets); the seq window
        // makes every spurious re-delivery idempotent.
        for (std::size_t c = 0; c < sent_log_.size(); ++c) {
          const auto& l = sent_log_[c];
          const std::size_t n = std::min(l.size(), kGoBackWindow);
          for (std::size_t i = l.size() - n; i < l.size(); ++i) {
            resend.emplace_back(c, l.from_oldest(i));
          }
        }
        std::sort(resend.begin(), resend.end(),
                  [](const auto& a, const auto& b) { return a.second.order < b.second.order; });
        if (resend.size() > kGoBackWindow) {
          resend.erase(resend.begin(), resend.end() - kGoBackWindow);
        }
      }
    }
    if (resend.empty()) return false;
    stats_.retransmits.fetch_add(1, std::memory_order_relaxed);  // one recovery event
    obs::on_retransmit(static_cast<std::int64_t>(me), tag);
    for (const auto& [target, copy] : resend) mailboxes_[target]->push(copy.msg);
    return true;
  }

  /// Integrity + idempotence gate for every received message. Returns false
  /// (and counts why) when the message must be discarded.
  bool validate(std::size_t me, const Message& m) {
    if (options_.spawn_secret != 0 && m.auth != message_mac(m, options_.spawn_secret)) {
      if (m.kind == MsgKind::kSpawn) {
        // forged: drop (§8's spawn-sequence protection)
        stats_.forged_spawn_rejects.fetch_add(1, std::memory_order_relaxed);
      } else {
        stats_.corrupt_dropped.fetch_add(1, std::memory_order_relaxed);
      }
      return false;
    }
    if (m.seq != 0 && !seen_[me].insert(m.seq)) {
      stats_.duplicates_discarded.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    return true;
  }

  /// Validates and dispatches a popped spawn message.
  void serve_spawn(std::size_t me, const Message& m) {
    if (!validate(me, m)) return;
    const obs::RequestScope request(m.request);
    obs::on_msg_recv(static_cast<std::int64_t>(me), static_cast<std::uint8_t>(m.kind),
                     m.tag, static_cast<std::int64_t>(m.chunk));
    run_chunk_journaled(me, m);
  }

  /// Marks @p me poisoned, remembering the group's FIRST poisoning cause so
  /// later waiters fail with the root reason (retransmit exhaustion,
  /// attestation reject, ...) rather than the generic kWorkerPoisoned. The
  /// reason store is sequenced before the release on any_poisoned_; readers
  /// load any_poisoned_ with acquire before reading the reason.
  void poison(std::size_t me, StatusCode reason = StatusCode::kWorkerPoisoned) {
    if (!any_poisoned_.load(std::memory_order_relaxed)) {
      first_poison_reason_.store(reason, std::memory_order_relaxed);
    }
    if (!poisoned_[me].exchange(true, std::memory_order_relaxed)) {
      stats_.poisoned_workers.fetch_add(1, std::memory_order_relaxed);
      obs::on_worker_poisoned(static_cast<std::int64_t>(me));
    }
    any_poisoned_.store(true, std::memory_order_release);
  }

  [[noreturn]] void give_up(std::size_t me, MsgKind kind, std::int64_t tag,
                            bool resent) {
    // A worker beyond recovery degrades the whole group: mark it poisoned so
    // waits that depend on it fail fast instead of burning their own full
    // backoff ladder for an answer that will never come. The status tells the
    // embedder WHY: a peer's root cause when one exists, retransmission-
    // window exhaustion when we burned actual resends, plain timeout when
    // silence was all we ever had.
    const bool other_poisoned = any_poisoned_.load(std::memory_order_acquire);
    const StatusCode code =
        other_poisoned ? first_poison_reason_.load(std::memory_order_relaxed)
                       : (resent ? StatusCode::kRetransmitExhausted
                                 : StatusCode::kTimeout);
    poison(me, code);
    throw RuntimeFault(
        code, std::string(status_code_name(code)) + ": worker " + std::to_string(me) +
                  " gave up waiting for " +
                  (kind == MsgKind::kAck ? "ack" : "cont") + " tag " +
                  std::to_string(tag) + " after " +
                  std::to_string(options_.max_retries) + " retries");
  }

  Message wait_kind(std::size_t me, MsgKind kind, std::int64_t tag) {
    maybe_crash_at(me, CrashPoint::kWaitEntry);
    const bool jrn = journaled(me);
    if (jrn && recovery_[me]->replaying) {
      // Mid-replay wait: deliver from the journal; a divergence falls
      // through and the wait continues live against the mailbox.
      if (auto rm = replay_wait(me, *recovery_[me], kind, tag)) return *rm;
    }
    const auto base = (me == 0 && options_.app_wait_deadline.count() > 0)
                          ? options_.app_wait_deadline
                          : options_.wait_deadline;
    const bool timed = base.count() > 0;
    auto attempt_deadline = base;
    int attempt = 0;
    bool resent = false;
    OutboxSet& ob = thread_outbox(me);
    while (true) {
      // Flush point (§5 barrier): nothing we sent may stay deferred while we
      // wait for an answer that could depend on it. Runs every iteration so
      // messages produced by an inline-served spawn below are visible before
      // its sibling cont/ack is returned or awaited.
      flush_outbox(ob);
      if (auto sm = take_self(ob, kind, tag, /*control_only=*/false)) {
        if (sm->kind == MsgKind::kSpawn) {
          // Same-color direct dispatch: run the chunk inline on this very
          // thread — the queue round-trip (and its MAC/seq machinery) is
          // elided entirely. The runner's own dispatch hook still records
          // the chunk, so interp.chunks_dispatched totals reconcile with
          // msg-recv counts + calls_elided.
          stats_.calls_elided.fetch_add(1, std::memory_order_relaxed);
          run_chunk_journaled(me, *sm);
          continue;  // re-flush, keep scanning
        }
        // Self deliveries carry seq 0 in the journal; replay's kRecv
        // handling pops the matching self entry to stay queue-aligned.
        if (jrn) journal_append(me, JournalOp::kRecv, me, *sm);
        return *sm;  // matching cont/ack without any crossing
      }
      std::optional<Message> m;
      const std::uint64_t wait_begin = obs::wait_begin_tick();
      if (timed) {
        m = mailboxes_[me]->next_for(kind, tag, attempt_deadline);
      } else {
        m = mailboxes_[me]->next(kind, tag);
      }
      obs::on_wait_segment(static_cast<std::int64_t>(me), tag,
                           m.has_value() ? static_cast<std::uint8_t>(m->kind) + 1 : 0,
                           wait_begin);
      if (!m.has_value()) {  // timed out
        stats_.wait_timeouts.fetch_add(1, std::memory_order_relaxed);
        if (attempt >= options_.max_retries) give_up(me, kind, tag, resent);
        ++attempt;
        stats_.retries.fetch_add(1, std::memory_order_relaxed);
        resent = retransmit(me, kind, tag) || resent;
        attempt_deadline *= 2;  // exponential backoff
        continue;
      }
      switch (m->kind) {
        case MsgKind::kSpawn:
          serve_spawn(me, *m);
          break;  // keep waiting
        case MsgKind::kStop:
          throw WorkerStopped{};
        case MsgKind::kCrash:
          if (me == 0) break;  // U runs outside any enclave; nothing to kill
          crash_now(me, CrashPoint::kWaitEntry);
        default:
          if (!validate(me, *m)) break;  // quarantined; keep waiting
          obs::on_waited_recv(static_cast<std::int64_t>(me));  // kWait is the event
          if (jrn) journal_append(me, JournalOp::kRecv, me, *m);
          return *m;
      }
    }
  }

  void worker_loop(std::size_t me) {
    // Register this thread's color identity before any traffic: sends from
    // chunks running here are stamped as color `me`, which is what makes the
    // same-color shortcut in send() safe to take.
    OutboxSet& ob = thread_outbox(me);
    while (true) {
      flush_outbox(ob);  // idle point: everything deferred becomes visible
      // Serve same-color spawns queued by the chunk that just finished (its
      // nested waits drain these too; this covers trailing ones).
      if (auto sm = take_self(ob, MsgKind::kStop, 0, /*control_only=*/true)) {
        if (sm->kind == MsgKind::kSpawn) {
          stats_.calls_elided.fetch_add(1, std::memory_order_relaxed);
          try {
            run_chunk_journaled(me, *sm);
          } catch (const WorkerStopped&) {
            return;
          } catch (const RuntimeFault&) {
          }
        }
        continue;
      }
      maybe_crash_at(me, CrashPoint::kWaitEntry);
      Message m = mailboxes_[me]->next_control();
      if (m.kind == MsgKind::kStop) return;
      if (m.kind == MsgKind::kCrash) {
        // Propagates past this loop's catches: only worker_lifecycle handles
        // enclave death. The spawn the crash raced stays in the mailbox.
        crash_now(me, CrashPoint::kWaitEntry);
      }
      try {
        serve_spawn(me, m);
      } catch (const WorkerStopped&) {
        return;  // a stop arrived while the chunk was blocked in a wait
      } catch (const RuntimeFault&) {
        // The chunk's wait gave up; the worker is already marked poisoned.
        // Keep draining control messages so shutdown stays clean.
      }
    }
  }

  /// Sliding window of consumed sequence numbers (single consumer per color).
  /// A fixed circular bitmap over the last kSeqWindowCap sequence values —
  /// the classic anti-replay window. insert() is a handful of word ops on the
  /// receive hot path (the unordered_set + deque it replaces cost a hash
  /// insert plus eviction churn per message). Semantics at the boundary are
  /// strictly safer than insertion-order eviction: a sequence value older
  /// than the window is *rejected* as a replay instead of re-accepted.
  struct SeqWindow {
    std::array<std::uint64_t, kSeqWindowCap / 64> bits{};
    std::uint64_t max_seq = 0;

    /// Returns false when @p seq was already consumed (or predates the
    /// window, which the protocol treats the same way).
    bool insert(std::uint64_t seq) {
      if (seq > max_seq) {
        const std::uint64_t delta = seq - max_seq;
        if (delta >= kSeqWindowCap) {
          bits.fill(0);  // the whole window slid past; nothing to keep
        } else {
          // Invalidate the recycled slots between the old and new maximum.
          for (std::uint64_t s = max_seq + 1; s < seq; ++s) clear(s);
        }
        max_seq = seq;
        set(seq);
        return true;
      }
      if (max_seq - seq >= kSeqWindowCap) return false;  // beyond the window
      if (test(seq)) return false;
      set(seq);
      return true;
    }

   private:
    [[nodiscard]] bool test(std::uint64_t seq) const {
      return (bits[(seq % kSeqWindowCap) / 64] >> (seq % 64)) & 1u;
    }
    void set(std::uint64_t seq) { bits[(seq % kSeqWindowCap) / 64] |= 1ull << (seq % 64); }
    void clear(std::uint64_t seq) { bits[(seq % kSeqWindowCap) / 64] &= ~(1ull << (seq % 64)); }
  };

  /// Fixed ring holding the last kSentLogCap messages sent to one color —
  /// the retransmission source. A plain overwrite ring: push is one slot
  /// store on the send hot path (the deque it replaces paid push/pop churn
  /// per message once full). Storage is allocated on first use so idle
  /// colors cost nothing. Each entry carries its runtime-wide send order,
  /// which the go-back fallback sorts by.
  struct SentRing {
    struct Entry { Message msg; std::uint64_t order = 0; };
    std::vector<Entry> buf;
    std::uint64_t count = 0;  // total pushes; send #i lives in buf[i % cap]

    void push(const Message& m, std::uint64_t order) {
      if (buf.empty()) buf.resize(kSentLogCap);
      buf[count % kSentLogCap] = Entry{m, order};
      ++count;
    }
    [[nodiscard]] std::size_t size() const {
      return static_cast<std::size_t>(std::min<std::uint64_t>(count, kSentLogCap));
    }
    /// @p i counts from the oldest retained entry (0) to the newest.
    [[nodiscard]] const Entry& from_oldest(std::size_t i) const {
      return buf[(count - size() + i) % kSentLogCap];
    }
  };

  /// Monotonic id distinguishing runtime instances in the thread-local
  /// outbox cache — a destroyed runtime's id is never reused, so a stale
  /// cache entry can never alias a new runtime at the same address.
  static std::uint64_t next_uid() {
    static std::atomic<std::uint64_t> n{1};
    return n.fetch_add(1, std::memory_order_relaxed);
  }

  ChunkRunner runner_;
  RecoveryOptions options_;
  const std::uint64_t uid_ = next_uid();
  /// Sends mirror into sent_log_ only when a wait timeout can actually reach
  /// retransmit() (a nonzero deadline); see the ctor.
  const bool retransmit_live_ = false;
  const std::uint64_t seal_secret_ = 0;  // checkpoint/journal MAC key (§12)
  mutable std::mutex outbox_mu_;
  std::vector<std::unique_ptr<OutboxSet>> outbox_sets_;  // owned; per thread
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<std::thread> workers_;
  RuntimeStats stats_;
  /// Next seq per target slot, one line pair each; next - 1 = sends to it.
  struct alignas(128) SeqCounter { std::atomic<std::uint64_t> next{1}; };
  std::vector<SeqCounter> next_seq_;
  std::vector<SeqWindow> seen_;                 // per color; consumer-thread-only
  std::mutex sent_mu_;
  std::vector<SentRing> sent_log_;              // per target color, safe memory
  std::uint64_t sent_order_ = 0;                // next SentRing order; sent_mu_
  std::vector<std::atomic<bool>> poisoned_;
  std::atomic<bool> any_poisoned_{false};
  /// Root cause of the group's first poisoning; valid once any_poisoned_
  /// reads true with acquire (see poison()).
  std::atomic<StatusCode> first_poison_reason_{StatusCode::kWorkerPoisoned};
  /// §12 per-color recovery state; unique_ptr so ColorRecovery (mutex/cv,
  /// not movable) can live in a vector.
  std::vector<std::unique_ptr<ColorRecovery>> recovery_;
  /// Armed deterministic crash points: armed_[color][point] counts hits down
  /// to the fatal one; -1 = disarmed. Written by arm_crash, consumed by the
  /// owning worker thread.
  std::vector<std::array<std::atomic<std::int64_t>, kNumCrashPoints>> armed_;
  bool stopped_ = false;
};

}  // namespace privagic::runtime
