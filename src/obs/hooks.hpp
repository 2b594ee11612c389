// Instrumentation call sites for the whole stack, in one place.
//
// Each hook is an inline function the runtime (workers/mailbox/spsc_queue),
// the interpreter (machine/bytecode), and the simulated SGX memory call at
// their interesting points. A hook does up to two things — emit a trace
// event (gated on tracing_enabled()) and record a metric (gated on
// metrics_enabled()) — and does *nothing* but one relaxed load + branch per
// gate when observability is off. With PRIVAGIC_TRACE=0 the bodies compile
// away entirely.
//
// Metric instruments are resolved once per hook via function-local statics,
// so the steady-state cost of an enabled metric is the relaxed atomics of
// Counter/Histogram, never a registry lookup.
#pragma once

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace privagic::obs {

/// True when any observability sink is live (used to skip clock reads).
inline bool observing() { return tracing_enabled() || metrics_enabled(); }

/// Timestamp source for duration measurements taken by call sites.
inline std::uint64_t now_ns() {
#if PRIVAGIC_TRACE
  return Tracer::instance().now_ns();
#else
  return 0;
#endif
}

/// Start/stop pair for timing blocked intervals on hot paths: two raw TSC
/// reads instead of two clock_gettime calls, converted to nanoseconds only
/// when the interval is recorded. Zero work while observability is off.
inline std::uint64_t interval_start() {
#if PRIVAGIC_TRACE
  return observing() ? raw_tick() : 0;
#else
  return 0;
#endif
}

inline std::uint64_t interval_end() { return interval_start(); }

/// Hooks that sample their histograms; each gets its own per-thread counter.
enum class SampleSite { kWaitBegin, kWaitSegment, kMailboxDepth, kBudgetFlush };

/// 1-in-8 sampler for distribution-only histograms on per-message paths: the
/// shape survives sampling, the hot path drops to a thread-local increment
/// seven times out of eight. (.count/.sum come back scaled by ~1/8.)
///
/// One counter PER SITE, not one shared across hooks: a request executes a
/// near-fixed pattern of sampled hooks, and when that pattern's length
/// divides the sampling period the hit lands on the same position every
/// cycle — a shared counter then starves some sites completely (the
/// budget-flush histogram stayed empty on runs whose leader happened to
/// touch exactly 8 sampled hooks per call).
template <SampleSite>
inline bool sampled_8th() {
#if PRIVAGIC_TRACE
  thread_local std::uint32_t n = 0;
  return (++n & 7u) == 0;
#else
  return false;
#endif
}

/// Begin-of-wait timestamp, taken from the mailbox's on-block callback — i.e.
/// only for segments that actually park (a delivery satisfied straight off
/// the queue is timed and evented only in verbose capture, via
/// verbose_wait_begin). In default capture the kWait event is a sampled
/// diagnostic — 1-in-8 parked segments pay the two TSC reads; the call spans
/// and dispatch events that anchor the timeline stay exact. Verbose capture
/// times every segment (the sequence tests pin the full chain on it), and
/// metrics alone feed the sampled wait_ns histogram the same 1-in-8 way.
/// Returns 0 for a segment that should not be timed.
inline std::uint64_t wait_interval_begin() {
#if PRIVAGIC_TRACE
  if (tracing_enabled() && trace_verbose()) return raw_tick();
  if ((tracing_enabled() || metrics_enabled()) &&
      sampled_8th<SampleSite::kWaitBegin>()) {
    return raw_tick();
  }
#endif
  return 0;
}

/// Eager begin-of-wait timestamp for verbose capture, taken before the
/// mailbox fast-path pop so that EVERY segment — parked or not — leaves a
/// kWait event (the deterministic event-sequence tests rely on this; default
/// capture treats a fast-path delivery as instantaneous and skips it).
inline std::uint64_t verbose_wait_begin() {
#if PRIVAGIC_TRACE
  if (tracing_enabled() && trace_verbose()) return raw_tick();
#endif
  return 0;
}

/// Pure arithmetic — no clock read; @p end comes from interval_end().
inline std::uint64_t interval_ns(std::uint64_t begin, std::uint64_t end) {
#if PRIVAGIC_TRACE
  if (end <= begin) return 0;
  return static_cast<std::uint64_t>(static_cast<double>(end - begin) * ns_per_tick());
#else
  (void)begin;
  (void)end;
  return 0;
#endif
}

#if PRIVAGIC_TRACE

// -- runtime: message protocol (workers.hpp) ----------------------------------

/// Timestamp for an outgoing message, read BEFORE the mailbox push. The push
/// notifies the receiver, and on a saturated machine the sender can be
/// descheduled at that very notify — a timestamp taken after it can postdate
/// everything the woken receiver records, breaking causal order in the trace.
/// Returns 0 when the send will not be evented (so the caller skips the
/// clock read entirely).
[[nodiscard]] inline std::uint64_t msg_send_tick(std::uint8_t msg_kind) {
  if (tracing_enabled() && (msg_kind >= 3 || trace_verbose())) return raw_tick();
  return 0;
}

/// A sequenced send leaving ThreadRuntime::send, called after the mailbox
/// push + notify so the hook body never delays the receiver's wakeup; the
/// event carries the pre-push @p send_tick from msg_send_tick. Staged: the
/// sender is headed for its own blocking wait (or the worker loop), which
/// flushes. Default capture records every crossing exactly once, at its
/// CONSUMER — a spawn as the kChunkDispatch on the target color, a cont/ack
/// as the receiver's kWait record — so the only sends evented by default are
/// the rare control kinds (stop/poison); verbose capture adds the
/// producer-side edges (see trace_verbose). The per-color counter always
/// counts every send. @p msg_kind is the raw runtime::MsgKind value
/// (1 = cont, 2 = ack); @p chunk is meaningful for spawns only.
inline void on_msg_send(std::uint64_t send_tick, std::int64_t target_color,
                        std::uint8_t msg_kind, std::int64_t tag, std::int64_t chunk) {
  if (send_tick != 0 && tracing_enabled()) {
    emit_at_lazy(send_tick, EventKind::kMsgSend, target_color, tag, chunk, msg_kind);
  }
  if (metrics_enabled()) {
    static PerColorCounter& sends = MetricsRegistry::global().per_color("runtime.msg_sends");
    sends.add(target_color);
  }
}

/// A validated control message (spawn) delivered to worker @p me straight off
/// its mailbox. Deliveries that arrive through a blocking wait are recorded
/// by kWait instead (its detail carries the matched kind) — see
/// on_waited_recv — and in the default capture a spawn delivery is
/// represented by the kChunkDispatch that immediately follows it, so the
/// explicit kMsgRecv event is verbose-only. Staged: this fires right after
/// the worker wakes, squarely on the spawn latency path.
inline void on_msg_recv(std::int64_t me, std::uint8_t msg_kind, std::int64_t tag,
                        std::int64_t payload) {
  if (tracing_enabled() && trace_verbose()) {
    emit_at_lazy(raw_tick(), EventKind::kMsgRecv, me, tag, payload, msg_kind);
  }
  if (metrics_enabled()) {
    static PerColorCounter& recvs = MetricsRegistry::global().per_color("runtime.msg_recvs");
    recvs.add(me);
  }
}

/// Counter half of a delivery that came out of a blocking wait; the matching
/// kWait event (emitted by on_wait_segment with detail = kind+1) is the trace
/// record, so no second event is paid here.
inline void on_waited_recv(std::int64_t me) {
  if (metrics_enabled()) {
    static PerColorCounter& recvs = MetricsRegistry::global().per_color("runtime.msg_recvs");
    recvs.add(me);
  }
}

/// Entering a blocking mailbox wait — an idle moment on the caller's thread;
/// drain the staged wake-path event from the previous segment, if any.
inline void on_wait_entry() {
  if (tracing_enabled()) flush_staged();
}

/// One mailbox wait segment finished: worker @p me was parked for
/// @p blocked_ns waiting on @p tag. @p matched_kind_plus1 is the delivered
/// message's MsgKind + 1, or 0 when the segment timed out. @p end_tick is the
/// caller's interval_end() read — 0 for a segment that was not timed, which
/// covers fast-path deliveries (the message was already queued, nothing
/// parked) outside verbose capture and unsampled segments in metrics-only
/// mode. The event is *staged*, not
/// recorded — the wake→reply path is the runtime's latency floor, so the
/// ring write is deferred to the thread's next idle point (wait entry, any
/// later emit, or worker exit).
inline void on_wait_segment(std::int64_t me, std::int64_t tag, std::uint64_t blocked_ns,
                            std::uint8_t matched_kind_plus1, std::uint64_t end_tick) {
  if (tracing_enabled() && end_tick != 0) {
    emit_at_lazy(end_tick, EventKind::kWait, me, tag,
                 static_cast<std::int64_t>(blocked_ns), matched_kind_plus1);
  }
  // The histogram sees ~1/8 of segments either way: default capture and
  // metrics-only mode both time 1-in-8 (end_tick == 0 otherwise); verbose
  // capture times every segment for the event above, so the post-wake
  // histogram write re-samples here.
  if (metrics_enabled() && end_tick != 0 &&
      (!tracing_enabled() || !trace_verbose() ||
       sampled_8th<SampleSite::kWaitSegment>())) {
    static Histogram& waits = MetricsRegistry::global().histogram("mailbox.wait_ns");
    waits.record(blocked_ns);
  }
}

/// A worker thread is exiting; drain its staged slot so the final wait
/// segment survives into the post-run drain.
inline void on_worker_exit() {
  if (tracing_enabled()) flush_staged();
}

inline void on_retransmit(std::int64_t me, std::int64_t tag) {
  if (tracing_enabled()) emit(EventKind::kRetransmit, me, tag);
}

inline void on_watchdog_fire(std::int64_t color) {
  if (tracing_enabled()) emit(EventKind::kWatchdogFire, color);
}

inline void on_worker_poisoned(std::int64_t color) {
  if (tracing_enabled()) emit(EventKind::kWorkerPoisoned, color);
}

// -- runtime: crash recovery (DESIGN.md §12) ----------------------------------

/// Enclave @p color died at protocol point @p crash_point (CrashPoint value).
inline void on_worker_crash(std::int64_t color, std::uint8_t crash_point) {
  if (tracing_enabled()) emit(EventKind::kWorkerCrash, color, crash_point);
  if (metrics_enabled()) {
    static Counter& crashes = MetricsRegistry::global().counter("runtime.worker_crashes");
    crashes.add();
  }
}

/// A warm replica took over @p color's mailbox; @p replay_entries journal
/// entries stand between the checkpoint and live traffic.
inline void on_failover(std::int64_t color, std::int64_t replay_entries) {
  if (tracing_enabled()) emit(EventKind::kFailover, color, replay_entries);
  if (metrics_enabled()) {
    static Counter& failovers = MetricsRegistry::global().counter("runtime.failovers");
    failovers.add();
  }
}

/// Worker @p color compacted its journal into a sealed checkpoint.
inline void on_checkpoint(std::int64_t color, std::int64_t epoch, std::int64_t bytes) {
  if (tracing_enabled()) {
    emit(EventKind::kCheckpoint, color, epoch, bytes);
  }
  if (metrics_enabled()) {
    static Histogram& h = MetricsRegistry::global().histogram("runtime.checkpoint_bytes");
    h.record(static_cast<std::uint64_t>(bytes));
  }
}

/// A restarting/failing-over worker re-attested checkpoint @p epoch;
/// @p verdict is the AttestVerdict value (0 ok, 1 stale, 2 tampered).
inline void on_restore(std::int64_t color, std::int64_t epoch, std::uint8_t verdict) {
  if (tracing_enabled()) {
    emit(EventKind::kRestore, color, epoch, static_cast<std::int64_t>(verdict));
  }
  if (metrics_enabled()) {
    static Counter& ok = MetricsRegistry::global().counter("runtime.restores_ok");
    static Counter& rejected =
        MetricsRegistry::global().counter("runtime.restores_rejected");
    (verdict == 0 ? ok : rejected).add();
  }
}

// -- runtime: queues ----------------------------------------------------------

/// Mailbox depth observed right after a push (sampled; see sampled_8th).
inline void on_mailbox_depth(std::size_t depth) {
  if (metrics_enabled() && sampled_8th<SampleSite::kMailboxDepth>()) {
    static Histogram& h = MetricsRegistry::global().histogram("mailbox.depth_at_push");
    h.record(depth);
  }
}

/// One sender-side outbox slot delivered as a batch of @p msgs messages
/// (workers.hpp flush_one). Unsampled: flushes are already coalesced — at
/// most one per max_batch messages — so the histogram write is off the
/// per-message path, and the deterministic .count/.sum (= batch_flushes /
/// batched_messages) are what bench_check pins for bench/call_path.
inline void on_batch_flush(std::size_t msgs) {
  if (metrics_enabled()) {
    static Histogram& h = MetricsRegistry::global().histogram("runtime.msgs_per_flush");
    h.record(msgs);
  }
}

/// SPSC ring depth observed right after an enqueue (producer side).
inline void on_spsc_depth(std::size_t depth) {
  if (metrics_enabled()) {
    static Histogram& h = MetricsRegistry::global().histogram("spsc.depth_at_push");
    h.record(depth);
  }
}

/// The fault injector classified a boundary crossing.
inline void on_fault_verdict(std::uint8_t fault_kind) {
  if (tracing_enabled()) emit(EventKind::kFaultVerdict, -1, 0, 0, fault_kind);
  if (metrics_enabled()) {
    static Counter& faulted = MetricsRegistry::global().counter("fault.crossings_faulted");
    static Counter& clean = MetricsRegistry::global().counter("fault.crossings_clean");
    (fault_kind == 0 ? clean : faulted).add();
  }
}

// -- interpreter --------------------------------------------------------------

// Call spans and chunk dispatches sit on the request critical path (the
// caller's partner is parked until the reply), so their events are staged and
// reach the ring at the thread's next idle point (blocking wait, worker exit,
// or drain).

/// Interface-call span encoding: ONE duration-carrying kCallExit event per
/// call instead of an enter/exit pair. on_call_enter only reads the clock and
/// hands the start tick back to the call site; on_call_exit packs the elapsed
/// nanoseconds and the function token into the event's `a` field
/// (a = dur_ns << kCallTokenBits | token) — the writer renders it as a
/// complete "X" slice. Halves the span's event traffic on the hottest path.
/// Verbose capture additionally emits the enter edge as its own event.
constexpr int kCallTokenBits = 12;
constexpr std::int64_t kCallTokenMask = (1 << kCallTokenBits) - 1;

/// Machine function-pointer tokens are 2^62 + function index, so the low
/// kCallTokenBits of a token ARE the index; the -1 "unknown" sentinel maps to
/// the all-ones value.
inline std::int64_t call_token_index(std::int64_t fn_token) {
  return fn_token >= 0 ? (fn_token & kCallTokenMask) : kCallTokenMask;
}

[[nodiscard]] inline std::uint64_t on_call_enter(std::int64_t color, std::int64_t fn_token) {
  if (!tracing_enabled()) return 0;
  const std::uint64_t tick = raw_tick();
  if (trace_verbose()) {
    emit_at_lazy(tick, EventKind::kCallEnter, color, call_token_index(fn_token));
  }
  return tick;
}

inline void on_call_exit(std::int64_t color, std::int64_t fn_token, std::int64_t result,
                         std::uint64_t start_tick) {
  if (tracing_enabled() && start_tick != 0) {
    const std::uint64_t end = raw_tick();
    const std::uint64_t dur_ns = interval_ns(start_tick, end);
    emit_at_lazy(end, EventKind::kCallExit, color,
                 static_cast<std::int64_t>(dur_ns << kCallTokenBits) |
                     call_token_index(fn_token),
                 result);
  }
}

/// A spawned chunk started executing on enclave @p color.
inline void on_chunk_dispatch(std::int64_t color, std::int64_t chunk, std::int64_t leader) {
  if (tracing_enabled()) {
    emit_at_lazy(raw_tick(), EventKind::kChunkDispatch, color, chunk, leader);
  }
  if (metrics_enabled()) {
    static PerColorCounter& chunks =
        MetricsRegistry::global().per_color("interp.chunks_dispatched");
    chunks.add(color);
  }
}

/// A bytecode executor flushed its batched instruction count (at mailbox ops
/// and every kCountFlushBatch branch edges) — the instructions-per-call
/// distribution of §7.3 falls out of these flush sizes (sampled; this is the
/// single hottest hook, several flushes per request).
inline void on_budget_flush(std::uint64_t instructions) {
  if (metrics_enabled() && sampled_8th<SampleSite::kBudgetFlush>()) {
    static Histogram& h =
        MetricsRegistry::global().histogram("interp.instructions_per_flush");
    h.record(instructions);
  }
}

// -- simulated SGX memory -----------------------------------------------------

inline void on_region_alloc(std::int64_t color, std::uint64_t base, std::uint64_t bytes) {
  if (tracing_enabled()) {
    emit(EventKind::kRegionAlloc, color, static_cast<std::int64_t>(base),
         static_cast<std::int64_t>(bytes));
  }
  if (metrics_enabled()) {
    static PerColorCounter& regions = MetricsRegistry::global().per_color("sgx.regions_allocated");
    static PerColorCounter& epc = MetricsRegistry::global().per_color("sgx.bytes_allocated");
    regions.add(color);
    epc.add(color, bytes);
  }
}

inline void on_region_free(std::int64_t color, std::uint64_t base, std::uint64_t bytes) {
  if (tracing_enabled()) {
    emit(EventKind::kRegionFree, color, static_cast<std::int64_t>(base),
         static_cast<std::int64_t>(bytes));
  }
  if (metrics_enabled()) {
    static PerColorCounter& freed = MetricsRegistry::global().per_color("sgx.regions_freed");
    freed.add(color);
  }
}

/// The EPC budget clock paged a region out of @p color's simulated EPC
/// (DESIGN.md §14), charging @p charged_ns of simulated EWB time. Metrics
/// only — paging is already visible in the charged-time series and an event
/// per eviction would dominate a thrashing trace.
inline void on_epc_evict(std::int64_t color, std::uint64_t bytes, double charged_ns) {
  if (metrics_enabled()) {
    static PerColorCounter& evictions = MetricsRegistry::global().per_color("sgx.epc_evictions");
    static PerColorCounter& evicted = MetricsRegistry::global().per_color("sgx.epc_bytes_evicted");
    static PerColorCounter& ns = MetricsRegistry::global().per_color("sgx.epc_fault_ns");
    evictions.add(color);
    evicted.add(color, bytes);
    ns.add(color, static_cast<std::uint64_t>(charged_ns));
  }
}

/// A slow-path access hit a paged-out region and reloaded it (simulated
/// ELDU), charging @p charged_ns. Shares the charged-time series with evicts.
inline void on_epc_fault(std::int64_t color, std::uint64_t bytes, double charged_ns) {
  if (metrics_enabled()) {
    static PerColorCounter& faults = MetricsRegistry::global().per_color("sgx.epc_faults");
    static PerColorCounter& reloaded = MetricsRegistry::global().per_color("sgx.epc_bytes_reloaded");
    static PerColorCounter& ns = MetricsRegistry::global().per_color("sgx.epc_fault_ns");
    faults.add(color);
    reloaded.add(color, bytes);
    ns.add(color, static_cast<std::uint64_t>(charged_ns));
  }
}

// -- native tier (JIT; DESIGN.md §16) -----------------------------------------

/// The JitEngine promoted a hot chunk: one compiled unit published.
inline void on_jit_compile() {
  if (metrics_enabled()) {
    static Counter& c = MetricsRegistry::global().counter("jit.compiles");
    c.add(1);
  }
}

/// A native-code call bailed back to the fused interpreter (unsupported op
/// reached at run time). Pinned under a {"max"} baseline ceiling — a deopt
/// storm means the legality scan and the emitted code disagree.
inline void on_jit_deopt() {
  if (metrics_enabled()) {
    static Counter& c = MetricsRegistry::global().counter("jit.deopts");
    c.add(1);
  }
}

/// @p bytes of page-rounded executable code mapped by a CodeArena — the
/// native tier's EPC footprint.
inline void on_jit_code_bytes(std::uint64_t bytes) {
  if (metrics_enabled()) {
    static Counter& c = MetricsRegistry::global().counter("jit.code_bytes");
    c.add(bytes);
  }
}

#else  // !PRIVAGIC_TRACE — every hook is a literal no-op.

[[nodiscard]] inline std::uint64_t msg_send_tick(std::uint8_t) { return 0; }
inline void on_msg_send(std::uint64_t, std::int64_t, std::uint8_t, std::int64_t,
                        std::int64_t) {}
inline void on_msg_recv(std::int64_t, std::uint8_t, std::int64_t, std::int64_t) {}
inline void on_waited_recv(std::int64_t) {}
inline void on_wait_entry() {}
inline void on_wait_segment(std::int64_t, std::int64_t, std::uint64_t, std::uint8_t,
                            std::uint64_t) {}
inline void on_worker_exit() {}
inline void on_retransmit(std::int64_t, std::int64_t) {}
inline void on_watchdog_fire(std::int64_t) {}
inline void on_worker_poisoned(std::int64_t) {}
inline void on_worker_crash(std::int64_t, std::uint8_t) {}
inline void on_failover(std::int64_t, std::int64_t) {}
inline void on_checkpoint(std::int64_t, std::int64_t, std::int64_t) {}
inline void on_restore(std::int64_t, std::int64_t, std::uint8_t) {}
inline void on_mailbox_depth(std::size_t) {}
inline void on_batch_flush(std::size_t) {}
inline void on_spsc_depth(std::size_t) {}
inline void on_fault_verdict(std::uint8_t) {}
[[nodiscard]] inline std::uint64_t on_call_enter(std::int64_t, std::int64_t) { return 0; }
inline void on_call_exit(std::int64_t, std::int64_t, std::int64_t, std::uint64_t) {}
inline void on_chunk_dispatch(std::int64_t, std::int64_t, std::int64_t) {}
inline void on_budget_flush(std::uint64_t) {}
inline void on_region_alloc(std::int64_t, std::uint64_t, std::uint64_t) {}
inline void on_region_free(std::int64_t, std::uint64_t, std::uint64_t) {}
inline void on_epc_evict(std::int64_t, std::uint64_t, double) {}
inline void on_epc_fault(std::int64_t, std::uint64_t, double) {}
inline void on_jit_compile() {}
inline void on_jit_deopt() {}
inline void on_jit_code_bytes(std::uint64_t) {}

#endif  // PRIVAGIC_TRACE

}  // namespace privagic::obs
