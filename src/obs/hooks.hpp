// Instrumentation call sites for the whole stack, in one place.
//
// Each hook is an inline function the runtime (workers/mailbox), the
// interpreter (machine/bytecode), and the simulated SGX memory call at
// their interesting points. A hook does up to two things — record a metric
// (gated on metrics_enabled()) and emit a trace event (gated on
// tracing_enabled()) — and does *nothing* but one relaxed load + branch per
// gate when observability is off. With PRIVAGIC_TRACE=0 the bodies compile
// away entirely.
//
// One rule decides what is recorded: counters are exact, everything else is
// recorded by whole sampled request.
//   * Counters (sends, receives, chunk dispatches, batch flushes, EPC
//     traffic) count every occurrence while metrics are on.
//   * A request is one Machine::call (or a RequestScope a raw ThreadRuntime
//     user opens). While tracing or metrics are on, one request in
//     kRequestSamplePeriod is sampled, and its id travels in every Message
//     it sends; a worker serving one of its spawns adopts the id. A sampled
//     request records all of its trace events — sends, deliveries, call
//     spans, every wait segment, chunk dispatches — straight into the ring,
//     and all of its per-message histogram samples. An unsampled request
//     records nothing.
//   * Events that belong to no request — crashes, failovers, checkpoints,
//     restores, watchdog fires, poisonings, retransmits, fault verdicts, and
//     region allocations made outside any request — are recorded whenever
//     tracing is on.
//
// Metric instruments are resolved once per hook via function-local statics,
// so the steady-state cost of an enabled metric is the relaxed atomics of
// Counter/Histogram, never a registry lookup.
#pragma once

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace privagic::obs {

/// True when any observability sink is live.
inline bool observing() { return tracing_enabled() || metrics_enabled(); }

/// Brackets one request on the calling thread (see the rule above).
class RequestScope {
 public:
  /// Opens a new request and decides whether it is sampled.
  RequestScope() : RequestScope(PRIVAGIC_TRACE && observing() ? sample_request() : 0) {}
  /// Serves request @p id, carried by the message being dispatched.
  explicit RequestScope(std::uint32_t id) { detail::tl_request = id; }
  ~RequestScope() { detail::tl_request = saved_; }
  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

 private:
  std::int64_t saved_ = detail::tl_request;
};

/// The calling thread's request records its trace events.
inline bool tracing_request() { return in_sampled_request() && tracing_enabled(); }
/// Request @p request (a Message::request or current_request()) records its
/// histogram samples.
inline bool measuring_request(std::uint32_t request) {
  return request != 0 && metrics_enabled();
}

/// Nanoseconds between two raw_tick() reads; pure arithmetic.
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

/// A send handed to the runtime (ThreadRuntime::send, before the message
/// enters the outbox, so before any mailbox push). @p msg_kind is the raw
/// runtime::MsgKind value; @p chunk is meaningful for spawns only.
inline void on_msg_send(std::int64_t target_color, std::uint8_t msg_kind, std::int64_t tag,
                        std::int64_t chunk) {
  if (tracing_request()) emit(EventKind::kMsgSend, target_color, tag, chunk, msg_kind);
  if (metrics_enabled()) {
    static PerColorCounter& sends = MetricsRegistry::global().per_color("runtime.msg_sends");
    sends.add(target_color);
  }
}

/// A validated spawn delivered to worker @p me, after the worker adopted
/// its request. Deliveries that come out of a blocking wait are recorded
/// by the wait's kWait event instead (see on_waited_recv).
inline void on_msg_recv(std::int64_t me, std::uint8_t msg_kind, std::int64_t tag,
                        std::int64_t payload) {
  if (tracing_request()) emit(EventKind::kMsgRecv, me, tag, payload, msg_kind);
  if (metrics_enabled()) {
    static PerColorCounter& recvs = MetricsRegistry::global().per_color("runtime.msg_recvs");
    recvs.add(me);
  }
}

/// Counter half of a delivery that came out of a blocking wait; the matching
/// kWait event (on_wait_segment, detail = kind+1) is its trace record.
inline void on_waited_recv(std::int64_t me) {
  if (metrics_enabled()) {
    static PerColorCounter& recvs = MetricsRegistry::global().per_color("runtime.msg_recvs");
    recvs.add(me);
  }
}

/// Start of one mailbox wait segment: a raw tick inside a sampled request
/// while observing, 0 (the segment is not timed) otherwise.
[[nodiscard]] inline std::uint64_t wait_begin_tick() {
  return in_sampled_request() && observing() ? raw_tick() : 0;
}

/// One mailbox wait segment of worker @p me on @p tag ended, begun at
/// @p begin_tick (wait_begin_tick). @p matched_kind_plus1 is the delivered
/// message's MsgKind + 1, or 0 when the segment timed out.
inline void on_wait_segment(std::int64_t me, std::int64_t tag, std::uint8_t matched_kind_plus1,
                            std::uint64_t begin_tick) {
  if (begin_tick == 0) return;
  const std::uint64_t end = raw_tick();
  const std::uint64_t blocked_ns = interval_ns(begin_tick, end);
  if (tracing_enabled()) {
    emit_at(end, EventKind::kWait, me, tag, static_cast<std::int64_t>(blocked_ns),
            matched_kind_plus1);
  }
  if (metrics_enabled()) {
    static Histogram& waits = MetricsRegistry::global().histogram("mailbox.wait_ns");
    waits.record(blocked_ns);
  }
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

/// Mailbox depth observed right after a push whose last message belongs to
/// @p request (a batch may be flushed after its sender left the request).
inline void on_mailbox_depth(std::size_t depth, std::uint32_t request) {
  if (measuring_request(request)) {
    static Histogram& h = MetricsRegistry::global().histogram("mailbox.depth_at_push");
    h.record(depth);
  }
}

/// One sender-side outbox slot delivered as a batch of @p msgs messages
/// (workers.hpp flush_one). Unsampled: flushes are already coalesced — at
/// most one per MessageBatch::kCapacity messages — so the histogram write is
/// off the per-message path, and the deterministic .count/.sum (=
/// batch_flushes / batched_messages) are what bench_check pins for
/// bench/call_path.
inline void on_batch_flush(std::size_t msgs) {
  if (metrics_enabled()) {
    static Histogram& h = MetricsRegistry::global().histogram("runtime.msgs_per_flush");
    h.record(msgs);
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

/// Interface-call span encoding: ONE duration-carrying kCallExit event per
/// call instead of an enter/exit pair. on_call_enter only reads the clock and
/// hands the start tick back to the call site; on_call_exit packs the elapsed
/// nanoseconds and the function token into the event's `a` field
/// (a = dur_ns << kCallTokenBits | token) — the writer renders it as a
/// complete "X" slice. The enter edge is its own kCallEnter event.
constexpr int kCallTokenBits = 12;
constexpr std::int64_t kCallTokenMask = (1 << kCallTokenBits) - 1;

/// Machine function-pointer tokens are 2^62 + function index, so the low
/// kCallTokenBits of a token ARE the index; the -1 "unknown" sentinel maps to
/// the all-ones value.
inline std::int64_t call_token_index(std::int64_t fn_token) {
  return fn_token >= 0 ? (fn_token & kCallTokenMask) : kCallTokenMask;
}

[[nodiscard]] inline std::uint64_t on_call_enter(std::int64_t color, std::int64_t fn_token) {
  if (!tracing_request()) return 0;
  const std::uint64_t tick = raw_tick();
  emit_at(tick, EventKind::kCallEnter, color, call_token_index(fn_token));
  return tick;
}

inline void on_call_exit(std::int64_t color, std::int64_t fn_token, std::int64_t result,
                         std::uint64_t start_tick) {
  if (tracing_enabled() && start_tick != 0) {
    const std::uint64_t end = raw_tick();
    const std::uint64_t dur_ns = interval_ns(start_tick, end);
    emit_at(end, EventKind::kCallExit, color,
                 static_cast<std::int64_t>(dur_ns << kCallTokenBits) |
                     call_token_index(fn_token),
                 result);
  }
}

/// A spawned chunk started executing on enclave @p color.
inline void on_chunk_dispatch(std::int64_t color, std::int64_t chunk, std::int64_t leader) {
  if (tracing_request()) emit(EventKind::kChunkDispatch, color, chunk, leader);
  if (metrics_enabled()) {
    static PerColorCounter& chunks =
        MetricsRegistry::global().per_color("interp.chunks_dispatched");
    chunks.add(color);
  }
}

/// A bytecode executor flushed its batched instruction count (at mailbox ops
/// and every kCountFlushBatch branch edges) — the instructions-per-call
/// distribution of §7.3 falls out of these flush sizes.
inline void on_budget_flush(std::uint64_t instructions) {
  if (measuring_request(current_request())) {
    static Histogram& h =
        MetricsRegistry::global().histogram("interp.instructions_per_flush");
    h.record(instructions);
  }
}

// -- simulated SGX memory -----------------------------------------------------

/// Region events are request events inside a request and recorded on their
/// own outside one (e.g. the globals a Machine allocates at construction).
inline void on_region_alloc(std::int64_t color, std::uint64_t base, std::uint64_t bytes) {
  if (tracing_enabled() && !in_unsampled_request()) {
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
  if (tracing_enabled() && !in_unsampled_request()) {
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

#else  // !PRIVAGIC_TRACE — every hook is a literal no-op.

inline void on_msg_send(std::int64_t, std::uint8_t, std::int64_t, std::int64_t) {}
inline void on_msg_recv(std::int64_t, std::uint8_t, std::int64_t, std::int64_t) {}
inline void on_waited_recv(std::int64_t) {}
[[nodiscard]] inline std::uint64_t wait_begin_tick() { return 0; }
inline void on_wait_segment(std::int64_t, std::int64_t, std::uint8_t, std::uint64_t) {}
inline void on_retransmit(std::int64_t, std::int64_t) {}
inline void on_watchdog_fire(std::int64_t) {}
inline void on_worker_poisoned(std::int64_t) {}
inline void on_worker_crash(std::int64_t, std::uint8_t) {}
inline void on_failover(std::int64_t, std::int64_t) {}
inline void on_checkpoint(std::int64_t, std::int64_t, std::int64_t) {}
inline void on_restore(std::int64_t, std::int64_t, std::uint8_t) {}
inline void on_mailbox_depth(std::size_t, std::uint32_t) {}
inline void on_batch_flush(std::size_t) {}
inline void on_fault_verdict(std::uint8_t) {}
[[nodiscard]] inline std::uint64_t on_call_enter(std::int64_t, std::int64_t) { return 0; }
inline void on_call_exit(std::int64_t, std::int64_t, std::int64_t, std::uint64_t) {}
inline void on_chunk_dispatch(std::int64_t, std::int64_t, std::int64_t) {}
inline void on_budget_flush(std::uint64_t) {}
inline void on_region_alloc(std::int64_t, std::uint64_t, std::uint64_t) {}
inline void on_region_free(std::int64_t, std::uint64_t, std::uint64_t) {}
inline void on_epc_evict(std::int64_t, std::uint64_t, double) {}
inline void on_epc_fault(std::int64_t, std::uint64_t, double) {}

#endif  // PRIVAGIC_TRACE

}  // namespace privagic::obs
