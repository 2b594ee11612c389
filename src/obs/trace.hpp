// Structured tracing for the partitioned runtime.
//
// The paper attributes cost to enclave transitions, per-color chunks and
// queue crossings (§7, Figs. 8–10, Table 4); this module records those
// events so that one request can be followed across enclaves. Constraints,
// in order:
//
//   1. ~0% overhead when tracing is off — every hook is one relaxed atomic
//      load and a predictable branch (and compiles out entirely when the
//      build sets PRIVAGIC_TRACE=0);
//   2. whole requests or nothing — an event belongs to the request the
//      recording thread is serving (its id is in every TraceEvent), and only
//      sampled requests record (the rule is stated in hooks.hpp);
//   3. low overhead when on — each event is one fixed-size 32-byte store
//      into a per-thread lock-free ring (single writer, no CAS, no malloc);
//   4. post-run drainability — buffers are registered with a process-global
//      Tracer and drained after the workload quiesces into Chrome
//      trace_event JSON (chrome://tracing / Perfetto loadable) by
//      trace_writer.hpp.
//
// Events are stamped with monotonic ticks from the tracer's epoch — raw TSC
// on x86 (one rdtsc, no vDSO call) converted to nanoseconds at drain time via
// a steady_clock calibration pair, plain steady_clock ns elsewhere — and with
// a small dense thread id assigned at buffer registration. Drained events
// always carry nanoseconds; the raw-tick representation never escapes.
#pragma once

#ifndef PRIVAGIC_TRACE
#define PRIVAGIC_TRACE 1
#endif

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>


namespace privagic::obs {

enum class EventKind : std::uint8_t {
  kMsgSend,        // a=tag, b=chunk (spawns), color=target, detail=MsgKind
  kMsgRecv,        // a=tag, b=payload, color=receiver, detail=MsgKind
  kCallEnter,      // a=function token, color=caller
  kCallExit,       // a=dur_ns<<12|token (whole span), b=result, color=caller
  kChunkDispatch,  // a=chunk id, b=leader, color=executing enclave
  kWait,           // a=tag, b=blocked ns, color=waiter, detail=matched MsgKind+1 (0=timeout)
  kRegionAlloc,    // a=base address, b=bytes, color=owner
  kRegionFree,     // a=base address, b=bytes, color=owner
  kFaultVerdict,   // detail=FaultKind the injector applied to a crossing
  kWatchdogFire,   // color=unwedged worker
  kRetransmit,     // a=tag, color=waiter that triggered the resend
  kWorkerPoisoned, // color=poisoned worker
  kWorkerCrash,    // a=CrashPoint, color=crashed worker (DESIGN.md §12)
  kFailover,       // a=journal entries to replay, color=color taken over
  kCheckpoint,     // a=epoch, b=payload bytes, color=sealing worker
  kRestore,        // a=epoch, b=AttestVerdict, color=restoring worker
};

[[nodiscard]] const char* event_kind_name(EventKind kind);

#if defined(__x86_64__) || defined(__i386__)
#define PRIVAGIC_TRACE_TSC 1
/// Raw timestamp-counter read — ~5 ns, vs ~20 ns for the vDSO clock. Modern
/// x86 TSCs are invariant and core-synchronized, so cross-thread event order
/// survives the drain-time conversion to nanoseconds.
inline std::uint64_t raw_tick() { return __builtin_ia32_rdtsc(); }
#else
#define PRIVAGIC_TRACE_TSC 0
std::uint64_t raw_tick();  // steady_clock fallback (trace.cpp)
#endif

/// Nanoseconds per raw_tick() unit: calibrated once per process against
/// steady_clock (~200 µs spin at first use), exactly 1.0 on the fallback.
/// Lets hot paths time short intervals with two rdtscs instead of two
/// clock_gettime calls.
double ns_per_tick();

/// One fixed-size binary trace record. Meaning of a/b/detail is per kind
/// (see EventKind); `tick_ns` is nanoseconds since the tracer was enabled.
/// (While an event sits in a live TraceBuffer the field holds raw ticks;
/// Tracer::drain converts before anything downstream sees it.) `request` is
/// the sampled request the recording thread was serving, 0 outside one.
struct alignas(16) TraceEvent {
  std::uint64_t tick_ns = 0;
  std::int64_t a = 0;
  std::int64_t b = 0;
  std::uint32_t request = 0;
  std::int16_t color = -1;
  EventKind kind = EventKind::kMsgSend;
  std::uint8_t detail = 0;
};
static_assert(sizeof(TraceEvent) == 32, "trace events are fixed 32-byte records");

/// A single-writer ring of trace events. The owning thread records without
/// locks or CAS; the drain side reads the published prefix after the writer
/// has quiesced (end of run). When the ring wraps, the oldest events are
/// overwritten and reported as dropped at drain time.
class TraceBuffer {
 public:
  TraceBuffer(std::uint32_t tid, std::size_t capacity);

  /// Owner thread only. One slot store + one release publish. (Plain cached
  /// stores beat non-temporal ones here: 32-byte events only half-fill a
  /// write-combining line, and partially-flushed WC buffers cost far more
  /// than the L1 traffic they avoid — measured 8x worse on the kvcache
  /// overhead bench.)
  void record(const TraceEvent& e) {
    const std::uint64_t i = count_.load(std::memory_order_relaxed);
    events_[i & mask_] = e;
    count_.store(i + 1, std::memory_order_release);
  }

  [[nodiscard]] std::uint32_t tid() const { return tid_; }
  [[nodiscard]] std::size_t capacity() const { return mask_ + 1; }

  /// Drain-side snapshot: the retained events in record order plus how many
  /// older events the ring overwrote. Accurate once the writer is quiescent
  /// (post-run); a still-running writer can at worst tear events it is
  /// concurrently overwriting, never the published count.
  struct Drained {
    std::uint32_t tid = 0;
    std::uint64_t dropped = 0;
    std::vector<TraceEvent> events;
  };
  [[nodiscard]] Drained drain() const;

 private:
  std::uint32_t tid_;
  std::uint64_t mask_;
  std::vector<TraceEvent> events_;
  std::atomic<std::uint64_t> count_{0};
};

/// Process-global trace collector: owns the enabled flag, hands each thread
/// its TraceBuffer on first use, and drains every registered buffer post-run.
class Tracer {
 public:
  // 1024 events = 32 KiB/thread: a flight-recorder window of the newest
  // sampled requests. Sized so a saturated ring stays cache-resident: a write
  // into a much larger ring is always a cache miss (every slot has gone cold
  // by the time the writer wraps back to it) and evicts the traced workload's
  // own lines — measured as the single largest full-capture cost on the
  // kvcache overhead bench.
  static constexpr std::size_t kDefaultCapacity = 1u << 10;

  static Tracer& instance();

  /// Starts a capture: resets the epoch, flips the global enabled flag and
  /// restarts request sampling (see sample_request).
  /// Buffers created from now on hold @p per_thread_capacity events.
  void enable(std::size_t per_thread_capacity = kDefaultCapacity);
  void disable();

  /// Re-arms capture after disable() WITHOUT resetting the epoch, so events
  /// recorded across several enabled windows share one timebase (used by
  /// benchmarks that interleave traced and untraced reps).
  void resume() { enabled_.store(true, std::memory_order_release); }

  /// Drops every registered buffer, invalidates the thread-local handles of
  /// live threads (they re-register on their next event), zeroes the
  /// sampled-request count and restarts request sampling. Call between
  /// independent captures.
  void clear();

  /// The calling thread's buffer (created and registered on first use).
  TraceBuffer& local();

  /// local() behind a raw-pointer thread-local cache — the recording path.
  /// The generation check re-registers after clear() before a stale pointer
  /// could ever be dereferenced.
  TraceBuffer& cached_local();

  /// steady_clock nanoseconds since enable() (drain's calibration pair).
  [[nodiscard]] std::uint64_t now_ns() const;

  /// raw_tick() at enable(); event timestamps are stored relative to this.
  [[nodiscard]] std::uint64_t epoch_tick() const {
    return epoch_tick_.load(std::memory_order_relaxed);
  }

  /// Snapshot of every thread's retained events (see TraceBuffer::drain),
  /// with raw ticks converted to nanoseconds-since-enable via the
  /// (steady_clock, raw_tick) calibration pair taken here. Also publishes
  /// the loss accounting as registry counters: trace.events_recorded (every
  /// event written since clear()), trace.events_dropped (overwritten by ring
  /// wrap) and obs.requests_sampled.
  [[nodiscard]] std::vector<TraceBuffer::Drained> drain() const;

  /// Total events currently retained across all buffers.
  [[nodiscard]] std::uint64_t event_count() const;

 private:
  Tracer() = default;

  mutable std::mutex mu_;
  std::vector<std::shared_ptr<TraceBuffer>> buffers_;
  std::size_t capacity_ = kDefaultCapacity;
  std::atomic<std::uint32_t> next_tid_{0};
  std::atomic<std::uint64_t> generation_{1};  // bumping invalidates thread-locals
  std::atomic<std::int64_t> epoch_ns_{0};     // steady_clock ns at enable()
  std::atomic<std::uint64_t> epoch_tick_{0};  // raw_tick() at enable()

  friend bool tracing_enabled();
  static std::atomic<bool> enabled_;
};

/// True while a capture is running. The one-load hot-path gate.
inline bool tracing_enabled() {
#if PRIVAGIC_TRACE
  return Tracer::enabled_.load(std::memory_order_relaxed);
#else
  return false;
#endif
}

/// One request in kRequestSamplePeriod is sampled (the period of the
/// perfbench span recorder, SpanLog::kSampleEvery).
inline constexpr std::uint32_t kRequestSamplePeriod = 32;

namespace detail {
/// The request the calling thread is serving: -1 outside any request, 0 in
/// an unsampled one, otherwise the sampled request's id.
inline thread_local std::int64_t tl_request = -1;
}  // namespace detail

/// The calling thread's sampled request id, 0 when it serves none. Sends
/// stamp it into Message::request.
inline std::uint32_t current_request() {
#if PRIVAGIC_TRACE
  return detail::tl_request > 0 ? static_cast<std::uint32_t>(detail::tl_request) : 0;
#else
  return 0;
#endif
}

inline bool in_sampled_request() { return current_request() != 0; }

/// True inside a request that was not sampled: such a request records
/// nothing, not even the events a thread records outside any request.
inline bool in_unsampled_request() {
#if PRIVAGIC_TRACE
  return detail::tl_request == 0;
#else
  return false;
#endif
}

#if PRIVAGIC_TRACE
/// The sampling decision for a request the calling thread opens while
/// observing: a fresh nonzero id for the first request after the latest
/// Tracer::enable()/clear() or set_metrics_enabled(true) and for every
/// kRequestSamplePeriod-th one after it, 0 for the rest. Per-thread and
/// deterministic: a fixed call sequence samples the same calls every run.
[[nodiscard]] std::uint32_t sample_request();

/// Makes every thread's next sample_request() sample (see above).
void restart_request_sampling();

/// Records one event, stamped now, into the calling thread's buffer. Callers
/// gate on tracing_enabled() first so the disabled path never reaches here.
void emit(EventKind kind, std::int64_t color, std::int64_t a = 0, std::int64_t b = 0,
          std::uint8_t detail = 0);

/// Like emit(), stamped with a raw_tick() value the caller already read —
/// hooks that just timed an interval reuse its end read instead of paying a
/// second TSC read.
void emit_at(std::uint64_t tick, EventKind kind, std::int64_t color, std::int64_t a = 0,
             std::int64_t b = 0, std::uint8_t detail = 0);
#else
[[nodiscard]] inline std::uint32_t sample_request() { return 0; }
inline void restart_request_sampling() {}
inline void emit(EventKind, std::int64_t, std::int64_t = 0, std::int64_t = 0,
                 std::uint8_t = 0) {}
inline void emit_at(std::uint64_t, EventKind, std::int64_t, std::int64_t = 0,
                    std::int64_t = 0, std::uint8_t = 0) {}
#endif

}  // namespace privagic::obs
