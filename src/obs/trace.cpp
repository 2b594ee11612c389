// The trace ring, the Tracer registry and the request sampler. What is
// recorded, and for which requests, is decided by the hooks (hooks.hpp);
// this file only stores events, counts them and drains them.
#include "obs/trace.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace privagic::obs {

std::atomic<bool> Tracer::enabled_{false};

namespace {
// Bumped by every restart_request_sampling(); a thread whose cached value is
// stale samples its next request.
std::atomic<std::uint64_t> g_sampling_epoch{1};
std::atomic<std::uint32_t> g_next_request{1};
std::atomic<std::uint64_t> g_requests_sampled{0};  // since Tracer::clear()
}  // namespace

#if !PRIVAGIC_TRACE_TSC
std::uint64_t raw_tick() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
#endif

double ns_per_tick() {
#if PRIVAGIC_TRACE_TSC
  static const double factor = [] {
    const auto t0 = std::chrono::steady_clock::now();
    const std::uint64_t tick0 = raw_tick();
    for (;;) {
      const auto elapsed = std::chrono::steady_clock::now() - t0;
      if (elapsed >= std::chrono::microseconds(200)) {
        const std::uint64_t tick1 = raw_tick();
        const auto ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count();
        return tick1 > tick0
                   ? static_cast<double>(ns) / static_cast<double>(tick1 - tick0)
                   : 1.0;
      }
    }
  }();
  return factor;
#else
  return 1.0;
#endif
}

const char* event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kMsgSend: return "msg_send";
    case EventKind::kMsgRecv: return "msg_recv";
    case EventKind::kCallEnter: return "call_enter";
    case EventKind::kCallExit: return "call_exit";
    case EventKind::kChunkDispatch: return "chunk_dispatch";
    case EventKind::kWait: return "wait";
    case EventKind::kRegionAlloc: return "region_alloc";
    case EventKind::kRegionFree: return "region_free";
    case EventKind::kFaultVerdict: return "fault_verdict";
    case EventKind::kRetransmit: return "retransmit";
    case EventKind::kWorkerPoisoned: return "worker_poisoned";
    case EventKind::kWorkerCrash: return "worker_crash";
    case EventKind::kFailover: return "failover";
    case EventKind::kCheckpoint: return "checkpoint";
    case EventKind::kRestore: return "restore";
  }
  return "unknown";
}

TraceBuffer::TraceBuffer(std::uint32_t tid, std::size_t capacity) : tid_(tid) {
  // Round up to a power of two so the ring index is a mask.
  std::size_t cap = 1;
  while (cap < capacity) cap <<= 1;
  mask_ = cap - 1;
  events_.resize(cap);
}

TraceBuffer::Drained TraceBuffer::drain() const {
  Drained out;
  out.tid = tid_;
  const std::uint64_t count = count_.load(std::memory_order_acquire);
  const std::uint64_t retained = std::min<std::uint64_t>(count, mask_ + 1);
  out.dropped = count - retained;
  out.events.reserve(retained);
  for (std::uint64_t i = count - retained; i < count; ++i) {
    out.events.push_back(events_[i & mask_]);
  }
  return out;
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::enable(std::size_t per_thread_capacity) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    capacity_ = per_thread_capacity;
  }
  epoch_ns_.store(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count(),
                  std::memory_order_relaxed);
  epoch_tick_.store(raw_tick(), std::memory_order_relaxed);
  restart_request_sampling();
  enabled_.store(true, std::memory_order_release);
}

void Tracer::disable() { enabled_.store(false, std::memory_order_release); }

void Tracer::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  buffers_.clear();
  next_tid_.store(0, std::memory_order_relaxed);
  generation_.fetch_add(1, std::memory_order_relaxed);
  g_requests_sampled.store(0, std::memory_order_relaxed);
  restart_request_sampling();
}

std::uint64_t Tracer::now_ns() const {
  const std::int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                               std::chrono::steady_clock::now().time_since_epoch())
                               .count();
  const std::int64_t epoch = epoch_ns_.load(std::memory_order_relaxed);
  return now > epoch ? static_cast<std::uint64_t>(now - epoch) : 0;
}

TraceBuffer& Tracer::local() {
  // One buffer per (thread, clear-generation): after clear() a live thread
  // re-registers instead of writing into a dropped buffer.
  struct Local {
    std::shared_ptr<TraceBuffer> buffer;
    std::uint64_t generation = 0;
  };
  thread_local Local tl;
  const std::uint64_t gen = generation_.load(std::memory_order_relaxed);
  if (tl.buffer == nullptr || tl.generation != gen) {
    const std::lock_guard<std::mutex> lock(mu_);
    tl.buffer = std::make_shared<TraceBuffer>(
        next_tid_.fetch_add(1, std::memory_order_relaxed), capacity_);
    tl.generation = generation_.load(std::memory_order_relaxed);
    buffers_.push_back(tl.buffer);
  }
  return *tl.buffer;
}

std::vector<TraceBuffer::Drained> Tracer::drain() const {
  std::vector<std::shared_ptr<TraceBuffer>> buffers;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    buffers = buffers_;
  }
  std::vector<TraceBuffer::Drained> out;
  out.reserve(buffers.size());
  for (const auto& b : buffers) out.push_back(b->drain());
  // Live events carry raw ticks (TSC on x86). Calibrate ticks→ns against the
  // wall time elapsed since enable(); the longer the capture, the tighter the
  // fit. Invariant TSCs are core-synchronized, so cross-thread order holds.
  const std::uint64_t tick_elapsed = raw_tick() - epoch_tick();
  const std::uint64_t ns_elapsed = now_ns();
  const double scale =
      tick_elapsed > 0 ? static_cast<double>(ns_elapsed) / static_cast<double>(tick_elapsed)
                       : 1.0;
  std::uint64_t retained = 0;
  std::uint64_t dropped = 0;
  for (auto& d : out) {
    retained += d.events.size();
    dropped += d.dropped;
    for (auto& e : d.events) {
      e.tick_ns = static_cast<std::uint64_t>(static_cast<double>(e.tick_ns) * scale);
    }
  }
  MetricsRegistry& reg = MetricsRegistry::global();
  reg.counter("trace.events_recorded").set(retained + dropped);
  reg.counter("trace.events_dropped").set(dropped);
  reg.counter("obs.requests_sampled").set(g_requests_sampled.load(std::memory_order_relaxed));
  return out;
}

std::uint64_t Tracer::event_count() const {
  std::uint64_t total = 0;
  for (const auto& d : drain()) total += d.events.size();
  return total;
}

TraceBuffer& Tracer::cached_local() {
  struct Cached {
    TraceBuffer* raw = nullptr;
    std::uint64_t generation = 0;
  };
  thread_local Cached tl;
  if (tl.raw == nullptr ||
      tl.generation != generation_.load(std::memory_order_relaxed)) {
    tl.raw = &local();
    tl.generation = generation_.load(std::memory_order_relaxed);
  }
  return *tl.raw;
}

#if PRIVAGIC_TRACE
std::uint32_t sample_request() {
  struct Local {
    std::uint64_t epoch = 0;
    std::uint32_t n = 0;  // requests opened since the epoch began
  };
  thread_local Local tl;
  const std::uint64_t epoch = g_sampling_epoch.load(std::memory_order_relaxed);
  if (tl.epoch != epoch) {
    tl.epoch = epoch;
    tl.n = 0;
  }
  if (tl.n++ % kRequestSamplePeriod != 0) return 0;
  g_requests_sampled.fetch_add(1, std::memory_order_relaxed);
  std::uint32_t id = g_next_request.fetch_add(1, std::memory_order_relaxed);
  while (id == 0) id = g_next_request.fetch_add(1, std::memory_order_relaxed);  // wrapped
  return id;
}

void restart_request_sampling() {
  g_sampling_epoch.fetch_add(1, std::memory_order_relaxed);
}

void emit_at(std::uint64_t tick, EventKind kind, std::int64_t color, std::int64_t a,
             std::int64_t b, std::uint8_t detail) {
  Tracer& tracer = Tracer::instance();
  TraceEvent e;
  e.tick_ns = tick - tracer.epoch_tick();
  e.a = a;
  e.b = b;
  e.request = current_request();
  e.color = static_cast<std::int16_t>(color);
  e.kind = kind;
  e.detail = detail;
  tracer.cached_local().record(e);
}

void emit(EventKind kind, std::int64_t color, std::int64_t a, std::int64_t b,
          std::uint8_t detail) {
  emit_at(raw_tick(), kind, color, a, b, detail);
}
#endif

}  // namespace privagic::obs
