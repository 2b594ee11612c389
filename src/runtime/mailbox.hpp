// A worker's mailbox: messages from any enclave, matched by (kind, tag).
//
// wait(kCont, 5) removes and returns the first buffered cont with tag 5; a
// pending spawn is returned instead whenever one is queued ahead, so a
// blocked worker serves incoming chunk starts re-entrantly (this is what
// keeps nested cross-enclave calls from deadlocking — see
// partition/intrinsics.hpp).
//
// Transport. This is the interpreter runtime's one message channel, built as
// the paper's runtime builds its per-worker channel: "a lock-free FIFO queue
// stored in unsafe memory" (§7.3.2). Three parts:
//   * an inbound ring — a bounded multi-producer ring. A push claims a
//     position with one CAS on tail_ and publishes it with one release store
//     of the slot's publish word (position + 1): no lock, no syscall. One
//     message moves one slot (128-byte aligned, a line pair) from producer
//     to consumer and no other line: the waiter polls the head slot's
//     publish word, not tail_; producers check fullness against a cached
//     head (head_seen_) and re-read head_ only when the ring looks full; the
//     drainer never writes a slot back, only head_. A publish word left from
//     an earlier lap is below head + 1, so it never passes for a fresh one;
//   * an overflow list — a producer never blocks on a full ring. It appends
//     under a lock instead, and while the list is non-empty every later push
//     follows it there, so per-sender FIFO holds. The drainer takes the list
//     only once no ring push is still ahead of it. (Retransmits push from
//     threads that are not draining their own mailbox, so a blocking push
//     could deadlock);
//   * a pending list — drained messages that did not match the current wait.
//     One thread drains at a time (drain_mu_, never held while waiting), so
//     several waiters and a hot-failover replica can share a mailbox.
//
// Semantics the runtime builds on:
//   * next_for() — a timed variant of next(); the recovery protocol in
//     workers.hpp builds its bounded-retry/backoff loop on it, so a dropped
//     message degrades into a timeout instead of an eternal block.
//   * stop is *sticky*: a pushed kStop sets a flag instead of being a queue
//     entry one lucky waiter consumes. Every waiter — present and future —
//     observes it, after first draining any matching or control messages
//     queued before it.
//   * an optional FaultInjector interposes on push, modeling the attacker
//     who owns this queue's unsafe memory (kStop/kPoison/kCrash are runtime-
//     internal control and bypass it). Filter and enqueue run under one
//     producer-side lock, so delivery order is the injector's crossing order.
//   * push_batch() delivers a sender's coalesced outbox slot with one wake
//     check; the injector still filters every message individually, so
//     scripted fault crossings land on batched slots exactly as on singles.
//
// Waiting: a failed wait pause-spins briefly, then yields for kYieldFor, then
// parks on a condition variable. A producer touches the park lock only when
// a sleeper count, read after a seq_cst fence, is non-zero, so a hot request
// loop runs without a futex call.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "obs/hooks.hpp"
#include "runtime/fault_injector.hpp"
#include "runtime/message.hpp"

namespace privagic::runtime {

/// One busy-wait iteration that tells the core (and SMT sibling) we are
/// spinning. Falls back to a compiler barrier where no pause hint exists.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

// The StoreLoad fence of the park/wake handshake. GCC warns that TSan does
// not model fences; it need not here, because no plain data is published
// through this fence (the ring slots carry their own release/acquire).
#if defined(__SANITIZE_THREAD__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wtsan"
#endif
inline void store_load_fence() { __atomic_thread_fence(__ATOMIC_SEQ_CST); }
#if defined(__SANITIZE_THREAD__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

class Mailbox {
 public:
  using Clock = std::chrono::steady_clock;

  /// Inbound ring capacity: 256 slots of 128 bytes, 32 KiB per mailbox.
  static constexpr std::uint64_t kRingSlots = 256;

  Mailbox() = default;
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  /// Attaches the adversarial interposer. @p channel identifies this mailbox
  /// in the injector's per-channel hold-back state (use the color index).
  /// Configure before traffic starts.
  void set_injector(FaultInjector* injector, std::size_t channel) {
    const std::lock_guard<std::mutex> lock(inject_mu_);
    channel_ = channel;
    injector_.store(injector, std::memory_order_release);
  }

  void push(const Message& m) {
    if (m.kind == MsgKind::kStop) {
      {
        // Shutdown drains the attacker's hold-back buffer (late copies are
        // deduplicated downstream) ahead of the sticky flag.
        const std::lock_guard<std::mutex> lock(inject_mu_);
        if (FaultInjector* injector = injector_.load(std::memory_order_acquire)) {
          delivered_.clear();
          injector->flush(channel_, delivered_);
          for (const Message& h : delivered_) enqueue(h, /*measure=*/false);
        }
        stopped_.store(true, std::memory_order_release);
      }
      wake();
      return;
    }
    // kPoison (watchdog) and kCrash (crash injection / replica handoff) model
    // events *about* the channel's endpoints, not traffic on it, so the
    // attacker interposer never sees them.
    const bool control = m.kind == MsgKind::kPoison || m.kind == MsgKind::kCrash;
    deliver(&m, 1, control ? nullptr : injector_.load(std::memory_order_acquire));
  }

  /// Delivers @p n messages with a single wake check — the receive side of
  /// the sender-side outbox slab. Message order within the batch is the
  /// sender's enqueue order, so per-(sender, target) FIFO delivery is exactly
  /// what push() in a loop would give. The injector is consulted once *per
  /// message*: its crossing counter and hold-back buffers advance exactly as
  /// under unbatched delivery, which keeps the scripted fault tests' crossing
  /// indices valid. Control messages (kStop/kPoison) never travel in batches.
  void push_batch(const Message* msgs, std::size_t n) {
    deliver(msgs, n, injector_.load(std::memory_order_acquire));
  }

  /// Blocks until a message matching (kind, tag) — or any control message —
  /// is available; removes and returns it. Control messages (spawn, poison)
  /// win over a match that arrived later, preserving arrival order; a sticky
  /// stop is reported only once no queued message qualifies.
  Message next(MsgKind kind, std::int64_t tag) {
    return *take(kind, tag, /*control_only=*/false, std::nullopt);
  }

  /// Timed variant of next(): returns std::nullopt when @p timeout elapses
  /// with no qualifying message. The building block of the recovery loop.
  std::optional<Message> next_for(MsgKind kind, std::int64_t tag, Clock::duration timeout) {
    return take(kind, tag, /*control_only=*/false, Clock::now() + timeout);
  }

  /// Blocks for the next control message (the worker idle loop).
  Message next_control() {
    return *take(MsgKind::kStop, 0, /*control_only=*/true, std::nullopt);
  }

  std::optional<Message> next_control_for(Clock::duration timeout) {
    return take(MsgKind::kStop, 0, /*control_only=*/true, Clock::now() + timeout);
  }

  /// Size snapshot: pending, ring and overflow (tests only).
  [[nodiscard]] std::size_t size() const {
    const std::lock_guard<std::mutex> drain(drain_mu_);
    const std::lock_guard<std::mutex> overflow(overflow_mu_);
    return pending_.size() + overflow_.size() +
           (tail_.load(std::memory_order_acquire) - head_.load(std::memory_order_relaxed));
  }

  /// Waiters registered as parked (tests only).
  [[nodiscard]] std::uint32_t parked() const { return sleepers_.load(std::memory_order_relaxed); }

  /// Messages on the overflow list (tests only).
  [[nodiscard]] std::size_t overflowed() const {
    const std::lock_guard<std::mutex> lock(overflow_mu_);
    return overflow_.size();
  }

 private:
  // Wait tuning: pure pause-spins, then sched_yield for kYieldFor, then park.
  // The pause run stays short (32 pauses, ~0.7 µs on a current Xeon): when
  // the producer shares this thread's CPU — more runnable threads than CPUs —
  // every pause delays it, and a 256-pause run (~5 µs, longer than a kvcache
  // crossing) made two-client throughput bimodal under co-location. The
  // yield tier covers the rest of a request loop's waits: it returns at once
  // on an idle CPU and hands over a shared one.
  static constexpr std::uint32_t kPauseIters = 32;
  static constexpr std::chrono::microseconds kYieldFor{50};
  // Timed waits whose remaining deadline is at most this never park: a futex
  // wake's latency is the same order as such a deadline, so parking would
  // turn every such wait into a timeout. The caller's retry loop is bounded.
  static constexpr std::chrono::milliseconds kSpinParkThreshold{2};

  struct alignas(128) Slot {
    std::atomic<std::uint64_t> seq{0};  // == pos + 1: message pos is published
    Message msg;
  };
  // One ring per color per runtime: keep it small (peak RSS is a benchmark
  // metric).
  static_assert(sizeof(Slot) * kRingSlots <= 32 * 1024);

  /// Enqueues @p n messages — through @p injector, when given, with filter
  /// and enqueue under one lock — and wakes a parked waiter. The occupancy
  /// after the last push is measured when the batch's last message belongs
  /// to a sampled request.
  void deliver(const Message* msgs, std::size_t n, FaultInjector* injector) {
    const bool measure = n != 0 && obs::measuring_request(msgs[n - 1].request);
    std::size_t depth = 0;
    if (injector == nullptr) {
      for (std::size_t i = 0; i < n; ++i) depth = enqueue(msgs[i], measure);
    } else {
      const std::lock_guard<std::mutex> lock(inject_mu_);
      for (std::size_t i = 0; i < n; ++i) {
        delivered_.clear();
        injector->filter(channel_, msgs[i], delivered_);
        for (const Message& d : delivered_) depth = enqueue(d, measure);
      }
    }
    if (depth == 0) return;  // nothing to deliver, or all dropped in transit
    obs::on_mailbox_depth(depth, msgs[n - 1].request);
    wake();
  }

  /// Appends @p m to the ring, or to the overflow list when the ring is full
  /// or the list is already in use. Returns the resulting occupancy (never 0;
  /// 1 for a ring push made without @p measure).
  std::size_t enqueue(const Message& m, bool measure) {
    if (!overflow_active_.load(std::memory_order_acquire)) {
      // head_seen_ is read before tail_, so head <= pos. The acquire pairs
      // with the drainer's release of head_ (directly, or through the
      // producer that cached it): the slot's previous message is copied out.
      std::uint64_t head = head_seen_.load(std::memory_order_acquire);
      std::uint64_t pos = tail_.load(std::memory_order_relaxed);
      while (true) {
        if (pos - head >= kRingSlots) {
          head = head_.load(std::memory_order_acquire);
          head_seen_.store(head, std::memory_order_release);
          pos = tail_.load(std::memory_order_relaxed);
          if (pos - head >= kRingSlots) break;  // full: the drainer is a lap behind
        }
        if (tail_.compare_exchange_weak(pos, pos + 1, std::memory_order_relaxed)) {
          // Occupancy is read only when it will be recorded: head_ sits on
          // the drainer's hot cache line. Read before publishing, since the
          // drainer cannot pass an unpublished slot, so head <= pos.
          const std::uint64_t drained =
              measure ? head_.load(std::memory_order_relaxed) : pos;
          Slot& s = ring_[pos % kRingSlots];
          s.msg = m;
          s.seq.store(pos + 1, std::memory_order_release);
          return pos + 1 - drained;
        }
      }
    }
    const std::lock_guard<std::mutex> lock(overflow_mu_);
    overflow_.push_back(m);
    overflow_active_.store(true, std::memory_order_release);
    return kRingSlots + overflow_.size();
  }

  /// Wakes parked waiters, if any. The fence pairs with the one in park():
  /// either this load sees the sleeper, or the sleeper's re-check sees the
  /// delivery this thread published before calling wake().
  void wake() {
    store_load_fence();
    if (sleepers_.load(std::memory_order_relaxed) == 0) return;
    { const std::lock_guard<std::mutex> lock(park_mu_); }
    park_cv_.notify_all();
  }

  /// True once something a poll could act on may have arrived since the
  /// poll that left drained_ at @p seen. Polls the head slot's publish word,
  /// so a spinning waiter shares only the line its next message lands on.
  [[nodiscard]] bool ready(std::uint64_t seen) const {
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    return ring_[head % kRingSlots].seq.load(std::memory_order_acquire) == head + 1 ||
           overflow_active_.load(std::memory_order_acquire) ||
           stopped_.load(std::memory_order_acquire) ||
           drained_.load(std::memory_order_acquire) != seen;
  }

  /// Sleeps until a producer (or another drainer) signals, unless ready()
  /// already holds after registering as a sleeper.
  void park(std::uint64_t seen, std::optional<Clock::time_point> deadline) {
    std::unique_lock<std::mutex> lock(park_mu_);
    sleepers_.fetch_add(1, std::memory_order_relaxed);
    store_load_fence();
    if (!ready(seen)) {
      if (deadline.has_value()) {
        park_cv_.wait_until(lock, *deadline);
      } else {
        park_cv_.wait(lock);
      }
    }
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
  }

  /// Moves delivered messages into pending_ (caller holds drain_mu_).
  void drain() {
    const std::uint64_t start = head_.load(std::memory_order_relaxed);
    std::uint64_t head = start;
    while (ring_[head % kRingSlots].seq.load(std::memory_order_acquire) == head + 1) {
      pending_.push_back(ring_[head % kRingSlots].msg);
      ++head;
    }
    if (head != start) head_.store(head, std::memory_order_release);
    if (!overflow_active_.load(std::memory_order_acquire)) return;
    // A ring push claimed before an overflow push must be drained first (it
    // may be the same sender's earlier message); until it lands, ready()
    // holds and the waiter polls again.
    const std::lock_guard<std::mutex> lock(overflow_mu_);
    if (tail_.load(std::memory_order_acquire) != head) return;
    pending_.insert(pending_.end(), overflow_.begin(), overflow_.end());
    overflow_.clear();
    overflow_active_.store(false, std::memory_order_release);
  }

  /// One drain-and-match pass. Removes the first control message or, unless
  /// @p control_only, the first (kind, tag) match; a sticky stop answers a
  /// pass that finds neither. @p seen receives drained_ for ready().
  std::optional<Message> poll(MsgKind kind, std::int64_t tag, bool control_only,
                              std::uint64_t& seen) {
    const std::lock_guard<std::mutex> lock(drain_mu_);
    const bool stop = stopped_.load(std::memory_order_acquire);
    const std::size_t before = pending_.size();
    drain();
    const bool appended = pending_.size() != before;
    seen = drained_.load(std::memory_order_relaxed) + (appended ? 1 : 0);
    if (appended) drained_.store(seen, std::memory_order_release);
    std::optional<Message> out;
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
      if (it->is_control() || (!control_only && it->kind == kind && it->tag == tag)) {
        out = *it;
        pending_.erase(it);
        break;
      }
    }
    // What this pass drained but did not take may be another waiter's match.
    if (appended && !pending_.empty()) wake();
    // Stop answers only once everything pushed before it has been drained.
    if (!out.has_value() && stop &&
        tail_.load(std::memory_order_acquire) == head_.load(std::memory_order_relaxed) &&
        !overflow_active_.load(std::memory_order_acquire)) {
      out = Message::stop();
    }
    return out;
  }

  /// The one wait path: poll, then pause-spin, yield and park until ready().
  /// Blocks until @p deadline (forever when nullopt).
  std::optional<Message> take(MsgKind kind, std::int64_t tag, bool control_only,
                              std::optional<Clock::time_point> deadline) {
    std::uint32_t spins = 0;
    Clock::time_point yield_until{};  // set when the yield tier starts
    while (true) {
      std::uint64_t seen = 0;
      if (auto m = poll(kind, tag, control_only, seen)) return m;
      while (!ready(seen)) {
        if (spins < kPauseIters) {
          ++spins;
          cpu_relax();
          continue;
        }
        const auto now = Clock::now();
        if (deadline.has_value() && now >= *deadline) {
          return poll(kind, tag, control_only, seen);  // last look after the timeout
        }
        if (spins == kPauseIters) {
          ++spins;
          yield_until = now + kYieldFor;
          if (deadline.has_value() && *deadline - now <= kSpinParkThreshold) {
            yield_until = *deadline;
          }
        }
        if (now < yield_until) {
          std::this_thread::yield();
          continue;
        }
        park(seen, deadline);
      }
    }
  }

  // Producers: claimed with one CAS each, checked against a cached head_.
  alignas(128) std::atomic<std::uint64_t> tail_{0};
  std::atomic<std::uint64_t> head_seen_{0};
  // Drainer side, written under drain_mu_; read lock-free by ready().
  alignas(128) std::atomic<std::uint64_t> head_{0};
  std::atomic<std::uint64_t> drained_{0};  // bumped by each poll that drains
  std::deque<Message> pending_;
  mutable std::mutex drain_mu_;
  // Rarely written flags and the park rendezvous.
  alignas(128) std::atomic<bool> overflow_active_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<std::uint32_t> sleepers_{0};
  std::mutex park_mu_;
  std::condition_variable park_cv_;
  mutable std::mutex overflow_mu_;
  std::deque<Message> overflow_;
  // Injector path, serialized under inject_mu_.
  std::atomic<FaultInjector*> injector_{nullptr};
  std::mutex inject_mu_;
  std::size_t channel_ = 0;
  std::vector<Message> delivered_;
  std::array<Slot, kRingSlots> ring_;
};

}  // namespace privagic::runtime
