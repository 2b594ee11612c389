// Monotonic counters and log2-bucketed histograms for the runtime.
//
// The MetricsRegistry is the numeric half of the observability layer: where
// trace.hpp answers "what happened when", the registry answers "how much" —
// queue depth at push, mailbox wait nanoseconds, instructions per budget
// flush, chunk dispatches and EPC bytes per color. Every counter and
// histogram cell is a relaxed atomic (they order nothing, they only count),
// so recording from worker threads while a driver snapshots is race-free by
// construction — the discipline the PR-1 RuntimeStats counters established
// and this registry generalizes.
//
// Hot-path discipline: creation (name lookup) takes the registry mutex once;
// call sites keep the returned reference (function-local static in the
// hooks), so steady-state recording is pure relaxed atomics. References
// remain valid for the registry's lifetime (node-based map, values behind
// unique_ptr).
//
// Every instrument is sharded by recording thread (kMetricShards cache-line-
// aligned cells, aggregated at read time). Without this, two enclave workers
// bumping one histogram ping-pong its cache line at ~100 ns per hit — the
// sharded layout keeps each worker on a private line and is what holds the
// enabled-metrics overhead inside the trace_overhead bench's 5% gate.
//
// snapshot() flattens everything into ordered (name, value) rows, and
// embed_metrics() mirrors those rows into the shared bench JSON schema
// (support/bench_json.hpp), so every BENCH_*.json carries its own breakdown.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace privagic::support {
class BenchJsonWriter;
}

namespace privagic::obs {

/// Number of per-thread cells in every instrument (power of two). The first
/// kMetricShards recording threads get private cache lines; later thread ids
/// wrap onto them (still correct, just potentially contended).
inline constexpr unsigned kMetricShards = 8;

/// Dense per-thread shard index, assigned on a thread's first record.
inline unsigned metrics_shard() {
  static std::atomic<unsigned> next{0};
  thread_local const unsigned idx = next.fetch_add(1, std::memory_order_relaxed);
  return idx & (kMetricShards - 1);
}

/// A monotonic event count. set() exists for mirroring externally-owned
/// counters (RuntimeStats) into the registry.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    shards_[metrics_shard()].v.fetch_add(n, std::memory_order_relaxed);
  }
  /// Single-writer mirror: clears every shard, parks @p v in shard 0.
  void set(std::uint64_t v) {
    for (auto& s : shards_) s.v.store(0, std::memory_order_relaxed);
    shards_[0].v.store(v, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const auto& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }
  void reset() {
    for (auto& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  Shard shards_[kMetricShards];
};

/// Lossy log2-bucketed histogram of unsigned samples: bucket i holds samples
/// whose bit width is i, so quantiles come back as powers of two — plenty
/// for "how deep do queues get" / "how long do waits block" questions.
class Histogram {
 public:
  static constexpr int kBuckets = 65;  // bit_width in [0, 64]

  /// Two relaxed RMWs on the recording thread's shard (count falls out of
  /// the bucket totals at snapshot time; the max CAS only runs while a new
  /// high-water mark is actually being set).
  void record(std::uint64_t v) {
    Shard& s = shards_[metrics_shard()];
    s.buckets[std::bit_width(v)].fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(v, std::memory_order_relaxed);
    std::uint64_t seen = s.max.load(std::memory_order_relaxed);
    while (v > seen && !s.max.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
    }
  }

  struct Snapshot {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t max = 0;
    double mean = 0.0;
    std::uint64_t p50 = 0;  // bucket upper bounds (2^k - 1)
    std::uint64_t p99 = 0;
  };
  [[nodiscard]] Snapshot snapshot() const;
  void reset();

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> buckets[kBuckets] = {};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> max{0};
  };
  Shard shards_[kMetricShards];
};

/// A counter fanned out by color id — the per-color breakdowns the paper's
/// tables report (chunks per enclave, EPC bytes per enclave). Colors beyond
/// kMaxColors fold into one overflow cell rather than dropping counts.
class PerColorCounter {
 public:
  static constexpr std::int64_t kMaxColors = 32;

  void add(std::int64_t color, std::uint64_t n = 1) {
    if (color >= 0 && color < kMaxColors) {
      slots_[color].add(n);
    } else {
      overflow_.add(n);
    }
  }
  [[nodiscard]] std::uint64_t value(std::int64_t color) const {
    return color >= 0 && color < kMaxColors ? slots_[color].value() : overflow_.value();
  }
  [[nodiscard]] std::uint64_t overflow() const { return overflow_.value(); }
  void reset();

 private:
  Counter slots_[kMaxColors];
  Counter overflow_;
};

class MetricsRegistry {
 public:
  /// The process-wide registry every hook records into.
  static MetricsRegistry& global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Named instrument accessors: create on first use, then return the same
  /// object forever (references are stable).
  Counter& counter(const std::string& name);
  Histogram& histogram(const std::string& name);
  PerColorCounter& per_color(const std::string& name);

  /// One flattened row per interesting number, ordered by name: counters as
  /// "name", per-color counters as "name.color<N>" (zero colors skipped),
  /// histograms as "name.count/.sum/.mean/.max/.p50/.p99".
  struct Row {
    std::string name;
    double value = 0.0;
    bool integral = true;
  };
  [[nodiscard]] std::vector<Row> snapshot() const;

  /// Zeroes every instrument (between bench phases).
  void reset_all();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::unique_ptr<PerColorCounter>> per_color_;
};

/// Global switch for the metrics hooks (hooks.hpp): one relaxed load when
/// off. Tracing and metrics toggle independently — benches measure each.
/// Switching on restarts request sampling (trace.hpp, sample_request).
[[nodiscard]] bool metrics_enabled();
void set_metrics_enabled(bool on);

/// Mirrors @p registry's snapshot into the writer's "metrics" section, so
/// the BENCH_*.json perf-trajectory files carry their own breakdowns.
void embed_metrics(support::BenchJsonWriter& json,
                   const MetricsRegistry& registry = MetricsRegistry::global());

}  // namespace privagic::obs
