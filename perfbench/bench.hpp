// Shared pieces of the Privagic benchmark: options, the report every workload
// fills, timing helpers, the in-memory span log, and the compile pipeline
// that both the kvcache workloads (set-up) and the compile workload time.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "interp/machine.hpp"
#include "partition/partitioner.hpp"
#include "sectype/analysis.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;  // where the traced run writes its spans
  // Self-test hook: perturbs one expected value in every kWrongEvery checks,
  // so the output checks must report failures.
  bool inject_wrong = false;
};

inline constexpr std::uint64_t kWrongEvery = 97;

/// Runs repeat set-up and measurement in blocks of 1 / @p per_second
/// seconds, at least three of them.
inline int blocks_for(double seconds, int per_second) {
  return std::max(3, static_cast<int>(seconds * per_second + 0.5));
}

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_between(std::int64_t a_ns, std::int64_t b_ns) {
  return static_cast<double>(b_ns - a_ns) * 1e-9;
}

/// splitmix64: the benchmark's only source of input randomness.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

/// Value at quantile @p q (0..1) of @p v, by nearest rank; sorts @p v.
double quantile(std::vector<double>& v, double q);
double median(std::vector<double> v);

/// One span of the traced run, kept in memory until exit.
struct Span {
  std::uint16_t name = 0;  // index into SpanLog::names
  std::int32_t parent = -1;
  std::uint32_t op = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class SpanLog {
 public:
  // Sampling keeps memory bounded: one operation in kSampleEvery is logged.
  static constexpr std::uint32_t kSampleEvery = 32;
  static constexpr std::size_t kMaxSpans = 1u << 19;

  std::uint16_t name_id(std::string_view name);
  /// Appends a span and returns its index, or -1 once the log is full.
  std::int32_t add(std::uint16_t name, std::int32_t parent, std::uint32_t op,
                   std::int64_t start_ns, std::int64_t end_ns);
  void append(const SpanLog& other);
  /// Median duration (us) of every span named @p name; 0 when none.
  [[nodiscard]] double median_us(std::string_view name) const;
  /// Counts parents whose children do not tile them exactly: a child with a
  /// negative duration, or child durations not summing to the parent's.
  /// Only parents named @p parent_name are checked.
  [[nodiscard]] std::uint64_t untiled(std::string_view parent_name) const;
  /// Writes name,op,start_ns,end_ns,parent,self_ns rows (CSV).
  bool write_csv(const std::string& path) const;

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

/// What a workload run measured. Metrics are printed by name; counts are the
/// deterministic ones run.py compares across runs of one seed.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  int threads = 0;  // application + worker threads the workload keeps busy
  std::vector<std::string> problems;  // failures that are not per-operation
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::map<std::string, double> counts;
  SpanLog spans;  // written out at exit by a traced run

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// A deterministic count: reported as a metric and recorded for drift.
  void count(const std::string& name, double value, const std::string& unit) {
    metric(name, value, unit);
    counts[name] = value;
  }
};

/// The output of the compile pipeline for one PIR source, with the time each
/// layer took.
struct Compiled {
  std::unique_ptr<privagic::ir::Module> module;
  std::unique_ptr<privagic::sectype::TypeAnalysis> types;
  std::unique_ptr<privagic::partition::PartitionResult> program;
  std::vector<std::size_t> slots;  // placement slot table for Machine
  std::string error;               // empty when every stage succeeded
  // Stage boundaries (ns): parse, check, partition, placement, lint.
  std::int64_t t[6] = {};
  std::uint64_t insts = 0, specs = 0, chunks = 0, out_insts = 0;
};

inline constexpr const char* kStageNames[5] = {"parse", "check", "partition", "placement",
                                               "lint"};
inline constexpr const char* kStageMetrics[5] = {"ir.parse_ms", "sectype.check_ms",
                                                 "partition.ms", "analysis.placement_ms",
                                                 "analysis.lint_ms"};

/// parse → type check → partition → placement search → default lints.
Compiled compile_pir(std::string_view source, privagic::sectype::Mode mode);

/// Builds a Machine for @p c with its placement installed.
std::unique_ptr<privagic::interp::Machine> load_machine(const Compiled& c);

/// Live bytes of every non-U color of @p m.
std::uint64_t enclave_bytes(privagic::interp::Machine& m, const Compiled& c);

// Workloads. Each fills @p r; kv_clients is 1 or 2.
void run_kv(const Options& o, int kv_clients, Report& r);
void run_crawl(const Options& o, Report& r);
void run_compile(const Options& o, Report& r);

/// Traced kv_1 gets for a short while, for workloads without requests of
/// their own: fills the span.* metrics of @p r.
void kv_span_probe(const Options& o, double seconds, Report& r);

}  // namespace perfbench
