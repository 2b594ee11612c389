// Tiny machine-readable result writer shared by the bench binaries.
//
// Every benchmark prints a human table to stdout; the JSON mirror is what CI
// and EXPERIMENTS.md regeneration consume. One shared schema keeps the files
// diffable across benchmarks:
//
//   {
//     "benchmark": "<name>",
//     "schema_version": 1,
//     "meta":  { "<key>": <scalar>, ... },   // run-wide configuration,
//                                            // nproc + affinity_mask first
//     "rows":  [ { "<key>": <scalar>, ... }, ... ],
//     "metrics": { "<key>": <scalar>, ... }   // optional: runtime counters
//   }
//
// The "metrics" object is emitted only when at least one metric() call was
// made; obs::embed_metrics() fills it from the MetricsRegistry snapshot.
//
// Scalars are int64/uint64/double/bool/string. Key order is preserved
// (insertion order), so regenerating a result produces a byte-stable diff
// when the numbers are unchanged. No external dependencies.
#pragma once

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

namespace privagic::support {

class BenchJsonWriter {
 public:
  /// One scalar cell. Doubles print with %.17g (round-trippable); strings
  /// are escaped per JSON.
  class Value {
   public:
    Value(double v) : kind_(Kind::kDouble), d_(v) {}                     // NOLINT(google-explicit-constructor)
    Value(std::int64_t v) : kind_(Kind::kInt), i_(v) {}                  // NOLINT(google-explicit-constructor)
    Value(std::uint64_t v) : kind_(Kind::kUint), u_(v) {}                // NOLINT(google-explicit-constructor)
    Value(int v) : kind_(Kind::kInt), i_(v) {}                           // NOLINT(google-explicit-constructor)
    Value(unsigned v) : kind_(Kind::kUint), u_(v) {}                     // NOLINT(google-explicit-constructor)
    Value(bool v) : kind_(Kind::kBool), b_(v) {}                         // NOLINT(google-explicit-constructor)
    Value(std::string v) : kind_(Kind::kString), s_(std::move(v)) {}     // NOLINT(google-explicit-constructor)
    Value(const char* v) : kind_(Kind::kString), s_(v) {}                // NOLINT(google-explicit-constructor)

    void append_to(std::string& out) const {
      char buf[64];
      switch (kind_) {
        case Kind::kDouble:
          std::snprintf(buf, sizeof buf, "%.17g", d_);
          out += buf;
          break;
        case Kind::kInt:
          std::snprintf(buf, sizeof buf, "%" PRId64, i_);
          out += buf;
          break;
        case Kind::kUint:
          std::snprintf(buf, sizeof buf, "%" PRIu64, u_);
          out += buf;
          break;
        case Kind::kBool:
          out += b_ ? "true" : "false";
          break;
        case Kind::kString:
          append_escaped(out, s_);
          break;
      }
    }

   private:
    enum class Kind { kDouble, kInt, kUint, kBool, kString };
    Kind kind_;
    double d_ = 0.0;
    std::int64_t i_ = 0;
    std::uint64_t u_ = 0;
    bool b_ = false;
    std::string s_;
  };

  using Fields = std::vector<std::pair<std::string, Value>>;

  /// A row under construction; set() calls chain and keep insertion order.
  class Row {
   public:
    explicit Row(Fields& fields) : fields_(fields) {}
    Row& set(std::string key, Value v) {
      fields_.emplace_back(std::move(key), std::move(v));
      return *this;
    }

   private:
    Fields& fields_;
  };

  /// Starts the document with the CPUs the process may run on: `nproc` and
  /// `affinity_mask` (hex, CPU 0 = bit 0, as `taskset -p` prints it), so a
  /// ratio measured on one CPU is never compared with one measured on four.
  explicit BenchJsonWriter(std::string benchmark) : benchmark_(std::move(benchmark)) {
    unsigned nproc = std::thread::hardware_concurrency();
    std::string mask;
#if defined(__linux__)
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      nproc = static_cast<unsigned>(CPU_COUNT(&set));
      int top = CPU_SETSIZE - 1;
      while (top > 0 && !CPU_ISSET(top, &set)) --top;
      for (int nibble = top / 4; nibble >= 0; --nibble) {
        int v = 0;
        for (int b = 0; b < 4; ++b) v |= CPU_ISSET(nibble * 4 + b, &set) ? 1 << b : 0;
        mask += "0123456789abcdef"[v];
      }
      mask = "0x" + mask;
    }
#endif
    meta("nproc", nproc);
    meta("affinity_mask", mask);
  }

  /// Run-wide configuration (workload sizes, seeds, machine model, ...).
  BenchJsonWriter& meta(std::string key, Value v) {
    meta_.emplace_back(std::move(key), std::move(v));
    return *this;
  }

  /// Starts a new result row; fill it with Row::set().
  Row add_row() {
    rows_.emplace_back();
    return Row(rows_.back());
  }

  /// One runtime-counter cell in the optional trailing "metrics" object.
  BenchJsonWriter& metric(std::string key, Value v) {
    metrics_.emplace_back(std::move(key), std::move(v));
    return *this;
  }

  [[nodiscard]] std::string to_string() const {
    std::string out = "{\n  \"benchmark\": ";
    append_escaped(out, benchmark_);
    out += ",\n  \"schema_version\": 1,\n  \"meta\": ";
    append_object(out, meta_, "  ");
    out += ",\n  \"rows\": [";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      out += i == 0 ? "\n    " : ",\n    ";
      append_object(out, rows_[i], "    ");
    }
    out += rows_.empty() ? "]" : "\n  ]";
    if (!metrics_.empty()) {
      out += ",\n  \"metrics\": ";
      append_object(out, metrics_, "  ");
    }
    out += "\n}\n";
    return out;
  }

  /// Writes the document to @p path. Returns false (and leaves a partial
  /// file at worst) on I/O failure.
  [[nodiscard]] bool write_file(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::string doc = to_string();
    const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
    return std::fclose(f) == 0 && ok;
  }

 private:
  static void append_escaped(std::string& out, const std::string& s) {
    out += '"';
    for (const char c : s) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
          } else {
            out += c;
          }
      }
    }
    out += '"';
  }

  static void append_object(std::string& out, const Fields& fields, const char* indent) {
    if (fields.empty()) {
      out += "{}";
      return;
    }
    out += '{';
    for (std::size_t i = 0; i < fields.size(); ++i) {
      out += i == 0 ? "\n" : ",\n";
      out += indent;
      out += "  ";
      append_escaped(out, fields[i].first);
      out += ": ";
      fields[i].second.append_to(out);
    }
    out += '\n';
    out += indent;
    out += '}';
  }

  std::string benchmark_;
  Fields meta_;
  std::vector<Fields> rows_;
  Fields metrics_;
};

}  // namespace privagic::support
