// Drift check for deterministic benchmark counters.
//
// BENCH_*.json snapshots (bench_json.hpp schema) carry a "metrics" object of
// runtime counters. Some of those are *structural* — message sends, chunks
// dispatched, bytes placed in enclave regions — fully determined by the
// program and workload, not by machine speed. bench/baselines.json pins
// those per benchmark with a per-key tolerance:
//
//   {
//     "<benchmark>": {
//       "<metric key>": { "value": 483966, "tol_pct": 0.0 },
//       "<ratio key>":  { "min": 1.8 },
//       ...
//     },
//     ...
//   }
//
// Three entry shapes:
//   * {"value", "tol_pct"} — two-sided drift pin for structural counters.
//   * {"min"}             — one-sided floor for performance ratios (fused
//     over treewalk, request throughput): regressions below the floor fail,
//     improvements never do.
//   * {"max"}             — one-sided ceiling for counters that must stay
//     small (jit.deopts on workloads whose hot paths are fully templated):
//     growth above the ceiling fails, shrinking never does.
//
// check_bench() compares one snapshot against the baselines and reports
// per-key verdicts; CI fails on any drifted, below-floor, or missing pinned
// key. Timing counters (wait_ns etc.) are deliberately never baselined —
// only dimensionless ratios get floors.
#pragma once

#include <cmath>
#include <string>
#include <vector>

#include "support/json_mini.hpp"

namespace privagic::support {

struct BenchCheckFinding {
  std::string key;
  double baseline = 0.0;  // pinned value, or the bound for one-sided entries
  double actual = 0.0;
  double tol_pct = 0.0;
  bool is_floor = false;    // {"min": X} entry: one-sided, actual >= X passes
  bool is_ceiling = false;  // {"max": X} entry: one-sided, actual <= X passes
  bool ok = false;
  std::string note;  // "missing from snapshot", "drift +3.2%", ...
};

struct BenchCheckReport {
  std::string benchmark;
  bool skipped = false;  // no baselines for this benchmark: not a failure
  std::vector<BenchCheckFinding> findings;

  [[nodiscard]] bool ok() const {
    for (const auto& f : findings) {
      if (!f.ok) return false;
    }
    return true;
  }

  [[nodiscard]] std::string to_string() const {
    std::string out;
    if (skipped) {
      out = "bench_check: no baselines for benchmark '" + benchmark + "', skipping\n";
      return out;
    }
    for (const auto& f : findings) {
      char line[256];
      if (f.is_floor || f.is_ceiling) {
        std::snprintf(line, sizeof line, "%s %-40s %s=%.17g actual=%.17g %s\n",
                      f.ok ? "OK  " : "FAIL", f.key.c_str(),
                      f.is_floor ? "floor" : "ceiling", f.baseline, f.actual,
                      f.note.c_str());
      } else {
        std::snprintf(line, sizeof line, "%s %-40s baseline=%.17g actual=%.17g tol=%.3g%% %s\n",
                      f.ok ? "OK  " : "FAIL", f.key.c_str(), f.baseline, f.actual, f.tol_pct,
                      f.note.c_str());
      }
      out += line;
    }
    return out;
  }
};

/// Compares @p snapshot (a parsed BENCH_*.json) against @p baselines (parsed
/// bench/baselines.json). Every pinned key must exist in the snapshot's
/// "metrics" object and satisfy |actual - value| <= tol_pct/100 * max(|value|, 1).
/// Unpinned snapshot metrics are ignored (timing counters drift freely).
[[nodiscard]] inline BenchCheckReport check_bench(const json::Value& baselines,
                                                  const json::Value& snapshot) {
  BenchCheckReport report;
  const json::Value* name = snapshot.find("benchmark");
  report.benchmark = name != nullptr && name->is_string() ? name->string : "<unknown>";

  const json::Value* pinned = baselines.find(report.benchmark);
  if (pinned == nullptr || !pinned->is_object()) {
    report.skipped = true;
    return report;
  }

  const json::Value* metrics = snapshot.find("metrics");
  for (const auto& [key, spec] : pinned->object) {
    BenchCheckFinding f;
    f.key = key;
    const json::Value* value = spec.find("value");
    const json::Value* min = spec.find("min");
    const json::Value* max = spec.find("max");
    const json::Value* tol = spec.find("tol_pct");
    const bool has_value = value != nullptr && value->is_number();
    const bool has_min = min != nullptr && min->is_number();
    const bool has_max = max != nullptr && max->is_number();
    if (!has_value && !has_min && !has_max) {
      f.note = "malformed baseline entry (no numeric 'value', 'min' or 'max')";
      report.findings.push_back(f);
      continue;
    }
    f.is_floor = !has_value && has_min;
    f.is_ceiling = !has_value && !has_min && has_max;
    f.baseline = has_value ? value->number : f.is_floor ? min->number : max->number;
    f.tol_pct = tol != nullptr && tol->is_number() ? tol->number : 0.0;

    const json::Value* actual =
        metrics != nullptr ? metrics->find(key) : nullptr;
    if (actual == nullptr || !actual->is_number()) {
      f.note = "missing from snapshot";
      report.findings.push_back(f);
      continue;
    }
    f.actual = actual->number;
    char buf[64];
    if (f.is_floor) {
      f.ok = f.actual >= f.baseline;
      if (!f.ok) {
        std::snprintf(buf, sizeof buf, "below floor by %.17g", f.baseline - f.actual);
        f.note = buf;
      }
    } else if (f.is_ceiling) {
      f.ok = f.actual <= f.baseline;
      if (!f.ok) {
        std::snprintf(buf, sizeof buf, "above ceiling by %.17g", f.actual - f.baseline);
        f.note = buf;
      }
    } else {
      const double allowed = f.tol_pct / 100.0 * std::max(std::fabs(f.baseline), 1.0);
      const double drift = f.actual - f.baseline;
      f.ok = std::fabs(drift) <= allowed;
      if (!f.ok) {
        std::snprintf(buf, sizeof buf, "drift %+.17g", drift);
        f.note = buf;
      }
    }
    report.findings.push_back(f);
  }
  return report;
}

}  // namespace privagic::support
