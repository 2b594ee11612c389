// Sampled dispatch profile for the bytecode engines — per opcode and, since
// the native tier landed, per chunk.
//
// The fusion pass (fusion.cpp) exists because a handful of op pairs dominate
// dispatch; this is the profile that shows which ones. Every Nth dispatched
// op (N = kPeriod) is sampled and charged kPeriod dispatches to its opcode's
// counter, so relative frequencies converge while the hot loop pays one
// thread-local increment + compare per op when metrics are on — and a single
// pointer test when they are off (the executor caches current() == nullptr).
//
// kPeriod is prime on purpose: a power-of-two period aliases with short loop
// bodies (a loop of 4 ops sampled every 64 dispatches hits the same opcode
// forever — the documented budget-flush sampler hazard), while 61 walks every
// residue of any loop shorter than itself.
//
// Per-chunk attribution: the per-opcode histogram alone cannot drive tiered
// promotion — it aggregates across every function, so a cold chunk that
// happens to share the hot loop's opcode mix would look exactly as hot
// (mis-promotion). The sampler therefore also charges each period hit to the
// *function being executed* (DecodedFunction::hot_ticks, passed in by the
// dispatch loop), giving the JIT an attributable per-chunk hotness score from
// the same prime-61 tick. The per-chunk leg is independent of the metrics
// gate: an ExecMode::kNative machine needs hotness with observability off, so
// current() takes a force flag and touch() re-checks metrics_enabled() only
// on the 1-in-61 period hit before charging the opcode counters.
//
// Counters land in the MetricsRegistry as "interp.dispatch.<mnemonic>" and
// ride into BENCH_*.json through obs::embed_metrics(). They are sampled
// approximations of true dispatch counts, but the sampling itself is
// deterministic (per-thread tick over a deterministic instruction stream),
// so interp_speed's baselines pin a few of them — with a small tolerance —
// as fusion-coverage canaries.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "interp/bytecode.hpp"
#include "obs/metrics.hpp"

namespace privagic::interp::bc {

class DispatchTally {
 public:
  static constexpr std::uint32_t kPeriod = 61;

  /// The calling thread's tally. Null when there is nothing to sample for —
  /// metrics off and no JIT promotion to feed (@p force_for_jit false).
  /// Resolve once per executor, not per op — the enabled check is a relaxed
  /// load but the thread_local walk is not free.
  static DispatchTally* current(bool force_for_jit = false) {
    if (!obs::metrics_enabled() && !force_for_jit) return nullptr;
    thread_local DispatchTally tally;
    return &tally;
  }

  /// Per-opcode + per-chunk sampling: a period hit also charges kPeriod to
  /// @p hot, the executing function's hotness score (null = not tracked —
  /// the function is already compiled, or the machine is not kNative).
  void touch(Op op, std::atomic<std::uint64_t>* hot) {
    if (++tick_ < kPeriod) return;
    tick_ = 0;
    // Re-check the gate here: with the JIT forcing a tally into existence the
    // opcode counters must stay silent while metrics are off. 1-in-61 ops pay
    // this relaxed load.
    if (obs::metrics_enabled()) {
      counters_[static_cast<std::size_t>(op)]->add(kPeriod);
    }
    if (hot != nullptr) hot->fetch_add(kPeriod, std::memory_order_relaxed);
  }

 private:
  DispatchTally() {
    auto& reg = obs::MetricsRegistry::global();
    for (std::size_t i = 0; i < kNumOps; ++i) {
      counters_[i] = &reg.counter(std::string("interp.dispatch.") +
                                  op_name(static_cast<Op>(i)));
    }
  }

  std::uint32_t tick_ = 0;
  obs::Counter* counters_[kNumOps] = {};
};

}  // namespace privagic::interp::bc
