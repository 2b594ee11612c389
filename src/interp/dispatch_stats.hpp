// Sampled dispatch profile for the fused bytecode loop, per opcode.
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
// Counters land in the MetricsRegistry as "interp.dispatch.<mnemonic>" and
// ride into BENCH_*.json through obs::embed_metrics(). They are sampled
// approximations of true dispatch counts, but the sampling itself is
// deterministic (per-thread tick over a deterministic instruction stream),
// so interp_speed's baselines pin a few of them — with a small tolerance —
// as fusion-coverage canaries.
#pragma once

#include <cstdint>
#include <string>

#include "interp/bytecode.hpp"
#include "obs/metrics.hpp"

namespace privagic::interp::bc {

class DispatchTally {
 public:
  static constexpr std::uint32_t kPeriod = 61;

  /// The calling thread's tally, or null while metrics are off. Resolve once
  /// per executor, not per op — the enabled check is a relaxed load but the
  /// thread_local walk is not free.
  static DispatchTally* current() {
    if (!obs::metrics_enabled()) return nullptr;
    thread_local DispatchTally tally;
    return &tally;
  }

  void touch(Op op) {
    if (++tick_ < kPeriod) return;
    tick_ = 0;
    counters_[static_cast<std::size_t>(op)]->add(kPeriod);
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
