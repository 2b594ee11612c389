// Machine::instructions_executed() once it has stopped moving.
//
// The counter can lag call() by one worker turn: an enclave's trailing ret
// lands after the leader resumes, and a freshly spawned worker may not have
// been scheduled yet. Poll until the count holds still for a sustained
// window — 1 ms is not enough under a fully loaded parallel ctest run.
#pragma once

#include <chrono>
#include <cstdint>
#include <thread>

#include "interp/machine.hpp"

namespace privagic::testing {

inline std::uint64_t settled_instructions(const interp::Machine& m) {
  std::uint64_t prev = m.instructions_executed();
  int stable = 0;
  for (int i = 0; i < 2000 && stable < 30; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const std::uint64_t now = m.instructions_executed();
    stable = now == prev ? stable + 1 : 0;
    prev = now;
  }
  return prev;
}

}  // namespace privagic::testing
