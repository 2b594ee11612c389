// Differential test: the fused bytecode engine vs the tree-walker.
//
// Every PIR fixture (examples/pir/*.pir), the partitioned kvcache program
// (apps/kvcache/pir_program.hpp), and the fault-injection and pointer-auth
// configurations run under both ExecModes — kTreeWalk (the reference
// oracle) and kFused (superinstructions + direct-threaded dispatch) — with
// identical scripts; the engines must observably agree on
//   * every call's status and return value (including error messages),
//   * the external-call log (recording enabled on both),
//   * final global memory, byte for byte (region snapshots via resolve()),
//   * per-enclave EPC usage,
//   * the total instructions-executed counter.
// The last item is the strictest: the bytecode engine batches its budget
// accounting, but when call() returns it must have charged exactly the
// instructions the walker charges (phis uncounted, traps counted, etc.).
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/kvcache/pir_program.hpp"
#include "interp/bytecode.hpp"
#include "interp/machine.hpp"
#include "ir/parser.hpp"
#include "partition/partitioner.hpp"
#include "partition/split_structs.hpp"
#include "runtime/fault_injector.hpp"

#ifndef PRIVAGIC_SOURCE_DIR
#error "PRIVAGIC_SOURCE_DIR must point at the repository root"
#endif

namespace privagic {
namespace {

using interp::ExecMode;
using sectype::Mode;
using sectype::TypeAnalysis;
using namespace std::chrono_literals;

std::string read_fixture(const std::string& relative) {
  const std::string path = std::string(PRIVAGIC_SOURCE_DIR) + "/" + relative;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

struct Compiled {
  std::unique_ptr<ir::Module> module;
  std::unique_ptr<TypeAnalysis> analysis;
  std::unique_ptr<partition::PartitionResult> program;
};

Compiled compile(const std::string& text, Mode mode, bool split_structs = false) {
  Compiled c;
  auto parsed = ir::parse_module(text);
  EXPECT_TRUE(parsed.ok()) << parsed.message();
  c.module = std::move(parsed).value();
  if (split_structs) partition::split_multicolor_structs(*c.module);
  c.analysis = std::make_unique<TypeAnalysis>(*c.module, mode);
  EXPECT_TRUE(c.analysis->run()) << c.analysis->diagnostics().to_string();
  auto result = partition::partition_module(*c.analysis);
  EXPECT_TRUE(result.ok()) << result.message();
  c.program = std::move(result).value();
  return c;
}

/// Everything one engine run exposes; two runs compare with operator==-style
/// field checks so a mismatch names the divergent channel.
struct Observed {
  std::vector<std::string> results;  // "ok <value>" or "err <message>" per call
  std::vector<std::string> log;
  std::uint64_t instructions = 0;
  std::map<std::string, std::vector<std::byte>> globals;
  std::map<std::int64_t, std::uint64_t> epc;
};

void record_call(interp::Machine& m, Observed& o, const std::string& name,
                 std::vector<std::int64_t> args) {
  auto r = m.call(name, std::move(args));
  o.results.push_back(r.ok() ? "ok " + std::to_string(r.value())
                             : "err " + r.message());
}

constexpr std::uint64_t kEpcLimit = 1ull << 40;  // ample; enables accounting

Observed run_scenario(
    const partition::PartitionResult& program, ExecMode mode,
    const std::function<void(interp::Machine&)>& configure,
    const std::function<void(interp::Machine&, Observed&)>& drive) {
  interp::Machine m(program, kEpcLimit, mode);
  m.set_external_log_enabled(true);
  for (const char* boundary : {"classify", "declassify"}) {
    m.bind_external(boundary, [](interp::Machine::ExternalCtx&,
                                 std::span<const std::int64_t> a) {
      return a.empty() ? 0 : a[0];
    });
  }
  if (configure) configure(m);
  Observed o;
  drive(m, o);
  o.instructions = m.instructions_executed();
  o.log = m.external_log();
  for (const auto& g : program.module->globals()) {
    const std::uint64_t addr = m.global_address(g->name());
    const sgx::ColorId color = m.memory().color_of(addr);
    const auto handle = m.memory().resolve(addr, 1, color);
    o.globals[g->name()] = *handle.bytes;
  }
  for (std::size_t i = 0; i < program.color_table.size(); ++i) {
    const auto id = static_cast<std::int64_t>(i);
    o.epc[id] = m.memory().epc_used(id);
  }
  return o;
}

void expect_equivalent(const Observed& tree, const Observed& other,
                       const char* engine = "bytecode") {
  SCOPED_TRACE(std::string("engine: ") + engine);
  EXPECT_EQ(tree.results, other.results);
  EXPECT_EQ(tree.log, other.log);
  EXPECT_EQ(tree.instructions, other.instructions);
  EXPECT_EQ(tree.epc, other.epc);
  ASSERT_EQ(tree.globals.size(), other.globals.size());
  for (const auto& [name, bytes] : tree.globals) {
    auto it = other.globals.find(name);
    ASSERT_NE(it, other.globals.end()) << "global " << name;
    EXPECT_EQ(bytes, it->second) << "global " << name << " bytes diverge";
  }
}

/// Compiles once per engine (each Machine owns its program view) and runs
/// the identical script under both, asserting the fused engine matches the
/// tree-walker on every channel.
void run_both_and_compare(
    const std::function<Compiled()>& build,
    const std::function<void(interp::Machine&)>& configure,
    const std::function<void(interp::Machine&, Observed&)>& drive) {
  Compiled for_tree = build();
  Compiled for_fused = build();
  const Observed tree =
      run_scenario(*for_tree.program, ExecMode::kTreeWalk, configure, drive);
  const Observed fused =
      run_scenario(*for_fused.program, ExecMode::kFused, configure, drive);
  expect_equivalent(tree, fused, "fused");
}

// ---------------------------------------------------------------------------
// examples/pir fixtures
// ---------------------------------------------------------------------------

TEST(InterpEquivTest, Fig6FixtureMatchesAcrossEngines) {
  const std::string text = read_fixture("examples/pir/fig6.pir");
  run_both_and_compare(
      [&] { return compile(text, Mode::kRelaxed); }, nullptr,
      [](interp::Machine& m, Observed& o) {
        for (int i = 0; i < 3; ++i) record_call(m, o, "main", {});
      });
}

// A 16-deep chain of functions alternating between two enclaves: each
// enclave worker waits for the next hop while serving the spawns that come
// back to its color, so its bytecode stack arena grows and moves mid-wait.
// The result written after wait/wait_ack must land in the moved frame.
TEST(InterpEquivTest, NestedCrossColorChainMatchesAcrossEngines) {
  const std::string text = read_fixture("examples/pir/nested_cross_color.pir");
  run_both_and_compare(
      [&] { return compile(text, Mode::kRelaxed); }, nullptr,
      [](interp::Machine& m, Observed& o) {
        record_call(m, o, "f0", {5});
        EXPECT_EQ(o.results.back(), "ok 528");
        record_call(m, o, "f0", {-77});
        EXPECT_EQ(o.results.back(), "ok -1056");
      });
}

TEST(InterpEquivTest, BankFixtureMatchesAcrossEngines) {
  const std::string text = read_fixture("examples/pir/bank.pir");
  double balance = 1234.5;
  std::int64_t bits;
  std::memcpy(&bits, &balance, 8);
  run_both_and_compare(
      [&] { return compile(text, Mode::kRelaxed, /*split_structs=*/true); },
      nullptr, [bits](interp::Machine& m, Observed& o) {
        record_call(m, o, "create", {0x656D616E, bits});
        record_call(m, o, "create", {7, bits ^ 0x55});
      });
}

// ---------------------------------------------------------------------------
// the partitioned kvcache program (hardened mode, Table 4's workload)
// ---------------------------------------------------------------------------

TEST(InterpEquivTest, KvcacheMatchesAcrossEngines) {
  run_both_and_compare(
      [] { return compile(std::string(apps::kMinicachedCorePir), Mode::kHardened); },
      [](interp::Machine& m) {
        // Deterministic request stream: same LCG per engine.
        auto state = std::make_shared<std::uint64_t>(0x243F6A8885A308D3ull);
        m.bind_external("net_recv", [state](interp::Machine::ExternalCtx&,
                                            std::span<const std::int64_t>) {
          *state = *state * 6364136223846793005ull + 1442695040888963407ull;
          const std::uint64_t r = *state >> 16;
          const std::uint64_t op = (r % 10) < 5 ? 0 : (r % 10) < 9 ? 1 : 2;
          return static_cast<std::int64_t>((op << 62) | ((r % 256) << 32) |
                                           (r & 0xFFFF));
        });
      },
      [](interp::Machine& m, Observed& o) {
        record_call(m, o, "cache_put", {7, 4242});
        record_call(m, o, "cache_get", {7});
        record_call(m, o, "cache_get", {8});
        record_call(m, o, "cache_delete", {7});
        for (int i = 0; i < 60; ++i) record_call(m, o, "handle_request", {});
        for (int i = 0; i < 5; ++i) record_call(m, o, "background_tick", {});
        record_call(m, o, "read_stats", {});
      });
}

// Exact counts when call() returns. Two client threads, each with its own
// worker group on one Machine, take strict turns at handle_request and read
// instructions_executed() straight after every call(). Each call's delta
// must equal the tree-walker's for the same request, and nothing may be
// charged between one call's return and the next call's start: a chunk's
// trailing ret charged after the ack that released the leader would land
// there, or in the next call's delta.
struct TurnLog {
  std::vector<std::string> results;
  std::vector<std::uint64_t> before, after;  // count read around each call
};

TurnLog take_turns(const partition::PartitionResult& program, ExecMode mode,
                   const std::vector<std::int64_t>& requests) {
  interp::Machine m(program, kEpcLimit, mode);
  for (const char* boundary : {"classify", "declassify"}) {
    m.bind_external(boundary, [](interp::Machine::ExternalCtx&,
                                 std::span<const std::int64_t> a) {
      return a.empty() ? 0 : a[0];
    });
  }
  for (const char* sink : {"net_send", "log_line"}) {
    m.bind_external(sink, [](interp::Machine::ExternalCtx&, std::span<const std::int64_t>) {
      return std::int64_t{0};
    });
  }
  std::size_t next = 0;  // index of the call in flight; guarded by the turn
  m.bind_external("net_recv", [&](interp::Machine::ExternalCtx&,
                                  std::span<const std::int64_t>) { return requests[next]; });

  const std::size_t n = requests.size();
  TurnLog log;
  log.results.resize(n);
  log.before.resize(n);
  log.after.resize(n);
  std::mutex mu;
  std::condition_variable cv;
  auto client = [&](std::size_t me) {
    for (std::size_t i = me; i < n; i += 2) {
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return next == i; });
      }
      log.before[i] = m.instructions_executed();
      auto r = m.call("handle_request", {});
      log.after[i] = m.instructions_executed();
      log.results[i] = r.ok() ? "ok " + std::to_string(r.value()) : "err " + r.message();
      {
        const std::lock_guard<std::mutex> lock(mu);
        ++next;
      }
      cv.notify_all();
    }
  };
  std::thread a(client, 0);
  std::thread b(client, 1);
  a.join();
  b.join();
  return log;
}

TEST(InterpEquivTest, TwoClientCountsAreExactWhenCallReturns) {
  constexpr std::size_t kCalls = 5000;
  std::vector<std::int64_t> requests(kCalls);
  std::uint64_t state = 0x13198A2E03707344ull;
  for (std::int64_t& req : requests) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint64_t r = state >> 16;
    const std::uint64_t op = (r % 10) < 5 ? 0 : (r % 10) < 9 ? 1 : 2;
    req = static_cast<std::int64_t>((op << 62) | ((r % 256) << 32) | (r & 0xFFFF));
  }
  Compiled for_tree = compile(std::string(apps::kMinicachedCorePir), Mode::kHardened);
  Compiled for_fused = compile(std::string(apps::kMinicachedCorePir), Mode::kHardened);
  const TurnLog tree = take_turns(*for_tree.program, ExecMode::kTreeWalk, requests);
  const TurnLog fused = take_turns(*for_fused.program, ExecMode::kFused, requests);
  for (const TurnLog* log : {&tree, &fused}) {
    SCOPED_TRACE(log == &tree ? "treewalk" : "fused");
    std::size_t gaps = 0;
    for (std::size_t i = 0; i + 1 < kCalls; ++i) {
      if (log->before[i + 1] != log->after[i]) ++gaps;
    }
    EXPECT_EQ(gaps, 0u) << "instructions charged between a call's return and the next call";
  }
  EXPECT_EQ(tree.results, fused.results);
  std::size_t mismatches = 0;
  std::size_t first = kCalls;
  for (std::size_t i = 0; i < kCalls; ++i) {
    if (tree.after[i] - tree.before[i] != fused.after[i] - fused.before[i]) {
      if (mismatches++ == 0) first = i;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "per-call deltas differ, first at call " << first;
}

// The fused half of the rule, pinned without timing: every chunk trampoline
// ends `ack; ret`, and decode marks that ack to charge the ret with it.
TEST(InterpEquivTest, EveryTrampolineAckChargesItsRet) {
  Compiled c = compile(std::string(apps::kMinicachedCorePir), Mode::kHardened);
  interp::Machine m(*c.program, kEpcLimit, ExecMode::kFused);
  std::size_t trampolines = 0;
  for (const partition::ChunkInfo& info : c.program->chunks) {
    if (info.trampoline == nullptr) continue;
    ++trampolines;
    const auto& ops = m.program_code()->get(info.trampoline)->ops;
    ASSERT_GE(ops.size(), 2u);
    EXPECT_EQ(ops.back().op, interp::bc::Op::kRet) << info.trampoline->name();
    const interp::bc::DecodedOp& ack = ops[ops.size() - 2];
    EXPECT_EQ(ack.op, interp::bc::Op::kAck) << info.trampoline->name();
    EXPECT_NE(ack.flags & interp::bc::kChargesRet, 0) << info.trampoline->name();
  }
  EXPECT_GT(trampolines, 0u);
}

// ---------------------------------------------------------------------------
// PR-1 fault-injection configuration: identical injector scripts, identical
// recovery settings — both engines must recover identically.
// ---------------------------------------------------------------------------

TEST(InterpEquivTest, FaultRecoveryMatchesAcrossEngines) {
  const std::string text = read_fixture("examples/pir/fig6.pir");
  // One injector per machine, both scripted to drop the same message: the
  // scenario of MachineFaultTest.SingleDroppedMessageIsRecoveredTransparently.
  auto make_injector = [] {
    auto injector = std::make_shared<runtime::FaultInjector>(runtime::FaultConfig{});
    injector->script(1, runtime::FaultKind::kDrop);
    return injector;
  };
  std::vector<std::shared_ptr<runtime::FaultInjector>> keep_alive;
  run_both_and_compare(
      [&] { return compile(text, Mode::kRelaxed); },
      [&](interp::Machine& m) {
        keep_alive.push_back(make_injector());
        m.set_fault_injector(keep_alive.back().get());
        m.enable_fault_recovery(/*wait_deadline=*/100ms, /*max_retries=*/6);
      },
      [](interp::Machine& m, Observed& o) {
        record_call(m, o, "main", {});
        record_call(m, o, "main", {});
      });
  for (const auto& injector : keep_alive) {
    EXPECT_EQ(injector->counts().drops, 1u);
  }
}

// ---------------------------------------------------------------------------
// PR-1 pointer-auth configuration (Mode::kHardenedAuth + split structs):
// MACs, verified loads, and the tamper fault must agree.
// ---------------------------------------------------------------------------

const char* kAuthAccount = R"(
module "bank"
struct %account { i64 name color(blue), f64 balance color(red) }
global ptr<%account> @acc
declare i64 @classify(i64) ignore
declare i64 @declassify(i64) ignore
define void @create(i64 %name, i64 %balance_bits) entry {
entry:
  %cn = call i64 @classify(i64 %name)
  %cb = call i64 @classify(i64 %balance_bits)
  %bal = cast bitcast i64 %cb to f64
  %a = heap_alloc %account
  %np = gep ptr<%account> %a, field 0
  store i64 %cn, ptr<i64 color(blue)> %np
  %bp = gep ptr<%account> %a, field 1
  store f64 %bal, ptr<f64 color(red)> %bp
  store ptr<%account> %a, ptr<ptr<%account>> @acc
  ret void
}
define i64 @export_balance() entry {
entry:
  %a = load ptr<ptr<%account>> @acc
  %bp = gep ptr<%account> %a, field 1
  %b = load ptr<f64 color(red)> %bp
  %bits = cast bitcast f64 %b to i64
  %sealed = call i64 @declassify(i64 %bits)
  ret i64 %sealed
}
)";

TEST(InterpEquivTest, PointerAuthMatchesAcrossEngines) {
  double balance = 42.0;
  std::int64_t bits;
  std::memcpy(&bits, &balance, 8);
  run_both_and_compare(
      [] {
        return compile(kAuthAccount, Mode::kHardenedAuth, /*split_structs=*/true);
      },
      [](interp::Machine& m) { m.enable_pointer_auth(); },
      [bits](interp::Machine& m, Observed& o) {
        record_call(m, o, "create", {1, bits});
        record_call(m, o, "export_balance", {});
        // The PR-1 attack, scripted identically: overwrite the balance
        // indirection slot with an unsafe address — the next enclave load
        // must fail MAC verification in both engines, same message.
        std::byte buf[8];
        m.memory().read(m.global_address("acc"), buf, sgx::kUnsafe);
        std::uint64_t body;
        std::memcpy(&body, buf, 8);
        const std::uint64_t forged = m.global_address("acc");
        std::memcpy(buf, &forged, 8);
        m.memory().write(body + 8, buf, sgx::kUnsafe);
        record_call(m, o, "export_balance", {});
      });
}

// ---------------------------------------------------------------------------
// error-path parity: budget exhaustion and decode-time diagnostics surface
// through call() with the walker's wording.
// ---------------------------------------------------------------------------

TEST(InterpEquivTest, DivisionByZeroMessageMatches) {
  const char* text = R"(
module "divzero"
define i64 @main(i64 %d) entry {
entry:
  %q = sdiv i64 10, %d
  ret i64 %q
}
)";
  run_both_and_compare(
      [&] { return compile(text, Mode::kRelaxed); }, nullptr,
      [](interp::Machine& m, Observed& o) {
        record_call(m, o, "main", {2});
        record_call(m, o, "main", {0});
        record_call(m, o, "main", {5});  // the machine recovers between calls
      });
}

// Each call heap-allocs 64 KiB of colored values that outlive the call, so a
// hard-capped budget exhausts on a deterministic call index; the typed fault
// (StatusCode::kEpcExhausted), its message, the instruction counts, and the
// per-color EPC accounting must agree across both engines.
TEST(InterpEquivTest, EpcBudgetFaultMatchesAcrossEngines) {
  const char* text = R"(
module "epcgrow"
global i64 @tally color(store)
global ptr<[8192 x i64] color(store)> @keep color(store)
declare i64 @classify(i64) ignore
declare i64 @declassify(i64) ignore
define i64 @grow(i64 %v) entry {
entry:
  %c = call i64 @classify(i64 %v)
  %p = heap_alloc [8192 x i64] color(store)
  store ptr<[8192 x i64] color(store)> %p, ptr<ptr<[8192 x i64] color(store)> color(store)> @keep
  %old = load ptr<i64 color(store)> @tally
  %new = add i64 %old, i64 %c
  store i64 %new, ptr<i64 color(store)> @tally
  %d = call i64 @declassify(i64 %new)
  ret i64 %d
}
)";
  // Record the typed status code alongside the message: the budget fault
  // must surface as kEpcExhausted (not kGeneric) on both engines.
  auto record_typed = [](interp::Machine& m, Observed& o) {
    auto r = m.call("grow", {1});
    o.results.push_back(r.ok() ? "ok " + std::to_string(r.value())
                               : std::string("err [") +
                                     status_code_name(r.status().code()) + "] " +
                                     r.message());
  };
  run_both_and_compare(
      [&] { return compile(text, Mode::kHardened); },
      [](interp::Machine& m) {
        sgx::EpcBudget budget;
        budget.hard_limit = 160 * 1024;  // two 64 KiB growths fit, not three
        m.memory().set_epc_budget(budget);
        // The store enclave dies at the faulting heap_alloc, mid cross-color
        // protocol; timed waits let the driver drain instead of wedging, and
        // call() surfaces the worker's typed root cause over its own timeout.
        m.enable_fault_recovery(/*wait_deadline=*/100ms, /*max_retries=*/3);
      },
      [&](interp::Machine& m, Observed& o) {
        for (int i = 0; i < 4; ++i) record_typed(m, o);
        // The cap must actually have tripped — typed, with the allocator's
        // wording — and the machine must keep faulting (not wedge) once full.
        ASSERT_EQ(o.results.size(), 4u);
        bool tripped = false;
        for (const std::string& r : o.results) {
          if (r.find("err [epc-exhausted]") == 0 &&
              r.find("exceeds EPC limit") != std::string::npos) {
            tripped = true;
          }
        }
        EXPECT_TRUE(tripped) << "no typed EPC fault in results";
      });
}

// ---------------------------------------------------------------------------
// Placement axis: a searched enclave assignment (Machine::set_placement) is a
// transport optimization, never a semantic change. Every engine must observe
// identical behavior under any placement, and the placements must agree with
// each other on every placement-independent channel (results, external log,
// final globals).
// ---------------------------------------------------------------------------

TEST(InterpEquivTest, PlacementDemoMatchesAcrossEnginesUnderAnyPlacement) {
  const std::string text = read_fixture("examples/pir/placement_demo.pir");
  auto drive = [](interp::Machine& m, Observed& o) {
    for (int i = 0; i < 20; ++i) record_call(m, o, "handle_request", {});
  };
  // Color table [U, audit, index, store]: identity, the machine-A searched
  // plan (audit leads {audit, index, store}), and a partial merge.
  const std::vector<std::vector<std::size_t>> placements = {
      {}, {0, 1, 1, 1}, {0, 1, 2, 2}};
  std::vector<Observed> fused_runs;
  for (const auto& slots : placements) {
    auto configure = [&slots](interp::Machine& m) {
      if (!slots.empty()) m.set_placement(slots);
    };
    run_both_and_compare([&] { return compile(text, Mode::kHardened); },
                         configure, drive);
    Compiled c = compile(text, Mode::kHardened);
    fused_runs.push_back(
        run_scenario(*c.program, ExecMode::kFused, configure, drive));
  }
  // Across placements: identical results, log, and memory. EPC accounting is
  // deliberately NOT compared here — co-resident colors share one budget key,
  // so the per-color breakdown legitimately shifts with the grouping.
  for (std::size_t i = 1; i < fused_runs.size(); ++i) {
    SCOPED_TRACE("placement " + std::to_string(i));
    EXPECT_EQ(fused_runs[0].results, fused_runs[i].results);
    EXPECT_EQ(fused_runs[0].log, fused_runs[i].log);
    EXPECT_EQ(fused_runs[0].globals, fused_runs[i].globals);
  }
}

// The EpcBudgetFaultMatchesAcrossEngines scenario with a second color merged
// into the growing enclave group: the shared group budget must trip the same
// typed fault (kEpcExhausted, allocator wording) at the same call index on
// both engines when a placement is enforced.
TEST(InterpEquivTest, EpcBudgetFaultUnderPlacementMatchesAcrossEngines) {
  const char* text = R"(
module "epcgrow_grouped"
global i64 @tally color(store)
global ptr<[8192 x i64] color(store)> @keep color(store)
global i64 @audit_n color(audit)
declare i64 @classify(i64) ignore
declare i64 @declassify(i64) ignore
define void @note() entry {
entry:
  %a = load ptr<i64 color(audit)> @audit_n
  %a2 = add i64 %a, i64 1
  store i64 %a2, ptr<i64 color(audit)> @audit_n
  ret void
}
define i64 @grow(i64 %v) entry {
entry:
  %c = call i64 @classify(i64 %v)
  %p = heap_alloc [8192 x i64] color(store)
  store ptr<[8192 x i64] color(store)> %p, ptr<ptr<[8192 x i64] color(store)> color(store)> @keep
  %old = load ptr<i64 color(store)> @tally
  %new = add i64 %old, i64 %c
  store i64 %new, ptr<i64 color(store)> @tally
  %d = call i64 @declassify(i64 %new)
  ret i64 %d
}
)";
  auto record_typed = [](interp::Machine& m, Observed& o) {
    auto r = m.call("grow", {1});
    o.results.push_back(r.ok() ? "ok " + std::to_string(r.value())
                               : std::string("err [") +
                                     status_code_name(r.status().code()) + "] " +
                                     r.message());
  };
  run_both_and_compare(
      [&] { return compile(text, Mode::kHardened); },
      [](interp::Machine& m) {
        // Merge audit+store into one enclave group ([U, audit, store] -> audit
        // leads), then cap the group's shared budget.
        m.set_placement({0, 1, 1});
        sgx::EpcBudget budget;
        budget.hard_limit = 160 * 1024;  // two 64 KiB growths fit, not three
        m.memory().set_epc_budget(budget);
        m.enable_fault_recovery(/*wait_deadline=*/100ms, /*max_retries=*/3);
      },
      [&](interp::Machine& m, Observed& o) {
        record_call(m, o, "note", {});
        for (int i = 0; i < 4; ++i) record_typed(m, o);
        record_call(m, o, "note", {});
        ASSERT_EQ(o.results.size(), 6u);
        bool tripped = false;
        for (const std::string& r : o.results) {
          if (r.find("err [epc-exhausted]") == 0 &&
              r.find("exceeds EPC limit") != std::string::npos) {
            tripped = true;
          }
        }
        EXPECT_TRUE(tripped) << "no typed EPC fault in results";
      });
}

// ---------------------------------------------------------------------------
// Two clients, one Machine: each application thread owns its worker group
// (§7.3.1), so an enclave fault in one client's chunk belongs to that
// client's call alone. The faulting chunk's only messages to U are its
// result cont and completion ack, so U moves on at once (no deadline needed)
// and parks in the @hold external while the other client completes a call.
// ---------------------------------------------------------------------------

TEST(InterpEquivTest, WorkerFaultSurfacesOnlyInTheFaultingClientsCall) {
  const char* text = R"(
module "two_clients"
global ptr<[8192 x i64] color(blue)> @keep color(blue)
global i64 @count color(blue)
declare i64 @hold(i64)
define i64 @blue_grow(i64 %x) {
entry:
  %p = heap_alloc [8192 x i64] color(blue)
  store ptr<[8192 x i64] color(blue)> %p, ptr<ptr<[8192 x i64] color(blue)> color(blue)> @keep
  %y = add i64 %x, i64 1
  ret i64 %y
}
define i64 @blue_bump(i64 %x) {
entry:
  %c = load ptr<i64 color(blue)> @count
  %n = add i64 %c, %x
  store i64 %n, ptr<i64 color(blue)> @count
  %y = add i64 %x, i64 1
  ret i64 %y
}
define i64 @grow(i64 %x) entry {
entry:
  %r = call i64 @blue_grow(i64 %x)
  %h = call i64 @hold(i64 %r)
  ret i64 %h
}
define i64 @bump(i64 %x) entry {
entry:
  %r = call i64 @blue_bump(i64 %x)
  ret i64 %r
}
)";
  for (const ExecMode mode : {ExecMode::kTreeWalk, ExecMode::kFused}) {
    SCOPED_TRACE(mode == ExecMode::kFused ? "fused" : "tree-walker");
    const Compiled c = compile(text, Mode::kRelaxed);
    interp::Machine m(*c.program, /*epc_limit_bytes=*/0, mode);
    sgx::EpcBudget budget;
    budget.hard_limit = 32 * 1024;  // the globals fit, a 64 KiB growth does not
    m.memory().set_epc_budget(budget);

    std::mutex mu;
    std::condition_variable cv;
    bool a_held = false;
    bool b_done = false;
    m.bind_external("hold", [&](interp::Machine::ExternalCtx&,
                                std::span<const std::int64_t> args) {
      std::unique_lock<std::mutex> lock(mu);
      a_held = true;
      cv.notify_all();
      cv.wait(lock, [&] { return b_done; });
      return args[0];
    });

    std::optional<Result<std::int64_t>> a;
    std::optional<Result<std::int64_t>> a_next;
    std::thread client_a([&] {
      a = m.call("grow", {1});
      a_next = m.call("bump", {4});  // the record was taken with A's error
    });
    {
      // A's fault is recorded before the result cont that lets A reach @hold.
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return a_held; });
    }
    const Result<std::int64_t> b = m.call("bump", {2});
    {
      const std::lock_guard<std::mutex> lock(mu);
      b_done = true;
    }
    cv.notify_all();
    client_a.join();

    ASSERT_TRUE(b.ok()) << "client B got client A's fault: " << b.message();
    EXPECT_EQ(b.value(), 3);
    ASSERT_TRUE(a.has_value());
    ASSERT_FALSE(a->ok()) << "client A's fault was lost; it returned " << a->value();
    EXPECT_EQ(a->status().code(), StatusCode::kEpcExhausted) << a->message();
    ASSERT_TRUE(a_next.has_value());
    EXPECT_TRUE(a_next->ok()) << a_next->message();
  }
}

}  // namespace
}  // namespace privagic
