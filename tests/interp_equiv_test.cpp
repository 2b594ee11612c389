// Differential test: the bytecode engines vs the tree-walker.
//
// Every PIR fixture (examples/pir/*.pir), the partitioned kvcache program
// (apps/kvcache/pir_program.hpp), and the fault-injection and pointer-auth
// configurations run under all three ExecModes — kTreeWalk (the reference
// oracle), kFused (superinstructions + direct-threaded dispatch), and
// kNative (template-JIT with promotion forced to the first call, so compiled
// code — and its deopt/fault exits — actually execute; on non-JIT hosts the
// mode degrades to kFused and the row still runs) — with identical scripts;
// the engines must observably agree on
//   * every call's status and return value (including error messages),
//   * the external-call log (recording enabled on both),
//   * final global memory, byte for byte (region snapshots via resolve()),
//   * per-enclave EPC usage,
//   * the total instructions-executed counter.
// The last item is the strictest: the bytecode engines batch their budget
// accounting, but once counts settle it must have charged exactly the
// instructions the walker charges (phis uncounted, traps counted, etc.).
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/kvcache/pir_program.hpp"
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

/// The executed_ counter can lag call() by one worker turn (an enclave's
/// trailing ret lands after the leader resumes, and a freshly spawned
/// worker may not have been scheduled yet). Poll until the count holds
/// still for a sustained window — 1 ms is not enough under a fully loaded
/// parallel ctest run.
std::uint64_t settled_instructions(const interp::Machine& m) {
  std::uint64_t prev = m.instructions_executed();
  int stable = 0;
  for (int i = 0; i < 2000 && stable < 30; ++i) {
    std::this_thread::sleep_for(1ms);
    const std::uint64_t now = m.instructions_executed();
    stable = now == prev ? stable + 1 : 0;
    prev = now;
  }
  return prev;
}

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
  // The native row must execute compiled code, not merely warm up toward the
  // production threshold: promote every function on first entry.
  if (mode == ExecMode::kNative) m.set_jit_threshold(0);
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
  // The native row proves nothing if promotion silently never happened.
  if (mode == ExecMode::kNative && m.jit_enabled()) {
    EXPECT_GT(m.jit_stats().compiles, 0u) << "kNative row never compiled";
  }
  o.instructions = settled_instructions(m);
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
/// the identical script under all three, asserting the fused and native
/// engines each match the tree-walker on every channel.
void run_both_and_compare(
    const std::function<Compiled()>& build,
    const std::function<void(interp::Machine&)>& configure,
    const std::function<void(interp::Machine&, Observed&)>& drive) {
  Compiled for_tree = build();
  Compiled for_fused = build();
  Compiled for_native = build();
  const Observed tree =
      run_scenario(*for_tree.program, ExecMode::kTreeWalk, configure, drive);
  const Observed fused =
      run_scenario(*for_fused.program, ExecMode::kFused, configure, drive);
  const Observed native =
      run_scenario(*for_native.program, ExecMode::kNative, configure, drive);
  expect_equivalent(tree, fused, "fused");
  expect_equivalent(tree, native, "native");
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
// Batched call path: the sender-side outbox, adaptive waits, and same-color
// direct dispatch are pure transport optimizations — every observable channel
// must match the seed's push-per-send path, under both engines.
// ---------------------------------------------------------------------------

TEST(InterpEquivTest, CallPathBatchingOnAndOffAreObservablyIdentical) {
  auto bind_net = [](interp::Machine& m) {
    auto state = std::make_shared<std::uint64_t>(0x243F6A8885A308D3ull);
    m.bind_external("net_recv", [state](interp::Machine::ExternalCtx&,
                                        std::span<const std::int64_t>) {
      *state = *state * 6364136223846793005ull + 1442695040888963407ull;
      const std::uint64_t r = *state >> 16;
      const std::uint64_t op = (r % 10) < 5 ? 0 : (r % 10) < 9 ? 1 : 2;
      return static_cast<std::int64_t>((op << 62) | ((r % 256) << 32) |
                                       (r & 0xFFFF));
    });
  };
  auto drive = [](interp::Machine& m, Observed& o) {
    record_call(m, o, "cache_put", {7, 4242});
    for (int i = 0; i < 40; ++i) record_call(m, o, "handle_request", {});
    record_call(m, o, "read_stats", {});
  };
  for (const ExecMode mode : {ExecMode::kTreeWalk, ExecMode::kFused, ExecMode::kNative}) {
    Compiled a = compile(std::string(apps::kMinicachedCorePir), Mode::kHardened);
    Compiled b = compile(std::string(apps::kMinicachedCorePir), Mode::kHardened);
    const Observed batched = run_scenario(*a.program, mode, bind_net, drive);
    const Observed unbatched = run_scenario(
        *b.program, mode,
        [&](interp::Machine& m) {
          bind_net(m);
          m.set_call_path(/*max_batch=*/1, /*adaptive_wait=*/false,
                          /*direct_dispatch=*/false);
        },
        drive);
    expect_equivalent(batched, unbatched);
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
// per-color EPC accounting must agree across all three engines.
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
  // must surface as kEpcExhausted (not kGeneric) on every tier.
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
// every tier when a placement is enforced.
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

}  // namespace
}  // namespace privagic
