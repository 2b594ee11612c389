// End-to-end tests: annotated PIR → type analysis → partitioning →
// execution on the simulated SGX machine with real worker threads.
//
// These are the functional proof of the paper's pipeline: Figure 6 runs to
// completion across three protection domains with the exact semantics of the
// unpartitioned program, and the simulated attacker (normal-mode reads over
// all of unsafe memory) never observes enclave data.
#include <gtest/gtest.h>

#include <cstring>

#include "interp/machine.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "partition/partitioner.hpp"

namespace privagic::interp {
namespace {

using partition::PartitionResult;
using sectype::Mode;
using sectype::TypeAnalysis;

struct Compiled {
  std::unique_ptr<ir::Module> module;
  std::unique_ptr<TypeAnalysis> analysis;
  std::unique_ptr<PartitionResult> program;
};

Compiled compile(const char* text, Mode mode) {
  Compiled c;
  auto parsed = ir::parse_module(text);
  EXPECT_TRUE(parsed.ok()) << parsed.message();
  c.module = std::move(parsed).value();
  c.analysis = std::make_unique<TypeAnalysis>(*c.module, mode);
  EXPECT_TRUE(c.analysis->run()) << c.analysis->diagnostics().to_string();
  auto result = partition::partition_module(*c.analysis);
  EXPECT_TRUE(result.ok()) << result.message();
  c.program = std::move(result).value();
  return c;
}

std::int64_t read_i32(Machine& m, const std::string& global, sgx::ColorId color) {
  std::byte bytes[4];
  m.memory().read(m.global_address(global), bytes, color);
  std::int32_t v;
  std::memcpy(&v, bytes, 4);
  return v;
}

// ---------------------------------------------------------------------------
// Figure 6 end-to-end
// ---------------------------------------------------------------------------

const char* kFigure6 = R"(
module "fig6"
global i32 @unsafe = 0 color(U)
global i32 @blue = 10 color(blue)
global i32 @red = 0 color(red)
declare void @printf(i32)
define i32 @main() entry {
entry:
  store i32 1, ptr<i32 color(U)> @unsafe
  %b = load ptr<i32 color(blue)> @blue
  %x = call i32 @f(i32 %b)
  ret i32 %x
}
define i32 @f(i32 %y) {
entry:
  call void @g(i32 21)
  ret i32 42
}
define void @g(i32 %n) {
entry:
  store i32 %n, ptr<i32 color(blue)> @blue
  store i32 %n, ptr<i32 color(red)> @red
  call void @printf(i32 0)
  ret void
}
)";

TEST(Figure6ExecutionTest, RunsAcrossThreeDomainsWithCorrectSemantics) {
  Compiled c = compile(kFigure6, Mode::kRelaxed);
  Machine m(*c.program);
  m.set_external_log_enabled(true);  // log recording is opt-in
  auto r = m.call("main", {});
  ASSERT_TRUE(r.ok()) << r.message();
  EXPECT_EQ(r.value(), 42);  // Figure 7: main returns f's F result

  const sgx::ColorId blue = c.program->color_id(sectype::Color::named("blue"));
  const sgx::ColorId red = c.program->color_id(sectype::Color::named("red"));
  EXPECT_EQ(read_i32(m, "unsafe", sgx::kUnsafe), 1);
  EXPECT_EQ(read_i32(m, "blue", blue), 21);
  EXPECT_EQ(read_i32(m, "red", red), 21);

  // The printf executed exactly once, in the untrusted chunk.
  const auto log = m.external_log();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], "printf(0)");
}

TEST(Figure6ExecutionTest, RepeatedCallsStaySound) {
  Compiled c = compile(kFigure6, Mode::kRelaxed);
  Machine m(*c.program);
  m.set_external_log_enabled(true);
  for (int i = 0; i < 50; ++i) {
    auto r = m.call("main", {});
    ASSERT_TRUE(r.ok()) << "iteration " << i << ": " << r.message();
    ASSERT_EQ(r.value(), 42);
  }
  EXPECT_EQ(m.external_log().size(), 50u);
}

TEST(Figure6ExecutionTest, AttackerCannotReadEnclaveMemory) {
  Compiled c = compile(kFigure6, Mode::kRelaxed);
  Machine m(*c.program);
  ASSERT_TRUE(m.call("main", {}).ok());
  // Normal-mode access to the blue global faults, exactly like SGX's
  // page-permission checks (§2.1).
  std::byte bytes[4];
  EXPECT_THROW(m.memory().read(m.global_address("blue"), bytes, sgx::kUnsafe),
               sgx::AccessViolation);
  // And one enclave cannot read another enclave's memory either.
  const sgx::ColorId red = c.program->color_id(sectype::Color::named("red"));
  EXPECT_THROW(m.memory().read(m.global_address("blue"), bytes, red),
               sgx::AccessViolation);
}

// ---------------------------------------------------------------------------
// Confidentiality: the secret's bytes never reach unsafe memory
// ---------------------------------------------------------------------------

TEST(ConfidentialityTest, SecretBytesNeverAppearInUnsafeMemory) {
  // A blue enclave stores and transforms a distinctive secret. After the
  // run, a full scan of unsafe memory (everything an OS-level attacker can
  // read) must not contain the secret's byte pattern.
  const char* text = R"(
module "m"
global i64 @secret = 0 color(blue)
global i64 @derived = 0 color(blue)
define void @compute() entry {
entry:
  store i64 81985529216486895, ptr<i64 color(blue)> @secret
  %s = load ptr<i64 color(blue)> @secret
  %d = mul i64 %s, i64 3
  store i64 %d, ptr<i64 color(blue)> @derived
  ret void
}
)";
  Compiled c = compile(text, Mode::kRelaxed);
  Machine m(*c.program);
  ASSERT_TRUE(m.call("compute", {}).ok());

  const std::int64_t secret = 81985529216486895;  // 0x0123456789ABCDEF
  std::byte needle[8];
  std::memcpy(needle, &secret, 8);
  EXPECT_FALSE(m.memory().unsafe_memory_contains(needle));

  // The enclave itself can read it back.
  const sgx::ColorId blue = c.program->color_id(sectype::Color::named("blue"));
  std::byte bytes[8];
  m.memory().read(m.global_address("secret"), bytes, blue);
  std::int64_t v;
  std::memcpy(&v, bytes, 8);
  EXPECT_EQ(v, secret);
}

TEST(ConfidentialityTest, DeclassifiedValueIsVisibleButSecretIsNot) {
  // The §6.4 pattern: an ignore function (our "encrypt") moves a derived,
  // declassified value out; the raw secret stays inside.
  const char* text = R"(
module "m"
global i64 @secret = 0 color(blue)
global i64 @out = 0
declare i64 @encrypt(i64) ignore
define void @seal() entry {
entry:
  store i64 81985529216486895, ptr<i64 color(blue)> @secret
  %s = load ptr<i64 color(blue)> @secret
  %c = call i64 @encrypt(i64 %s)
  store i64 %c, ptr<i64> @out
  ret void
}
)";
  Compiled c = compile(text, Mode::kRelaxed);
  Machine m(*c.program);
  m.bind_external("encrypt", [](Machine::ExternalCtx&, std::span<const std::int64_t> args) {
    return args[0] ^ 0x5A5A5A5A5A5A5A5A;  // stand-in cipher
  });
  ASSERT_TRUE(m.call("seal", {}).ok());

  const std::int64_t secret = 81985529216486895;
  std::byte needle[8];
  std::memcpy(needle, &secret, 8);
  EXPECT_FALSE(m.memory().unsafe_memory_contains(needle));

  const std::int64_t expected_cipher = secret ^ 0x5A5A5A5A5A5A5A5A;
  std::byte cipher_bytes[8];
  m.memory().read(m.global_address("out"), cipher_bytes, sgx::kUnsafe);
  std::int64_t cipher;
  std::memcpy(&cipher, cipher_bytes, 8);
  EXPECT_EQ(cipher, expected_cipher);
}

// ---------------------------------------------------------------------------
// Control flow across enclaves
// ---------------------------------------------------------------------------

TEST(ControlFlowTest, ColoredBranchesExecuteInsideTheEnclave) {
  // abs() of a blue value: the branch on the secret runs in blue; the
  // untrusted world sees neither the branch nor the value.
  const char* text = R"(
module "m"
global i32 @v = 0 color(blue)
global i32 @out = 0 color(blue)
define void @setv(i32 %x) entry {
entry:
  store i32 %x, ptr<i32 color(blue)> @v
  ret void
}
define void @absv() entry {
entry:
  %x = load ptr<i32 color(blue)> @v
  %neg = icmp slt i32 %x, i32 0
  cond_br i1 %neg, %flip, %join
flip:
  %nx = sub i32 0, %x
  store i32 %nx, ptr<i32 color(blue)> @out
  br %join
join:
  ret void
}
)";
  Compiled c = compile(text, Mode::kRelaxed);
  Machine m(*c.program);
  ASSERT_TRUE(m.call("setv", {-17}).ok());
  ASSERT_TRUE(m.call("absv", {}).ok());
  const sgx::ColorId blue = c.program->color_id(sectype::Color::named("blue"));
  EXPECT_EQ(read_i32(m, "out", blue), 17);
}

TEST(ControlFlowTest, LoopsReplicateAcrossChunks) {
  // A loop whose trip count is untrusted but whose body updates blue state:
  // the blue chunk and the U chunk iterate in lock-step (the F loop control
  // is replicated, §7.3.1).
  const char* text = R"(
module "m"
global i64 @acc = 0 color(blue)
define void @addn(i64 %n) entry {
entry:
  br %head
head:
  %i = phi i64 [ i64 0, %entry ], [ %i2, %body ]
  %more = icmp slt i64 %i, %n
  cond_br i1 %more, %body, %exit
body:
  %a = load ptr<i64 color(blue)> @acc
  %a2 = add i64 %a, i64 1
  store i64 %a2, ptr<i64 color(blue)> @acc
  %i2 = add i64 %i, i64 1
  br %head
exit:
  ret void
}
)";
  Compiled c = compile(text, Mode::kRelaxed);
  Machine m(*c.program);
  ASSERT_TRUE(m.call("addn", {25}).ok());
  const sgx::ColorId blue = c.program->color_id(sectype::Color::named("blue"));
  std::byte bytes[8];
  m.memory().read(m.global_address("acc"), bytes, blue);
  std::int64_t v;
  std::memcpy(&v, bytes, 8);
  EXPECT_EQ(v, 25);
}

TEST(ControlFlowTest, VisibleEffectsKeepProgramOrder) {
  // Two external calls separated by enclave work: §7.3.3's barriers must
  // deliver them in source order.
  const char* text = R"(
module "m"
global i32 @b = 0 color(blue)
declare void @log(i32)
define void @run() entry {
entry:
  call void @log(i32 1)
  %v = load ptr<i32 color(blue)> @b
  %v2 = add i32 %v, i32 5
  store i32 %v2, ptr<i32 color(blue)> @b
  call void @log(i32 2)
  ret void
}
)";
  Compiled c = compile(text, Mode::kRelaxed);
  Machine m(*c.program);
  m.set_external_log_enabled(true);
  ASSERT_TRUE(m.call("run", {}).ok());
  const auto log = m.external_log();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], "log(1)");
  EXPECT_EQ(log[1], "log(2)");
}

// ---------------------------------------------------------------------------
// Data in structures and heap
// ---------------------------------------------------------------------------

TEST(HeapTest, WholeStructureColoring) {
  // The Privagic-1 configuration (§9.3): the whole node lives in blue.
  const char* text = R"(
module "m"
struct %node { i64 key, i64 value }
global ptr<%node color(blue)> @slot color(blue)
define void @put(i64 %k, i64 %v) entry {
entry:
  %n = heap_alloc %node color(blue)
  %kp = gep ptr<%node color(blue)> %n, field 0
  %vp = gep ptr<%node color(blue)> %n, field 1
  store i64 %k, ptr<i64 color(blue)> %kp
  store i64 %v, ptr<i64 color(blue)> %vp
  store ptr<%node color(blue)> %n, ptr<ptr<%node color(blue)> color(blue)> @slot
  ret void
}
define i64 @get_raw() entry {
entry:
  %n = load ptr<ptr<%node color(blue)> color(blue)> @slot
  %vp = gep ptr<%node color(blue)> %n, field 1
  %v = load ptr<i64 color(blue)> %vp
  %d = call i64 @declass(i64 %v)
  ret i64 %d
}
declare i64 @declass(i64) ignore
)";
  Compiled c = compile(text, Mode::kRelaxed);
  Machine m(*c.program);
  m.bind_external("declass", [](Machine::ExternalCtx&, std::span<const std::int64_t> args) {
    return args[0];
  });
  ASSERT_TRUE(m.call("put", {7, 1234}).ok());
  auto r = m.call("get_raw", {});
  ASSERT_TRUE(r.ok()) << r.message();
  EXPECT_EQ(r.value(), 1234);
}

TEST(HeapTest, EpcLimitIsEnforced) {
  // The pointer is stored so DCE cannot drop the (otherwise dead) allocation.
  const char* text = R"(
module "m"
global ptr<[8192 x i64] color(blue)> @keep color(blue)
define void @alloc_big() entry {
entry:
  %p = heap_alloc [8192 x i64] color(blue)
  store ptr<[8192 x i64] color(blue)> %p, ptr<ptr<[8192 x i64] color(blue)> color(blue)> @keep
  ret void
}
)";
  Compiled c = compile(text, Mode::kRelaxed);
  // 64 KiB allocation vs a 16 KiB EPC: must fail.
  Machine m(*c.program, /*epc_limit_bytes=*/16 * 1024);
  auto r = m.call("alloc_big", {});
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.message().find("EPC"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Indirect calls (§6.3 / §7.3.4)
// ---------------------------------------------------------------------------

TEST(IndirectCallTest, FunctionPointersResolveToInterfaceVersions) {
  // §6.3: "when an instruction loads a function pointer, Privagic loads a
  // pointer to a version of the function specialized for U arguments" — the
  // interface version (§7.3.4). The address-taken @work is analyzed like an
  // entry point and invoked through its interface.
  const char* text = R"(
module "m"
global ptr<i64 (i64)> @handler
define i64 @work(i64 %x) {
entry:
  %t = add i64 %x, i64 5
  ret i64 %t
}
define void @setup() entry {
entry:
  store ptr<i64 (i64)> @work, ptr<ptr<i64 (i64)>> @handler
  ret void
}
define i64 @invoke(i64 %v) entry {
entry:
  %fp = load ptr<ptr<i64 (i64)>> @handler
  %r = call_indirect i64 %fp(i64 %v)
  ret i64 %r
}
)";
  Compiled c = compile(text, Mode::kRelaxed);
  // An interface for @work exists even though nothing marks it `entry`.
  ASSERT_TRUE(c.program->interfaces.contains("work"));
  Machine m(*c.program);
  ASSERT_TRUE(m.call("setup", {}).ok());
  auto r = m.call("invoke", {10});
  ASSERT_TRUE(r.ok()) << r.message();
  EXPECT_EQ(r.value(), 15);
}

TEST(IndirectCallTest, EnclaveValuesCannotFlowThroughFunctionPointers) {
  // The conservative rule: indirect calls are untrusted; colored arguments
  // are rejected at type-check time.
  const char* text = R"(
module "m"
global ptr<i64 (i64)> @handler
global i64 @secret = 0 color(blue)
define i64 @leak() entry {
entry:
  %fp = load ptr<ptr<i64 (i64)>> @handler
  %s = load ptr<i64 color(blue)> @secret
  %r = call_indirect i64 %fp(i64 %s)
  ret i64 %r
}
)";
  auto parsed = ir::parse_module(text);
  ASSERT_TRUE(parsed.ok()) << parsed.message();
  TypeAnalysis analysis(*parsed.value(), Mode::kRelaxed);
  EXPECT_FALSE(analysis.run());
  EXPECT_TRUE(analysis.diagnostics().has(sectype::Rule::kExternalCall));
}

// ---------------------------------------------------------------------------
// Spawn-sequence protection (§8 extension)
// ---------------------------------------------------------------------------

TEST(SpawnGuardTest, AttackerInjectedSpawnIsDroppedAndExecutionContinues) {
  Compiled c = compile(kFigure6, Mode::kRelaxed);
  Machine m(*c.program);
  m.set_external_log_enabled(true);
  // §8: "An attacker can temper the execution flow of the application by
  // sending unexpected spawn messages." Inject forged spawns for every chunk
  // into the blue worker's queue.
  const sgx::ColorId blue = c.program->color_id(sectype::Color::named("blue"));
  for (std::uint64_t chunk = 0; chunk < c.program->chunks.size(); ++chunk) {
    m.inject_attacker_spawn(blue, chunk);
  }
  // The program still runs correctly; the forged spawns were dropped.
  auto r = m.call("main", {});
  ASSERT_TRUE(r.ok()) << r.message();
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(m.runtime_stats().forged_spawn_rejects, c.program->chunks.size());
  EXPECT_EQ(m.external_log().size(), 1u);  // printf ran exactly once
}

// ---------------------------------------------------------------------------
// Hardened mode end-to-end
// ---------------------------------------------------------------------------

TEST(HardenedTest, SingleColorProgramRunsWithoutMessages) {
  const char* text = R"(
module "m"
global i32 @secret = 0 color(blue)
define void @bump() entry {
entry:
  %v = load ptr<i32 color(blue)> @secret
  %v2 = add i32 %v, i32 1
  store i32 %v2, ptr<i32 color(blue)> @secret
  ret void
}
)";
  Compiled c = compile(text, Mode::kHardened);
  Machine m(*c.program);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(m.call("bump", {}).ok());
  const sgx::ColorId blue = c.program->color_id(sectype::Color::named("blue"));
  EXPECT_EQ(read_i32(m, "secret", blue), 10);
}

}  // namespace
}  // namespace privagic::interp
