// Additional cross-cutting tests: interpreter arithmetic semantics through
// complete pipeline runs, §7.3.3 barriers around shared-memory stores, and
// harness internals.
#include <gtest/gtest.h>

#include <cstring>

#include "ds/harness.hpp"
#include "interp/machine.hpp"
#include "ir/parser.hpp"
#include "partition/intrinsics.hpp"
#include "partition/partitioner.hpp"

namespace privagic {
namespace {

using sectype::Mode;
using sectype::TypeAnalysis;

std::unique_ptr<partition::PartitionResult> compile(const char* text, Mode mode) {
  auto parsed = ir::parse_module(text);
  EXPECT_TRUE(parsed.ok()) << parsed.message();
  static std::vector<std::unique_ptr<ir::Module>> modules;       // keep alive
  static std::vector<std::unique_ptr<TypeAnalysis>> analyses;    // for results
  modules.push_back(std::move(parsed).value());
  analyses.push_back(std::make_unique<TypeAnalysis>(*modules.back(), mode));
  EXPECT_TRUE(analyses.back()->run()) << analyses.back()->diagnostics().to_string();
  auto result = partition::partition_module(*analyses.back());
  EXPECT_TRUE(result.ok()) << result.message();
  return std::move(result).value();
}

// ---------------------------------------------------------------------------
// Arithmetic semantics, end to end (parameterized)
// ---------------------------------------------------------------------------

struct ArithCase {
  const char* name;
  const char* op;       // PIR opcode line with %a, %b
  std::int64_t a;
  std::int64_t b;
  std::int64_t expect;
};

// Without this gtest prints the raw bytes of the struct, which include the
// ASLR-randomized addresses of `name`/`op`, so the discovered test names
// would change from build to build.
void PrintTo(const ArithCase& c, std::ostream* os) {
  *os << c.name << "(" << c.a << ", " << c.b << ") = " << c.expect;
}

class ArithmeticTest : public ::testing::TestWithParam<ArithCase> {};

TEST_P(ArithmeticTest, MatchesHostSemantics) {
  const ArithCase& c = GetParam();
  std::string text = R"(
module "m"
define i64 @f(i64 %a, i64 %b) entry {
entry:
  %r = )" + std::string(c.op) +
                     R"(
  ret i64 %r
}
)";
  auto program = compile(text.c_str(), Mode::kRelaxed);
  interp::Machine m(*program);
  auto r = m.call("f", {c.a, c.b});
  ASSERT_TRUE(r.ok()) << c.name << ": " << r.message();
  EXPECT_EQ(r.value(), c.expect) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Ops, ArithmeticTest,
    ::testing::Values(
        ArithCase{"add", "add i64 %a, %b", 40, 2, 42},
        ArithCase{"sub_negative", "sub i64 %a, %b", 2, 40, -38},
        ArithCase{"mul", "mul i64 %a, %b", -6, 7, -42},
        ArithCase{"sdiv_trunc", "sdiv i64 %a, %b", -7, 2, -3},
        ArithCase{"srem_sign", "srem i64 %a, %b", -7, 2, -1},
        ArithCase{"and", "and i64 %a, %b", 0b1100, 0b1010, 0b1000},
        ArithCase{"or", "or i64 %a, %b", 0b1100, 0b1010, 0b1110},
        ArithCase{"xor", "xor i64 %a, %b", 0b1100, 0b1010, 0b0110},
        ArithCase{"shl", "shl i64 %a, %b", 3, 4, 48},
        ArithCase{"lshr", "lshr i64 %a, %b", 48, 4, 3}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(ArithmeticEdgeTest, DivisionByZeroFailsCleanly) {
  auto program = compile(R"(
module "m"
define i64 @f(i64 %a, i64 %b) entry {
entry:
  %r = sdiv i64 %a, %b
  ret i64 %r
}
)",
                         Mode::kRelaxed);
  interp::Machine m(*program);
  auto r = m.call("f", {5, 0});
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.message().find("division"), std::string::npos);
}

TEST(ArithmeticEdgeTest, NarrowTypesWrap) {
  auto program = compile(R"(
module "m"
define i32 @f(i64 %a) entry {
entry:
  %t = cast trunc i64 %a to i8
  %w = add i8 %t, i8 1
  %r = cast sext i8 %w to i32
  ret i32 %r
}
)",
                         Mode::kRelaxed);
  interp::Machine m(*program);
  // 127 + 1 wraps to -128 in i8.
  EXPECT_EQ(m.call("f", {127}).value(), -128);
}

// ---------------------------------------------------------------------------
// §7.3.3: barriers around shared-memory stores (relaxed mode)
// ---------------------------------------------------------------------------

TEST(SharedStoreBarrierTest, ChunksSynchronizeBeforeTheVisibleStore) {
  // A blue store precedes a store to shared memory: the S store is a
  // visible effect, so the blue chunk tokens the untrusted chunk before it
  // executes — the partitioned module must contain that ack/wait pair.
  auto program = compile(R"(
module "m"
global i64 @secret = 0 color(blue)
global i64 @status = 0
define void @work() entry {
entry:
  %s = load ptr<i64 color(blue)> @secret
  %s2 = add i64 %s, i64 1
  store i64 %s2, ptr<i64 color(blue)> @secret
  store i64 1, ptr<i64> @status
  ret void
}
)",
                         Mode::kRelaxed);
  int wait_acks_in_u = 0;
  int acks_in_blue = 0;
  for (const auto& chunk : program->chunks) {
    for (const auto& bb : chunk.fn->blocks()) {
      for (const auto& inst : bb->instructions()) {
        if (inst->opcode() != ir::Opcode::kCall) continue;
        const auto& callee = static_cast<const ir::CallInst*>(inst.get())->callee()->name();
        if (chunk.color.is_untrusted() && callee == partition::kIntrinsicWaitAck) {
          ++wait_acks_in_u;
        }
        if (chunk.color == sectype::Color::named("blue") &&
            callee == partition::kIntrinsicAck) {
          ++acks_in_blue;
        }
      }
    }
  }
  EXPECT_GE(wait_acks_in_u, 1);
  EXPECT_GE(acks_in_blue, 1);

  // And it executes: status becomes visible only after the run completes.
  interp::Machine m(*program);
  ASSERT_TRUE(m.call("work", {}).ok());
  std::byte bytes[8];
  m.memory().read(m.global_address("status"), bytes, sgx::kUnsafe);
  std::int64_t v;
  std::memcpy(&v, bytes, 8);
  EXPECT_EQ(v, 1);
}

// ---------------------------------------------------------------------------
// Harness internals
// ---------------------------------------------------------------------------

TEST(HarnessTest, ProtectionNamesAndCalibrationSanity) {
  EXPECT_EQ(ds::protection_name(ds::Protection::kUnprotected), "Unprotected");
  EXPECT_EQ(ds::protection_name(ds::Protection::kIntelSdk2), "Intel-sdk-2");
  for (ds::MapKind kind : {ds::MapKind::kList, ds::MapKind::kTree, ds::MapKind::kHash}) {
    const ds::Calibration cal = ds::calibration_for(kind);
    EXPECT_GT(cal.node_bytes, 0.0);
    EXPECT_GT(cal.traversal_locality_normal, 0.0);
    EXPECT_LE(cal.traversal_locality_enclave, 1.0);
    EXPECT_GT(cal.miss_floor, 0.0);
  }
}

TEST(HarnessTest, ProtectedConfigurationsAreNeverFasterThanUnprotected) {
  ycsb::WorkloadConfig cfg = ycsb::WorkloadConfig::a();
  cfg.record_count = 10'000;
  sgx::CostModel model(sgx::CostParams::machine_a());
  double unprot = 0.0;
  for (ds::Protection p :
       {ds::Protection::kUnprotected, ds::Protection::kPrivagic1, ds::Protection::kPrivagic2,
        ds::Protection::kIntelSdk1, ds::Protection::kIntelSdk2}) {
    ds::MapHarness harness(ds::MapKind::kHash, p, model, cfg);
    harness.preload(cfg.record_count);
    harness.run(2'000);
    if (p == ds::Protection::kUnprotected) {
      unprot = harness.mean_latency_us();
    } else {
      EXPECT_GE(harness.mean_latency_us(), unprot) << ds::protection_name(p);
    }
  }
}

TEST(HarnessTest, OperationsMutateTheRealStructure) {
  ycsb::WorkloadConfig cfg = ycsb::WorkloadConfig::a();
  cfg.record_count = 1'000;
  sgx::CostModel model(sgx::CostParams::machine_a());
  ds::MapHarness harness(ds::MapKind::kTree, ds::Protection::kPrivagic1, model, cfg);
  harness.preload(1'000);
  EXPECT_EQ(harness.map().size(), 1'000u);
  harness.execute({ycsb::OpType::kInsert, 5'000});
  EXPECT_EQ(harness.map().size(), 1'001u);
  ASSERT_NE(harness.map().get(5'000), nullptr);
}

}  // namespace
}  // namespace privagic
