// Unit tests for the decode-time superinstruction fusion pass (fusion.cpp).
//
// The synthetic tests drive fuse_function() on hand-built DecodedFunctions
// to pin each legality rule in isolation:
//   * only single-use producer results fuse;
//   * a branch target is never swallowed as a second component;
//   * authenticated-pointer accesses keep their slow handlers;
//   * faulting arithmetic (sdiv/srem) never fuses;
//   * a bad edge (phi gap) blocks kBinBr;
//   * branch targets are remapped through the fused indices.
// The end-to-end test compiles a PIR module crafted to form every one of
// the ten superinstructions, checks each mnemonic appears in the fused
// disassembly, and runs it under all three engines expecting identical
// results — which keeps the fused_loop jump table honest: a superinstruction
// missing its handler would diverge (or crash) here.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>

#include "interp/bytecode.hpp"
#include "interp/disasm.hpp"
#include "interp/machine.hpp"
#include "ir/parser.hpp"
#include "partition/partitioner.hpp"

namespace privagic::interp::bc {
namespace {

using sectype::Mode;
using sectype::TypeAnalysis;

// ---------------------------------------------------------------------------
// synthetic fuse_function() tests
// ---------------------------------------------------------------------------

DecodedOp make_bin(Op kind, std::uint32_t dest, std::uint32_t a, std::uint32_t b) {
  DecodedOp o;
  o.op = kind;
  o.dest = dest;
  o.a = a;
  o.b = b;
  return o;
}

DecodedOp make_ret(std::uint32_t slot) {
  DecodedOp o;
  o.op = Op::kRet;
  o.flags = kHasResult;
  o.a = slot;
  return o;
}

DecodedOp make_ret_void() {
  DecodedOp o;
  o.op = Op::kRet;
  return o;
}

DecodedOp make_br(std::uint32_t t0) {
  DecodedOp o;
  o.op = Op::kBr;
  o.t0 = t0;
  return o;
}

DecodedFunction make_function(std::initializer_list<DecodedOp> ops,
                              std::uint32_t num_slots) {
  DecodedFunction df;
  df.num_slots = num_slots;
  df.ops.assign(ops.begin(), ops.end());
  return df;
}

TEST(FusePassTest, BinRetPairFuses) {
  DecodedFunction df = make_function(
      {make_bin(Op::kAdd, 2, 0, 1), make_ret(2)}, /*num_slots=*/3);
  fuse_function(df);
  ASSERT_EQ(df.ops.size(), 1u);
  EXPECT_EQ(df.ops[0].op, Op::kBinRet);
  EXPECT_EQ(static_cast<Op>(df.ops[0].sub2), Op::kAdd);
  EXPECT_EQ(df.ops[0].a, 0u);
  EXPECT_EQ(df.ops[0].b, 1u);
  EXPECT_NE(df.ops[0].flags & kHasResult, 0);
  ASSERT_EQ(df.origin.size(), 1u);
  EXPECT_EQ(df.origin[0], 0u);
}

TEST(FusePassTest, SecondReadBlocksFusion) {
  // %2 = add %0, %1 ; %3 = mul %2, %2 ; ret %3 — the add's result is read
  // twice, so the add survives; mul + ret still fuse.
  DecodedFunction df = make_function(
      {make_bin(Op::kAdd, 2, 0, 1), make_bin(Op::kMul, 3, 2, 2), make_ret(3)},
      /*num_slots=*/4);
  fuse_function(df);
  ASSERT_EQ(df.ops.size(), 2u);
  EXPECT_EQ(df.ops[0].op, Op::kAdd);
  EXPECT_EQ(df.ops[1].op, Op::kBinRet);
  EXPECT_EQ(static_cast<Op>(df.ops[1].sub2), Op::kMul);
}

TEST(FusePassTest, BranchTargetIsNeverSwallowed) {
  // The ret at index 1 is a jump target: fusing it into the add would make
  // the branch land past the producer. Everything must survive untouched.
  DecodedFunction df = make_function(
      {make_bin(Op::kAdd, 2, 0, 1), make_ret(2), make_br(/*t0=*/1)},
      /*num_slots=*/3);
  fuse_function(df);
  ASSERT_EQ(df.ops.size(), 3u);
  EXPECT_EQ(df.ops[0].op, Op::kAdd);
  EXPECT_EQ(df.ops[1].op, Op::kRet);
  EXPECT_EQ(df.ops[2].op, Op::kBr);
  EXPECT_EQ(df.ops[2].t0, 1u);  // remap is the identity here
}

TEST(FusePassTest, CleanEdgeFormsBinBrAndRemapsTarget) {
  // add + br with one phi copy reading the add's result. The fused op must
  // keep writing its dest (the phi copy reads it) and the branch target must
  // be remapped through the shrunken index space (2 -> 1).
  DecodedFunction df = make_function(
      {make_bin(Op::kAdd, 2, 0, 1), make_br(/*t0=*/2), make_ret_void()},
      /*num_slots=*/4);
  df.ops[1].nphi0 = 1;
  df.phi_pool.push_back(PhiCopy{/*src=*/2, /*dst=*/3});
  fuse_function(df);
  ASSERT_EQ(df.ops.size(), 2u);
  EXPECT_EQ(df.ops[0].op, Op::kBinBr);
  EXPECT_EQ(df.ops[0].dest, 2u);
  EXPECT_EQ(df.ops[0].t0, 1u);
  EXPECT_EQ(df.ops[0].nphi0, 1u);
  EXPECT_EQ(df.ops[1].op, Op::kRet);
}

TEST(FusePassTest, BadEdgeBlocksBinBr) {
  // Same shape, but the edge faults (phi gap): phi0 holds a trap index, so
  // the pair must stay split and the unfused kBr keeps its trap semantics.
  DecodedFunction df = make_function(
      {make_bin(Op::kAdd, 2, 0, 1), make_br(/*t0=*/2), make_ret(2)},
      /*num_slots=*/3);
  df.ops[1].flags |= kBadEdge0;
  df.traps.emplace_back("phi gap");
  fuse_function(df);
  ASSERT_EQ(df.ops.size(), 3u);
  EXPECT_EQ(df.ops[0].op, Op::kAdd);
  EXPECT_EQ(df.ops[1].op, Op::kBr);
}

TEST(FusePassTest, AuthPointerLoadStaysUnfused) {
  DecodedOp gep;
  gep.op = Op::kGepField;
  gep.dest = 2;
  gep.a = 0;
  gep.imm = 8;
  DecodedOp load;
  load.op = Op::kLoad;
  load.dest = 3;
  load.a = 2;
  load.imm = 8;
  load.sub = 64;

  DecodedFunction plain = make_function({gep, load, make_ret(3)}, 4);
  fuse_function(plain);
  ASSERT_EQ(plain.ops.size(), 2u);
  EXPECT_EQ(plain.ops[0].op, Op::kGepFieldLoad);

  load.flags |= kAuthPointer;
  DecodedFunction authed = make_function({gep, load, make_ret(3)}, 4);
  fuse_function(authed);
  ASSERT_EQ(authed.ops.size(), 3u);
  EXPECT_EQ(authed.ops[0].op, Op::kGepField);
  EXPECT_EQ(authed.ops[1].op, Op::kLoad);
}

TEST(FusePassTest, FaultingArithmeticNeverFuses) {
  DecodedFunction df = make_function(
      {make_bin(Op::kSDiv, 2, 0, 1), make_ret(2)}, /*num_slots=*/3);
  fuse_function(df);
  ASSERT_EQ(df.ops.size(), 2u);
  EXPECT_EQ(df.ops[0].op, Op::kSDiv);
  EXPECT_EQ(df.ops[1].op, Op::kRet);
}

TEST(FusePassTest, CmpBrRemapsBothTargets) {
  DecodedOp cb;
  cb.op = Op::kCondBr;
  cb.a = 2;
  cb.t0 = 0;
  cb.t1 = 2;
  DecodedFunction df = make_function(
      {make_bin(Op::kEq, 2, 0, 1), cb, make_ret_void()}, /*num_slots=*/3);
  fuse_function(df);
  ASSERT_EQ(df.ops.size(), 2u);
  EXPECT_EQ(df.ops[0].op, Op::kCmpBr);
  EXPECT_EQ(df.ops[0].t0, 0u);
  EXPECT_EQ(df.ops[0].t1, 1u);  // old index 2 -> new index 1
  EXPECT_EQ(static_cast<Op>(df.ops[0].sub2), Op::kEq);
}

TEST(FusePassTest, OpNamesCoverEveryOpcode) {
  for (std::size_t i = 0; i < kNumOps; ++i) {
    const char* name = op_name(static_cast<Op>(i));
    ASSERT_NE(name, nullptr) << "opcode " << i;
    EXPECT_STRNE(name, "") << "opcode " << i;
  }
}

// ---------------------------------------------------------------------------
// end-to-end: every superinstruction forms and executes
// ---------------------------------------------------------------------------

// Crafted so the fused program contains all ten superinstructions (see the
// per-line notes). Deterministic: main() always returns 254.
const char* kAllPatterns = R"(
module "fuse_all"
struct %pair { i64 first, i64 second }
global [8 x i64] @arr
global i64 @seed = 9
global i64 @sink = 0

define i64 @leaf(i64 %x) {
entry:
  %t = mul i64 %x, i64 3          ; + ret           -> bin_ret
  ret i64 %t
}

define i64 @main() entry {
entry:
  %s0 = load ptr<i64> @seed       ; + and           -> load_bin
  %k = and i64 %s0, i64 7
  %ip = gep ptr<[8 x i64]> @arr, index %k
  store i64 41, ptr<i64> %ip      ; gep + store     -> gep_index_store
  %ip2 = gep ptr<[8 x i64]> @arr, index %k
  %av = load ptr<i64> %ip2        ; gep + load      -> gep_index_load
  %b1 = add i64 %av, i64 1        ; + xor           -> bin_bin
  %b2 = xor i64 %b1, i64 255
  %pp = heap_alloc %pair
  %f0 = gep ptr<%pair> %pp, field 0
  store i64 %b2, ptr<i64> %f0     ; gep + store     -> gep_field_store
  %f1 = gep ptr<%pair> %pp, field 0
  %fv = load ptr<i64> %f1         ; gep + load      -> gep_field_load
  %sv = add i64 %fv, i64 5        ; + store         -> bin_store
  store i64 %sv, ptr<i64> @sink
  br %head
head:
  %i = phi i64 [ i64 0, %entry ], [ %i2, %body ]
  %acc = phi i64 [ i64 0, %entry ], [ %acc2, %body ]
  %more = icmp slt i64 %i, i64 4  ; + cond_br       -> cmp_br
  cond_br i1 %more, %body, %exit
body:
  %i2 = add i64 %i, i64 1
  %acc2 = add i64 %acc, i64 3     ; + br            -> bin_br
  br %head
exit:
  %lv = call i64 @leaf(i64 %acc)
  %fin = load ptr<i64> @sink
  %out = add i64 %lv, i64 %fin
  ret i64 %out
}
)";

struct Compiled {
  std::unique_ptr<ir::Module> module;
  std::unique_ptr<TypeAnalysis> analysis;
  std::unique_ptr<partition::PartitionResult> program;
};

Compiled compile_all_patterns() {
  Compiled c;
  auto parsed = ir::parse_module(kAllPatterns);
  EXPECT_TRUE(parsed.ok()) << parsed.message();
  c.module = std::move(parsed).value();
  c.analysis = std::make_unique<TypeAnalysis>(*c.module, Mode::kRelaxed);
  EXPECT_TRUE(c.analysis->run()) << c.analysis->diagnostics().to_string();
  auto result = partition::partition_module(*c.analysis);
  EXPECT_TRUE(result.ok()) << result.message();
  c.program = std::move(result).value();
  return c;
}

TEST(FusePassTest, EverySuperinstructionFormsInTheFixture) {
  Compiled c = compile_all_patterns();
  Machine m(*c.program, /*epc_limit_bytes=*/0, ExecMode::kFused);
  const std::string listing = disassemble_program(m);
  for (const char* mnemonic :
       {"cmp_br", "gep_field_load", "gep_index_load", "gep_field_store",
        "gep_index_store", "load_bin", "bin_store", "bin_bin", "bin_br",
        "bin_ret"}) {
    EXPECT_NE(listing.find(mnemonic), std::string::npos)
        << "missing " << mnemonic << " in:\n" << listing;
  }
  // Provenance annotations survive for --dump-bytecode=fused.
  EXPECT_NE(listing.find("; <- #"), std::string::npos);
}

TEST(FusePassTest, EverySuperinstructionExecutesIdenticallyAcrossEngines) {
  for (const ExecMode mode :
       {ExecMode::kTreeWalk, ExecMode::kFused, ExecMode::kNative}) {
    Compiled c = compile_all_patterns();
    Machine m(*c.program, /*epc_limit_bytes=*/0, mode);
    auto r = m.call("main", {});
    ASSERT_TRUE(r.ok()) << r.message();
    EXPECT_EQ(r.value(), 254) << "mode " << static_cast<int>(mode);
  }
}

}  // namespace
}  // namespace privagic::interp::bc
