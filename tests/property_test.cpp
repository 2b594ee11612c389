// Property-based testing of the whole pipeline.
//
// A structured generator produces random colored programs (globals with
// random colors, arithmetic, loads/stores, nested ifs, bounded loops,
// helper calls). For every seed:
//
//   * if the secure type analysis ACCEPTS the program, then partitioning
//     must succeed, the output must verify, and execution on the simulated
//     machine must complete without any access violation — and sentinel
//     values planted in enclave memory before the run must never appear in
//     unsafe memory afterwards (no generator program declassifies, so any
//     such appearance would be a soundness bug);
//   * execution must be deterministic (two runs, same results);
//   * the fused engine must agree with the tree-walker, the reference
//     oracle: the same result, the same error text and the same
//     instructions_executed() count, read as soon as call() returns (both
//     engines charge a chunk's last instructions before the message that
//     releases the caller);
//   * if the analysis REJECTS, that is fine (the generator is color-blind).
//
// This is the adversarial counterpart of the hand-written tests: it has
// repeatedly caught interactions between rule-4 regions, relays, and chunk
// CFG surgery during development.
#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "interp/machine.hpp"
#include "ir/builder.hpp"
#include "ir/dominators.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "partition/partitioner.hpp"
#include "support/rng.hpp"

namespace privagic {
namespace {

using interp::ExecMode;
using sectype::Mode;

// ---------------------------------------------------------------------------
// Random program generator
// ---------------------------------------------------------------------------

class ProgramGenerator {
 public:
  explicit ProgramGenerator(std::uint64_t seed) : rng_(seed) {}

  std::unique_ptr<ir::Module> generate() {
    auto module = std::make_unique<ir::Module>("fuzz");
    auto& types = module->types();
    const ir::IntType* i64 = types.i64();

    // Globals with random colors.
    const int num_globals = 3 + static_cast<int>(rng_.next_below(4));
    for (int g = 0; g < num_globals; ++g) {
      globals_.push_back(module->create_global(
          i64, "g" + std::to_string(g), static_cast<std::int64_t>(rng_.next_below(100)),
          random_color()));
    }

    // A pure helper (always generated; sometimes called).
    helper_ = module->create_function(types.func(i64, {i64}), "helper");
    ir::Argument* harg = helper_->add_argument("x");
    {
      ir::IRBuilder b(*module);
      b.set_insertion_point(helper_->create_block("entry"));
      ir::Value* doubled = b.add(harg, harg, "d");
      ir::Value* result = b.binop(ir::BinOpKind::kXor, doubled, module->const_i64(0x5a5a), "r");
      b.ret(result);
    }

    // The entry function.
    ir::Function* main_fn = module->create_function(types.func(i64, {i64}), "main");
    ir::Argument* arg = main_fn->add_argument("a");
    main_fn->set_entry_point(true);
    ir::IRBuilder b(*module);
    b.set_insertion_point(main_fn->create_block("entry"));
    module_ = module.get();
    builder_ = &b;
    fn_ = main_fn;
    pool_ = {arg, module->const_i64(7), module->const_i64(1000)};

    gen_statements(/*count=*/3 + static_cast<int>(rng_.next_below(6)), /*depth=*/0);
    b.ret(pick());
    return module;
  }

 private:
  std::string random_color() {
    switch (rng_.next_below(4)) {
      case 0: return "blue";
      case 1: return "red";
      default: return "";  // unsafe memory, twice as likely
    }
  }

  ir::Value* pick() { return pool_[rng_.next_below(pool_.size())]; }

  void gen_statements(int count, int depth) {
    for (int i = 0; i < count; ++i) {
      switch (rng_.next_below(depth < 2 ? 7 : 5)) {
        case 0: {  // load a global
          ir::GlobalVariable* g = globals_[rng_.next_below(globals_.size())];
          pool_.push_back(builder_->load(g, "v" + std::to_string(next_++)));
          break;
        }
        case 1: {  // arithmetic
          static constexpr ir::BinOpKind kOps[] = {ir::BinOpKind::kAdd, ir::BinOpKind::kSub,
                                                   ir::BinOpKind::kMul, ir::BinOpKind::kXor,
                                                   ir::BinOpKind::kAnd, ir::BinOpKind::kOr};
          pool_.push_back(builder_->binop(kOps[rng_.next_below(6)], pick(), pick(),
                                          "v" + std::to_string(next_++)));
          break;
        }
        case 2: {  // store to a global
          ir::GlobalVariable* g = globals_[rng_.next_below(globals_.size())];
          builder_->store(pick(), g);
          break;
        }
        case 3: {  // call the helper
          pool_.push_back(
              builder_->call(helper_, {pick()}, "v" + std::to_string(next_++)));
          break;
        }
        case 4: {  // compare (feeds later branches)
          pool_.push_back(builder_->cast(
              ir::CastKind::kZext, module_->types().i64(),
              builder_->icmp(ir::ICmpPred::kSlt, pick(), pick(), ""),
              "v" + std::to_string(next_++)));
          break;
        }
        case 5:  // if/else (only at shallow depth)
          gen_if(depth);
          break;
        case 6:  // bounded loop
          gen_loop(depth);
          break;
      }
    }
  }

  void gen_if(int depth) {
    ir::Value* cond = builder_->icmp(ir::ICmpPred::kSgt, pick(), pick(), "");
    ir::BasicBlock* then_bb = fn_->create_block("then" + std::to_string(next_));
    ir::BasicBlock* else_bb = fn_->create_block("else" + std::to_string(next_));
    ir::BasicBlock* join = fn_->create_block("join" + std::to_string(next_++));
    builder_->cond_br(cond, then_bb, else_bb);

    // Values defined inside the arms must not escape to the join (they do
    // not dominate it), so snapshot and restore the pool.
    const auto saved = pool_;
    builder_->set_insertion_point(then_bb);
    gen_statements(1 + static_cast<int>(rng_.next_below(3)), depth + 1);
    builder_->br(join);
    pool_ = saved;
    builder_->set_insertion_point(else_bb);
    gen_statements(1 + static_cast<int>(rng_.next_below(2)), depth + 1);
    builder_->br(join);
    pool_ = saved;
    builder_->set_insertion_point(join);
  }

  void gen_loop(int depth) {
    // for (i = 0; i < K; ++i) { body }  with K in [1, 4].
    const auto k = static_cast<std::int64_t>(1 + rng_.next_below(4));
    ir::BasicBlock* head = fn_->create_block("head" + std::to_string(next_));
    ir::BasicBlock* body = fn_->create_block("body" + std::to_string(next_));
    ir::BasicBlock* exit = fn_->create_block("exit" + std::to_string(next_++));
    ir::BasicBlock* pre = builder_->insertion_point();
    builder_->br(head);

    builder_->set_insertion_point(head);
    auto* i_phi = builder_->phi(module_->types().i64(), "i" + std::to_string(next_++));
    i_phi->add_incoming(module_->const_i64(0), pre);
    ir::Value* more = builder_->icmp(ir::ICmpPred::kSlt, i_phi, module_->const_i64(k), "");
    builder_->cond_br(more, body, exit);

    const auto saved = pool_;
    builder_->set_insertion_point(body);
    gen_statements(1 + static_cast<int>(rng_.next_below(2)), depth + 1);
    ir::Value* inext = builder_->add(i_phi, module_->const_i64(1), "");
    i_phi->add_incoming(inext, builder_->insertion_point());
    builder_->br(head);
    pool_ = saved;
    builder_->set_insertion_point(exit);
  }

  Xoshiro256 rng_;
  ir::Module* module_ = nullptr;
  ir::IRBuilder* builder_ = nullptr;
  ir::Function* fn_ = nullptr;
  ir::Function* helper_ = nullptr;
  std::vector<ir::GlobalVariable*> globals_;
  std::vector<ir::Value*> pool_;
  int next_ = 0;
};

// ---------------------------------------------------------------------------
// The pipeline property
// ---------------------------------------------------------------------------

struct PipelineOutcome {
  bool accepted = false;
  std::int64_t result = 0;
  bool leaked = false;
  std::string error;
  std::uint64_t instructions = 0;
};

PipelineOutcome run_pipeline(std::uint64_t seed, Mode mode,
                             ExecMode engine = ExecMode::kFused) {
  PipelineOutcome out;
  ProgramGenerator gen(seed);
  auto module = gen.generate();

  // The generator must always produce structurally valid IR.
  const auto verify_errors = ir::verify_module(*module);
  EXPECT_TRUE(verify_errors.empty())
      << "seed " << seed << ": " << verify_errors.front() << "\n"
      << ir::print_module(*module);

  sectype::TypeAnalysis analysis(*module, mode);
  if (!analysis.run()) return out;  // rejected: fine

  auto result = partition::partition_module(analysis);
  // Hardened mode may legitimately reject at the planning stage
  // (§7.3.2 free-argument rule).
  if (!result.ok()) {
    EXPECT_TRUE(mode == Mode::kHardened ||
                result.message().find("free-argument") == std::string::npos)
        << "seed " << seed << ": " << result.message();
    return out;
  }
  out.accepted = true;

  const auto out_errors = ir::verify_module(*result.value()->module);
  EXPECT_TRUE(out_errors.empty()) << "seed " << seed << ": " << out_errors.front();

  interp::Machine machine(*result.value(), /*epc_limit_bytes=*/0, engine);

  // Plant sentinels in every colored global; no generated program can
  // declassify, so the sentinel bytes must never reach unsafe memory.
  std::vector<std::int64_t> sentinels;
  for (const auto& g : result.value()->module->globals()) {
    if (g->color().empty()) continue;
    const auto sentinel = static_cast<std::int64_t>(0xABCD000000000000ull | (seed << 8) |
                                                    sentinels.size());
    std::byte bytes[8];
    std::memcpy(bytes, &sentinel, 8);
    machine.memory().write(machine.global_address(g->name()), bytes,
                           result.value()->color_id(sectype::color_from_annotation(g->color())));
    sentinels.push_back(sentinel);
  }

  auto call = machine.call("main", {static_cast<std::int64_t>(seed % 97)});
  out.instructions = machine.instructions_executed();
  if (!call.ok()) {
    out.error = call.message();
    return out;
  }
  out.result = call.value();

  for (std::int64_t sentinel : sentinels) {
    std::byte needle[8];
    std::memcpy(needle, &sentinel, 8);
    out.leaked |= machine.memory().unsafe_memory_contains(needle);
  }
  return out;
}

/// Both engines must observe the same outcome of one accepted program.
void expect_same_outcome(std::uint64_t seed, const PipelineOutcome& tree,
                         const PipelineOutcome& fused) {
  EXPECT_EQ(tree.result, fused.result) << "seed " << seed;
  EXPECT_EQ(tree.error, fused.error) << "seed " << seed;
  EXPECT_EQ(tree.instructions, fused.instructions) << "seed " << seed;
}

/// Sentinel non-interference and a clean run, checked on every engine's run.
void expect_safe(std::uint64_t seed, const PipelineOutcome& outcome, const char* engine) {
  EXPECT_TRUE(outcome.error.empty()) << "seed " << seed << " (" << engine
                                     << "): " << outcome.error;
  EXPECT_FALSE(outcome.leaked) << "seed " << seed << " (" << engine
                               << ") leaked a sentinel";
}

class PipelineProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PipelineProperty, AcceptedProgramsRunSafelyInRelaxedMode) {
  const std::uint64_t seed = GetParam();
  const PipelineOutcome first = run_pipeline(seed, Mode::kRelaxed);
  if (!first.accepted) return;
  expect_safe(seed, first, "fused");
  // Determinism.
  const PipelineOutcome second = run_pipeline(seed, Mode::kRelaxed);
  EXPECT_EQ(first.result, second.result) << "seed " << seed;
  const PipelineOutcome tree = run_pipeline(seed, Mode::kRelaxed, ExecMode::kTreeWalk);
  expect_safe(seed, tree, "treewalk");
  expect_same_outcome(seed, tree, first);
}

TEST_P(PipelineProperty, AcceptedProgramsRunSafelyInHardenedMode) {
  const std::uint64_t seed = GetParam();
  const PipelineOutcome outcome = run_pipeline(seed, Mode::kHardened);
  if (!outcome.accepted) return;
  expect_safe(seed, outcome, "fused");
  const PipelineOutcome tree = run_pipeline(seed, Mode::kHardened, ExecMode::kTreeWalk);
  expect_safe(seed, tree, "treewalk");
  expect_same_outcome(seed, tree, outcome);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineProperty, ::testing::Range<std::uint64_t>(0, 120));

TEST_P(PipelineProperty, PrinterParserRoundTripIsStable) {
  // print(parse(print(m))) == print(m): the textual format is canonical.
  ProgramGenerator gen(GetParam());
  auto module = gen.generate();
  const std::string text = ir::print_module(*module);
  auto reparsed = ir::parse_module(text);
  ASSERT_TRUE(reparsed.ok()) << "seed " << GetParam() << ": " << reparsed.message() << "\n"
                             << text;
  EXPECT_EQ(ir::print_module(*reparsed.value()), text) << "seed " << GetParam();
  EXPECT_TRUE(ir::verify_module(*reparsed.value()).empty());
}

namespace {

/// Brute-force dominance: a dominates b iff removing a makes b unreachable
/// from the entry (with a == b trivially true).
bool dominates_brute_force(const ir::Function& fn, const ir::BasicBlock* a,
                           const ir::BasicBlock* b) {
  if (a == b) return true;
  std::vector<const ir::BasicBlock*> work{fn.entry_block()};
  std::set<const ir::BasicBlock*> seen{fn.entry_block()};
  if (fn.entry_block() == a) return true;
  while (!work.empty()) {
    const ir::BasicBlock* bb = work.back();
    work.pop_back();
    if (bb == b) return false;  // reached b while avoiding a
    for (ir::BasicBlock* succ : bb->successors()) {
      if (succ != a && seen.insert(succ).second) work.push_back(succ);
    }
  }
  return true;  // b unreachable without a
}

}  // namespace

TEST_P(PipelineProperty, DominatorTreeMatchesBruteForce) {
  ProgramGenerator gen(GetParam());
  auto module = gen.generate();
  const ir::Function* fn = module->function_by_name("main");
  ASSERT_NE(fn, nullptr);
  ir::DominatorTree dom(*fn);
  const ir::Cfg& cfg = dom.cfg();
  for (const auto& a : fn->blocks()) {
    if (!cfg.is_reachable(a.get())) continue;
    for (const auto& b : fn->blocks()) {
      if (!cfg.is_reachable(b.get())) continue;
      EXPECT_EQ(dom.dominates(a.get(), b.get()),
                dominates_brute_force(*fn, a.get(), b.get()))
          << "seed " << GetParam() << ": %" << a->name() << " vs %" << b->name();
    }
  }
}

// Statistics guard: the generator must not be degenerate — a reasonable
// fraction of programs should be accepted in relaxed mode so the properties
// above actually exercise the pipeline.
TEST(PipelinePropertyMeta, GeneratorProducesAcceptablePrograms) {
  int accepted = 0;
  for (std::uint64_t seed = 0; seed < 120; ++seed) {
    accepted += run_pipeline(seed, Mode::kRelaxed).accepted ? 1 : 0;
  }
  EXPECT_GT(accepted, 12) << "generator acceptance rate collapsed";
}

}  // namespace
}  // namespace privagic
