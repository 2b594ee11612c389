// Generated call trees with colored internal functions (tests/call_tree.hpp)
// on both engines: the tree-walker and fused must each return the host
// evaluator's value, and the fused engine must charge exactly the
// tree-walker's instruction count.
//
// These programs nest cross-color calls deeply: an enclave worker waiting
// for a reply serves the spawns that arrive meanwhile, on the same thread
// and the same bytecode stack arena. The seeds below are ones on which the
// bytecode tiers once returned wrong values, because a frame pointer held
// across wait/wait_ack went stale when that arena moved.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>

#include "call_tree.hpp"
#include "interp/machine.hpp"
#include "ir/parser.hpp"
#include "partition/partitioner.hpp"

namespace privagic {
namespace {

using interp::ExecMode;

struct Case {
  std::size_t functions;
  std::uint64_t seed;
};

void PrintTo(const Case& c, std::ostream* os) {
  *os << c.functions << " fns, seed " << c.seed;
}

class CallTreeTest : public ::testing::TestWithParam<Case> {};

TEST_P(CallTreeTest, EveryEngineMatchesHostEvaluator) {
  const testing::CallTree tree = testing::generate_call_tree(GetParam().functions,
                                                             GetParam().seed);
  auto parsed = ir::parse_module(tree.source);
  ASSERT_TRUE(parsed.ok()) << parsed.message();
  const std::unique_ptr<ir::Module> module = std::move(parsed).value();
  sectype::TypeAnalysis analysis(*module, sectype::Mode::kRelaxed);
  ASSERT_TRUE(analysis.run()) << analysis.diagnostics().to_string();
  auto partitioned = partition::partition_module(analysis);
  ASSERT_TRUE(partitioned.ok()) << partitioned.message();

  std::uint64_t tree_instructions = 0;
  for (const ExecMode mode : {ExecMode::kTreeWalk, ExecMode::kFused}) {
    SCOPED_TRACE(mode == ExecMode::kTreeWalk ? "treewalk" : "fused");
    interp::Machine m(*partitioned.value(), /*epc_limit_bytes=*/0, mode);
    auto r = m.call("f0", {tree.arg});
    ASSERT_TRUE(r.ok()) << r.message();
    EXPECT_EQ(r.value(), tree.expected);
    const std::uint64_t instructions = m.instructions_executed();
    if (mode == ExecMode::kTreeWalk) {
      tree_instructions = instructions;
    } else {
      EXPECT_EQ(instructions, tree_instructions);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeded, CallTreeTest,
    ::testing::Values(Case{250, 6}, Case{300, 1}, Case{300, 5}, Case{400, 1},
                      Case{500, 1}, Case{500, 2}, Case{750, 1}, Case{1000, 1}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return std::to_string(info.param.functions) + "fns_seed" +
             std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace privagic
