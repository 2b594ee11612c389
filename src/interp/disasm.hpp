// Textual listings of the register bytecode, plain-decoded or fused
// (`privagicc --dump-bytecode[=fused]`). One line per DecodedOp: index,
// mnemonic, the operand fields that op actually reads, and — in fused
// listings — the fusion provenance (`<- #i+#j`: the pre-fusion op indices a
// superinstruction replaced). Debugging aid for fusion decisions; nothing
// executes through this.
#pragma once

#include <string>

namespace privagic::interp {
class Machine;
}

namespace privagic::interp::bc {

struct DecodedFunction;
class ProgramCode;

/// One function's listing.
[[nodiscard]] std::string disassemble(const DecodedFunction& df);

/// Every decoded body of @p code, in function-pointer order.
[[nodiscard]] std::string disassemble_program(const ProgramCode& code);

/// Every body of @p machine's (fused) program. Throws if the machine runs
/// the tree-walker (no bytecode to print).
[[nodiscard]] std::string disassemble_program(const Machine& machine);

}  // namespace privagic::interp::bc
