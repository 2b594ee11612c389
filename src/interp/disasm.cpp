#include "interp/disasm.hpp"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <stdexcept>

#include "interp/bytecode.hpp"
#include "interp/machine.hpp"
#include "ir/module.hpp"

namespace privagic::interp::bc {

namespace {

void appendf(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  out += buf;
}

void append_slot(std::string& out, const char* label, std::uint32_t slot) {
  appendf(out, " %s=%%%u", label, slot);
}

void append_edge(std::string& out, const DecodedFunction& df, const DecodedOp& o,
                 bool then_edge) {
  const std::uint32_t target = then_edge ? o.t0 : o.t1;
  const std::uint32_t phi = then_edge ? o.phi0 : o.phi1;
  const std::uint16_t nphi = then_edge ? o.nphi0 : o.nphi1;
  const std::uint16_t bad = then_edge ? kBadEdge0 : kBadEdge1;
  if ((o.flags & bad) != 0) {
    appendf(out, " ->#%u(trap:%s)", target, df.traps[phi].c_str());
    return;
  }
  appendf(out, " ->#%u", target);
  if (nphi != 0) {
    out += "[";
    for (std::uint16_t i = 0; i < nphi; ++i) {
      const PhiCopy& c = df.phi_pool[phi + i];
      appendf(out, "%s%%%u<-%%%u", i == 0 ? "" : " ", c.dst, c.src);
    }
    out += "]";
  }
}

void append_args(std::string& out, const DecodedFunction& df, const DecodedOp& o) {
  out += " (";
  for (std::uint16_t i = 0; i < o.nargs; ++i) {
    appendf(out, "%s%%%u", i == 0 ? "" : ", ", df.arg_pool[o.args_first + i]);
  }
  out += ")";
}

void append_op(std::string& out, const DecodedFunction& df, std::uint32_t index) {
  const DecodedOp& o = df.ops[index];
  appendf(out, "  %4u: %-16s", index, op_name(o.op));
  switch (o.op) {
    case Op::kTrap:
      appendf(out, " \"%s\"%s", df.traps[static_cast<std::size_t>(o.imm)].c_str(),
              o.a == 0 ? " (uncounted)" : "");
      break;
    case Op::kAlloca:
    case Op::kHeapAlloc:
      append_slot(out, "dest", o.dest);
      appendf(out, " bytes=%" PRId64 " color=%u", o.imm, o.b);
      break;
    case Op::kHeapFree:
      append_slot(out, "ptr", o.a);
      break;
    case Op::kLoad:
      append_slot(out, "dest", o.dest);
      append_slot(out, "ptr", o.a);
      appendf(out, " size=%" PRId64 " sx=%u", o.imm, o.sub);
      if ((o.flags & kAuthPointer) != 0) out += " auth";
      break;
    case Op::kStore:
      append_slot(out, "ptr", o.a);
      append_slot(out, "value", o.b);
      appendf(out, " size=%" PRId64, o.imm);
      if ((o.flags & kAuthPointer) != 0) out += " auth";
      break;
    case Op::kGepField:
      append_slot(out, "dest", o.dest);
      append_slot(out, "base", o.a);
      appendf(out, " offset=%" PRId64, o.imm);
      break;
    case Op::kGepIndex:
      append_slot(out, "dest", o.dest);
      append_slot(out, "base", o.a);
      append_slot(out, "index", o.b);
      appendf(out, " elem=%" PRId64, o.imm);
      break;
    case Op::kZext:
    case Op::kTrunc:
      append_slot(out, "dest", o.dest);
      append_slot(out, "src", o.a);
      appendf(out, " bits=%u", o.sub);
      break;
    case Op::kCopy:
      append_slot(out, "dest", o.dest);
      append_slot(out, "src", o.a);
      break;
    case Op::kSpawn:
    case Op::kCont:
    case Op::kWait:
    case Op::kAck:
    case Op::kWaitAck:
      append_args(out, df, o);
      if (o.op == Op::kSpawn && (o.flags & kSpawnResolved) != 0) {
        appendf(out, " color=%" PRId64, o.imm);
      }
      break;
    case Op::kCallInternal: {
      const auto* callee = static_cast<const DecodedFunction*>(o.target);
      appendf(out, " @%s", callee != nullptr ? callee->fn->name().c_str() : "?");
      append_args(out, df, o);
      if ((o.flags & kHasResult) != 0) append_slot(out, "dest", o.dest);
      break;
    }
    case Op::kCallExternal: {
      const auto* callee = static_cast<const ir::Function*>(o.target);
      appendf(out, " @%s", callee != nullptr ? callee->name().c_str() : "?");
      append_args(out, df, o);
      if ((o.flags & kHasResult) != 0) append_slot(out, "dest", o.dest);
      break;
    }
    case Op::kCallIndirect:
      append_slot(out, "fn", o.a);
      append_args(out, df, o);
      if ((o.flags & kHasResult) != 0) append_slot(out, "dest", o.dest);
      break;
    case Op::kBr:
      append_edge(out, df, o, /*then_edge=*/true);
      break;
    case Op::kCondBr:
      append_slot(out, "cond", o.a);
      append_edge(out, df, o, /*then_edge=*/true);
      append_edge(out, df, o, /*then_edge=*/false);
      break;
    case Op::kRet:
      if ((o.flags & kHasResult) != 0) append_slot(out, "value", o.a);
      break;
    // -- superinstructions --------------------------------------------------
    case Op::kCmpBr:
      appendf(out, " pred=%s", op_name(static_cast<Op>(o.sub2)));
      append_slot(out, "lhs", o.a);
      append_slot(out, "rhs", o.b);
      append_edge(out, df, o, /*then_edge=*/true);
      append_edge(out, df, o, /*then_edge=*/false);
      break;
    case Op::kGepFieldLoad:
      append_slot(out, "dest", o.dest);
      append_slot(out, "base", o.a);
      appendf(out, " offset=%" PRId64 " size=%u sx=%u", o.imm, o.sub2, o.sub);
      break;
    case Op::kGepIndexLoad:
      append_slot(out, "dest", o.dest);
      append_slot(out, "base", o.a);
      append_slot(out, "index", o.b);
      appendf(out, " elem=%" PRId64 " size=%u sx=%u", o.imm, o.sub2, o.sub);
      break;
    case Op::kGepFieldStore:
      append_slot(out, "base", o.a);
      append_slot(out, "value", o.b);
      appendf(out, " offset=%" PRId64 " size=%u", o.imm, o.sub2);
      break;
    case Op::kGepIndexStore:
      append_slot(out, "base", o.a);
      append_slot(out, "index", o.b);
      append_slot(out, "value", o.dest);
      appendf(out, " elem=%" PRId64 " size=%u", o.imm, o.sub2);
      break;
    case Op::kLoadBin:
      append_slot(out, "dest", o.dest);
      appendf(out, " kind=%s", op_name(static_cast<Op>(o.sub2)));
      append_slot(out, "ptr", o.a);
      append_slot(out, "other", o.b);
      appendf(out, " size=%" PRId64 " sx=%u wrap=%u%s", o.imm, o.sub, o.aux,
              (o.flags & kFusedSwap) != 0 ? " swapped" : "");
      break;
    case Op::kBinStore:
      appendf(out, " kind=%s", op_name(static_cast<Op>(o.aux)));
      append_slot(out, "lhs", o.a);
      append_slot(out, "rhs", o.b);
      append_slot(out, "ptr", o.dest);
      appendf(out, " wrap=%u size=%u", o.sub, o.sub2);
      break;
    case Op::kBinBr:
      append_slot(out, "dest", o.dest);
      appendf(out, " kind=%s", op_name(static_cast<Op>(o.sub2)));
      append_slot(out, "lhs", o.a);
      append_slot(out, "rhs", o.b);
      if (o.sub != 0) appendf(out, " wrap=%u", o.sub);
      append_edge(out, df, o, /*then_edge=*/true);
      break;
    case Op::kBinRet:
      appendf(out, " kind=%s", op_name(static_cast<Op>(o.sub2)));
      append_slot(out, "lhs", o.a);
      append_slot(out, "rhs", o.b);
      if (o.sub != 0) appendf(out, " wrap=%u", o.sub);
      break;
    case Op::kBinBin:
      append_slot(out, "dest", o.dest);
      appendf(out, " kind1=%s", op_name(static_cast<Op>(o.sub2)));
      append_slot(out, "lhs", o.a);
      append_slot(out, "rhs", o.b);
      appendf(out, " wrap1=%u kind2=%s", o.sub, op_name(static_cast<Op>(o.aux & 0xFF)));
      appendf(out, " other=%%%u wrap2=%u%s", static_cast<std::uint32_t>(o.imm),
              static_cast<unsigned>(o.aux >> 8),
              (o.flags & kFusedSwap) != 0 ? " swapped" : "");
      break;
    default:  // plain binops / cmps
      append_slot(out, "dest", o.dest);
      append_slot(out, "lhs", o.a);
      append_slot(out, "rhs", o.b);
      if (o.sub != 0) appendf(out, " wrap=%u", o.sub);
      break;
  }
  // Fusion provenance: which pre-fusion ops this line came from.
  if (!df.origin.empty()) {
    const std::uint32_t first = df.origin[index];
    if (o.op >= kFirstFusedOp) {
      appendf(out, "   ; <- #%u+#%u", first, first + 1);
    } else if (first != index) {
      appendf(out, "   ; <- #%u", first);
    }
  }
  out += "\n";
}

}  // namespace

std::string disassemble(const DecodedFunction& df) {
  std::string out;
  std::size_t fused_count = 0;
  for (const DecodedOp& o : df.ops) {
    if (o.op >= kFirstFusedOp) ++fused_count;
  }
  appendf(out, "@%s: args=%u slots=%u consts=%zu ops=%zu",
          df.fn != nullptr ? df.fn->name().c_str() : "?", df.num_args, df.num_slots,
          df.const_pool.size(), df.ops.size());
  if (!df.origin.empty()) {
    appendf(out, " fused=%zu (from %u)", fused_count,
            df.origin.empty() ? 0 : df.origin.back() + 1 +
                (df.ops.back().op >= kFirstFusedOp ? 1 : 0));
  }
  out += "\n";
  for (std::uint32_t i = 0; i < df.ops.size(); ++i) append_op(out, df, i);
  return out;
}

std::string disassemble_program(const Machine& machine) {
  const ProgramCode* code = machine.program_code();
  if (code == nullptr) {
    throw std::runtime_error("no bytecode to disassemble (tree-walk machine)");
  }
  return disassemble_program(*code);
}

std::string disassemble_program(const ProgramCode& code) {
  std::string out;
  for (const auto& [fn, df] : code.functions()) {
    (void)fn;
    out += disassemble(*df);
    out += "\n";
  }
  return out;
}

}  // namespace privagic::interp::bc
