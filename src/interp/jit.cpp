// x86-64 template emitter for the native tier (DESIGN.md §16; jit.hpp).
//
// One pre-defined fragment per fused opcode, stitched in op order into a
// flat buffer and published through the W^X CodeArena. The emitted code is
// position-independent (all intra-function branches are rel32, helper
// targets are absolute imm64), so emission happens into a plain vector and
// the bytes are memcpy'd into the executable mapping afterwards.
//
// Register convention inside a compiled function (SysV callee-saved):
//   rbx  NativeCtx*            (fixed)
//   r12  frame base            (reloaded from ctx after any helper call that
//                               can grow the arena — nested frames move it)
//   r13  pending instruction count (shadow of ctx->pending / the executor's
//                               batched counter; synced before any helper
//                               that can fault or flush)
//   rax/rcx/rdx/rsi/rdi/r10/r11  scratch
//
// Instruction-count bookkeeping mirrors the fused handlers exactly: the
// emitter tracks how many ops the current straight-line region has executed
// (`since_`) and materializes it into r13 at every point where the count can
// become observable — before a helper that can fault (including the current
// op's components charged exactly where fused_loop charges them), at every
// branch (followed by the same kCountFlushBatch budget check), at returns,
// and at deopt exits (excluding the unexecuted op, which the resumed
// interpreter will charge itself). Branch targets are sync points on entry,
// so every path reaching an op agrees on r13.
#include <cstddef>
#include <cstring>
#include <iomanip>
#include <sstream>

#include "interp/jit.hpp"
#include "obs/hooks.hpp"

#ifndef PRIVAGIC_JIT
#if defined(__x86_64__) && (defined(__unix__) || defined(__APPLE__))
#define PRIVAGIC_JIT 1
#else
#define PRIVAGIC_JIT 0
#endif
#endif

namespace privagic::interp::bc {

bool jit_available() { return PRIVAGIC_JIT != 0; }

#if PRIVAGIC_JIT

namespace {

// NativeCtx displacements baked into emitted code.
constexpr std::int32_t kOffFrame =
    static_cast<std::int32_t>(offsetof(NativeCtx, frame));
constexpr std::int32_t kOffPending =
    static_cast<std::int32_t>(offsetof(NativeCtx, pending));
constexpr std::int32_t kOffStatus =
    static_cast<std::int32_t>(offsetof(NativeCtx, status));
constexpr std::int32_t kOffDeoptPc =
    static_cast<std::int32_t>(offsetof(NativeCtx, deopt_pc));

enum Reg : int {
  RAX = 0, RCX = 1, RDX = 2, RBX = 3, RSP = 4, RBP = 5, RSI = 6, RDI = 7,
  R10 = 10, R11 = 11, R12 = 12, R13 = 13, R14 = 14, R15 = 15,
};

// setcc / jcc condition-code nibbles.
constexpr std::uint8_t kCcB = 0x2;   // unsigned below
constexpr std::uint8_t kCcE = 0x4;
constexpr std::uint8_t kCcNe = 0x5;
constexpr std::uint8_t kCcL = 0xC;
constexpr std::uint8_t kCcGe = 0xD;
constexpr std::uint8_t kCcLe = 0xE;
constexpr std::uint8_t kCcG = 0xF;

std::uint8_t cc_of(Op pred) {
  switch (pred) {
    case Op::kEq: return kCcE;
    case Op::kNe: return kCcNe;
    case Op::kSlt: return kCcL;
    case Op::kSle: return kCcLe;
    case Op::kSgt: return kCcG;
    case Op::kSge: return kCcGe;
    default: return kCcE;  // fusion only emits real predicates
  }
}

/// Minimal x86-64 encoder — exactly the instruction forms the fragments
/// need. Memory operands are always [base + disp32] (SIB emitted for
/// rsp/r12-encoded bases), so every fragment has a fixed shape.
class Asm {
 public:
  std::vector<std::uint8_t> buf;

  [[nodiscard]] std::uint32_t pos() const {
    return static_cast<std::uint32_t>(buf.size());
  }
  void u8(std::uint8_t b) { buf.push_back(b); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  void rex(bool w, int reg, int rm) {
    u8(static_cast<std::uint8_t>(0x40 | (w ? 8 : 0) | ((reg >> 3) << 2) | (rm >> 3)));
  }
  void modrm_reg(int reg, int rm) {
    u8(static_cast<std::uint8_t>(0xC0 | ((reg & 7) << 3) | (rm & 7)));
  }
  void modrm_mem(int reg, int base, std::int32_t disp) {
    if ((base & 7) == 4) {  // rsp/r12 encoding needs a SIB byte
      u8(static_cast<std::uint8_t>(0x84 | ((reg & 7) << 3)));
      u8(0x24);
    } else {
      u8(static_cast<std::uint8_t>(0x80 | ((reg & 7) << 3) | (base & 7)));
    }
    u32(static_cast<std::uint32_t>(disp));
  }

  void mov_r_m(int r, int base, std::int32_t disp) {
    rex(true, r, base); u8(0x8B); modrm_mem(r, base, disp);
  }
  void mov_m_r(int base, std::int32_t disp, int r) {
    rex(true, r, base); u8(0x89); modrm_mem(r, base, disp);
  }
  void mov_r_r(int dst, int src) { rex(true, src, dst); u8(0x89); modrm_reg(src, dst); }
  void mov_r_i64(int r, std::uint64_t v) {
    rex(true, 0, r); u8(static_cast<std::uint8_t>(0xB8 | (r & 7))); u64(v);
  }
  void mov_m32_i32(int base, std::int32_t disp, std::uint32_t v) {
    if (base >= 8) u8(0x41);
    u8(0xC7); modrm_mem(0, base, disp); u32(v);
  }

  void alu_r_r(std::uint8_t opc, int dst, int src) {
    rex(true, src, dst); u8(opc); modrm_reg(src, dst);
  }
  void add_r_r(int d, int s) { alu_r_r(0x01, d, s); }
  void sub_r_r(int d, int s) { alu_r_r(0x29, d, s); }
  void and_r_r(int d, int s) { alu_r_r(0x21, d, s); }
  void or_r_r(int d, int s) { alu_r_r(0x09, d, s); }
  void xor_r_r(int d, int s) { alu_r_r(0x31, d, s); }
  void imul_r_r(int dst, int src) {
    rex(true, dst, src); u8(0x0F); u8(0xAF); modrm_reg(dst, src);
  }
  void add_r_i32(int r, std::int32_t v) {
    rex(true, 0, r); u8(0x81); modrm_reg(0, r); u32(static_cast<std::uint32_t>(v));
  }
  void cmp_r_i32(int r, std::int32_t v) {
    rex(true, 0, r); u8(0x81); modrm_reg(7, r); u32(static_cast<std::uint32_t>(v));
  }
  void cmp_r_m(int r, int base, std::int32_t disp) {
    rex(true, r, base); u8(0x3B); modrm_mem(r, base, disp);
  }
  void cmp_m32_i8(int base, std::int32_t disp, std::int8_t v) {
    if (base >= 8) u8(0x41);
    u8(0x83); modrm_mem(7, base, disp); u8(static_cast<std::uint8_t>(v));
  }
  void test_m8_i8(int base, std::int32_t disp, std::uint8_t v) {
    if (base >= 8) u8(0x41);
    u8(0xF6); modrm_mem(0, base, disp); u8(v);
  }

  void shl_i(int r, unsigned n) { rex(true, 0, r); u8(0xC1); modrm_reg(4, r); u8(static_cast<std::uint8_t>(n)); }
  void sar_i(int r, unsigned n) { rex(true, 0, r); u8(0xC1); modrm_reg(7, r); u8(static_cast<std::uint8_t>(n)); }
  void shl_cl(int r) { rex(true, 0, r); u8(0xD3); modrm_reg(4, r); }
  void shr_cl(int r) { rex(true, 0, r); u8(0xD3); modrm_reg(5, r); }

  void setcc_al(std::uint8_t cc) { u8(0x0F); u8(static_cast<std::uint8_t>(0x90 | cc)); u8(0xC0); }
  void movzx_eax_al() { u8(0x0F); u8(0xB6); u8(0xC0); }
  void xchg_rax_rcx() { u8(0x48); u8(0x91); }

  // SSE2 scalar double, memory rhs: movsd 10/11, addsd 58, mulsd 59,
  // subsd 5C, divsd 5E.
  void sse_x_m(std::uint8_t opc, int xmm, int base, std::int32_t disp) {
    u8(0xF2);
    if (base >= 8) u8(0x41);
    u8(0x0F); u8(opc); modrm_mem(xmm, base, disp);
  }

  [[nodiscard]] std::uint32_t jcc(std::uint8_t cc) {
    u8(0x0F); u8(static_cast<std::uint8_t>(0x80 | cc)); u32(0);
    return pos() - 4;
  }
  [[nodiscard]] std::uint32_t jmp() {
    u8(0xE9); u32(0);
    return pos() - 4;
  }
  void patch(std::uint32_t at, std::uint32_t target) {
    const std::int32_t rel =
        static_cast<std::int32_t>(target) - static_cast<std::int32_t>(at + 4);
    std::memcpy(buf.data() + at, &rel, 4);
  }

  void call_r(int r) {
    if (r >= 8) u8(0x41);
    u8(0xFF); modrm_reg(2, r);
  }
  void push_r(int r) {
    if (r >= 8) u8(0x41);
    u8(static_cast<std::uint8_t>(0x50 | (r & 7)));
  }
  void pop_r(int r) {
    if (r >= 8) u8(0x41);
    u8(static_cast<std::uint8_t>(0x58 | (r & 7)));
  }
  void ret() { u8(0xC3); }
  void sub_rsp8() { u8(0x48); u8(0x83); u8(0xEC); u8(0x08); }
  void add_rsp8() { u8(0x48); u8(0x83); u8(0xC4); u8(0x08); }
};

/// Ops the template set does not cover; each compiles into a deopt exit
/// (the fused interpreter resumes at that op — see jit.hpp).
bool is_deopt_op(const DecodedOp& o) {
  switch (o.op) {
    case Op::kTrap:
    case Op::kSDiv:
    case Op::kSRem:
      return true;
    case Op::kLoad:
    case Op::kStore:
      return (o.flags & kAuthPointer) != 0;
    case Op::kBr:
      return (o.flags & kBadEdge0) != 0;
    case Op::kCondBr:
    case Op::kCmpBr:
      return (o.flags & (kBadEdge0 | kBadEdge1)) != 0;
    default:
      return false;
  }
}

class FragmentEmitter {
 public:
  explicit FragmentEmitter(const DecodedFunction& f) : f_(f) {}

  void emit(NativeCode& out) {
    const std::size_t n = f_.ops.size();
    out.op_offsets.resize(n);
    out.lowering.resize(n);

    std::vector<bool> is_target(n, false);
    for (const DecodedOp& o : f_.ops) {
      switch (o.op) {
        case Op::kBr:
        case Op::kBinBr:
          is_target[o.t0] = true;
          break;
        case Op::kCondBr:
        case Op::kCmpBr:
          is_target[o.t0] = true;
          is_target[o.t1] = true;
          break;
        default:
          break;
      }
    }

    prologue();
    for (std::uint32_t pc = 0; pc < n; ++pc) {
      // Every jump arrives with the count synced, so a fallthrough entry
      // into a branch target must sync too — all paths then agree on r13.
      if (since_ != 0 && is_target[pc]) sync(0);
      out.op_offsets[pc] = a_.pos();
      out.lowering[pc] = emit_op(pc, f_.ops[pc]);
    }
    epilogue();
    for (const OpFixup& fx : fixups_) a_.patch(fx.at, out.op_offsets[fx.target]);
    out.code_size = a_.buf.size();
  }

  [[nodiscard]] const std::vector<std::uint8_t>& code() const { return a_.buf; }

 private:
  struct OpFixup {
    std::uint32_t at;
    std::uint32_t target;
  };

  static std::int32_t slot(std::uint32_t s) { return static_cast<std::int32_t>(s) * 8; }

  void ld(int r, std::uint32_t s) { a_.mov_r_m(r, R12, slot(s)); }
  void st(std::uint32_t s, int r) { a_.mov_m_r(R12, slot(s), r); }

  /// Materializes since_ + @p extra pending ops into r13.
  void sync(std::uint32_t extra) {
    const std::uint32_t total = since_ + extra;
    if (total != 0) a_.add_r_i32(R13, static_cast<std::int32_t>(total));
    since_ = 0;
  }

  void prologue() {
    a_.push_r(RBP);
    a_.mov_r_r(RBP, RSP);
    a_.push_r(RBX);
    a_.push_r(R12);
    a_.push_r(R13);
    a_.push_r(R14);
    a_.push_r(R15);
    a_.sub_rsp8();  // 16-byte call alignment
    a_.mov_r_r(RBX, RDI);
    a_.mov_r_m(R12, RBX, kOffFrame);
    a_.mov_r_m(R13, RBX, kOffPending);
  }

  void epilogue() {
    exit_sync_ = a_.pos();
    a_.mov_m_r(RBX, kOffPending, R13);
    exit_nosync_ = a_.pos();
    a_.add_rsp8();
    a_.pop_r(R15);
    a_.pop_r(R14);
    a_.pop_r(R13);
    a_.pop_r(R12);
    a_.pop_r(RBX);
    a_.pop_r(RBP);
    a_.ret();
    for (const std::uint32_t at : to_exit_sync_) a_.patch(at, exit_sync_);
    for (const std::uint32_t at : to_exit_nosync_) a_.patch(at, exit_nosync_);
  }

  /// Call into a helper thunk: r13 must already be synced (components
  /// included); args in rsi/rdx/rcx set by the caller before this.
  void call_helper(const void* fn) {
    a_.mov_m_r(RBX, kOffPending, R13);
    a_.mov_r_r(RDI, RBX);
    a_.mov_r_i64(RAX, reinterpret_cast<std::uint64_t>(fn));
    a_.call_r(RAX);
  }

  /// Fault check + register refresh after a helper that can fault. On fault
  /// the helper has already written back ctx->pending, so the exit skips the
  /// r13 store.
  void helper_aftermath() {
    a_.cmp_m32_i8(RBX, kOffStatus, 0);
    to_exit_nosync_.push_back(a_.jcc(kCcNe));
    a_.mov_r_m(R13, RBX, kOffPending);
    a_.mov_r_m(R12, RBX, kOffFrame);
  }

  /// eval_bin with lhs in rax, rhs in rcx (shift counts per hardware cl
  /// masking, which matches the handlers' `& 63`), result in rax.
  void emit_bin(Op kind, unsigned bits) {
    switch (kind) {
      case Op::kAdd: a_.add_r_r(RAX, RCX); emit_wrap(bits); break;
      case Op::kSub: a_.sub_r_r(RAX, RCX); emit_wrap(bits); break;
      case Op::kMul: a_.imul_r_r(RAX, RCX); emit_wrap(bits); break;
      case Op::kAnd: a_.and_r_r(RAX, RCX); break;
      case Op::kOr: a_.or_r_r(RAX, RCX); break;
      case Op::kXor: a_.xor_r_r(RAX, RCX); break;
      case Op::kShl: a_.shl_cl(RAX); emit_wrap(bits); break;
      case Op::kLShr:
        if (bits != 0 && bits < 64) {
          a_.mov_r_i64(R10, (1ull << bits) - 1);
          a_.and_r_r(RAX, R10);
        }
        a_.shr_cl(RAX);
        break;
      case Op::kZext:
        a_.mov_r_i64(R10, bits < 64 ? (1ull << bits) - 1 : ~0ull);
        a_.and_r_r(RAX, R10);
        break;
      case Op::kTrunc:
        if (bits != 0 && bits < 64) {
          a_.shl_i(RAX, 64 - bits);
          a_.sar_i(RAX, 64 - bits);
        }
        break;
      case Op::kCopy:
      default:
        break;  // eval_bin's default: the lhs unchanged
    }
  }

  void emit_wrap(unsigned bits) {
    if (bits != 0 && bits < 64) {
      a_.shl_i(RAX, 64 - bits);
      a_.sar_i(RAX, 64 - bits);
    }
  }

  /// addr of [frame[a] + imm] into @p dst.
  void emit_gep_field_addr(int dst, const DecodedOp& o) {
    ld(dst, o.a);
    a_.mov_r_i64(R10, static_cast<std::uint64_t>(o.imm));
    a_.add_r_r(dst, R10);
  }

  /// addr of [frame[a] + imm * frame[b]] into @p dst (clobbers r10/r11).
  void emit_gep_index_addr(int dst, const DecodedOp& o) {
    ld(dst, o.a);
    ld(R10, o.b);
    a_.mov_r_i64(R11, static_cast<std::uint64_t>(o.imm));
    a_.imul_r_r(R10, R11);
    a_.add_r_r(dst, R10);
  }

  void emit_phis(std::uint32_t first, std::uint16_t count) {
    if (count == 0) return;
    const PhiCopy* c = f_.phi_pool.data() + first;
    if (count == 1) {
      ld(RAX, c[0].src);
      st(c[0].dst, RAX);
    } else if (count == 2) {
      // Parallel move: both sources read before either destination writes.
      ld(RAX, c[0].src);
      ld(RCX, c[1].src);
      st(c[0].dst, RAX);
      st(c[1].dst, RCX);
    } else {
      // The helper runs apply_phi_copies; it cannot fault and touches
      // neither the counter nor the arena.
      a_.mov_r_i64(RSI, first);
      a_.mov_r_i64(RDX, count);
      call_helper(reinterpret_cast<const void*>(&NativeHelpers::phi));
    }
  }

  /// The interpreter's branch-site budget check: flush when the batched
  /// count crossed kCountFlushBatch (the flush itself can fault on budget
  /// exhaustion). r13 must be synced.
  void emit_flush_check() {
    a_.cmp_r_i32(R13, static_cast<std::int32_t>(kCountFlushBatch));
    const std::uint32_t skip = a_.jcc(kCcB);
    call_helper(reinterpret_cast<const void*>(&NativeHelpers::flush));
    a_.cmp_m32_i8(RBX, kOffStatus, 0);
    to_exit_nosync_.push_back(a_.jcc(kCcNe));
    a_.mov_r_m(R13, RBX, kOffPending);
    a_.patch(skip, a_.pos());
  }

  void emit_branch_edge(std::uint32_t phi_first, std::uint16_t nphi, std::uint32_t target) {
    emit_phis(phi_first, nphi);
    emit_flush_check();
    fixups_.push_back(OpFixup{a_.jmp(), target});
  }

  void emit_deopt(std::uint32_t pc) {
    sync(0);  // the unexecuted op is NOT counted — the interpreter will
    a_.mov_m32_i32(RBX, kOffStatus, 1);
    a_.mov_m32_i32(RBX, kOffDeoptPc, pc);
    to_exit_sync_.push_back(a_.jmp());
  }

  NativeLowering emit_op(std::uint32_t pc, const DecodedOp& o) {
    if (is_deopt_op(o)) {
      emit_deopt(pc);
      return NativeLowering::kDeopt;
    }
    switch (o.op) {
      // -- pure frame ops: inline ------------------------------------------
      case Op::kGepField:
        emit_gep_field_addr(RAX, o);
        st(o.dest, RAX);
        ++since_;
        return NativeLowering::kInline;
      case Op::kGepIndex:
        emit_gep_index_addr(RAX, o);
        st(o.dest, RAX);
        ++since_;
        return NativeLowering::kInline;
      case Op::kAdd:
      case Op::kSub:
      case Op::kMul:
      case Op::kAnd:
      case Op::kOr:
      case Op::kXor:
      case Op::kShl:
      case Op::kLShr:
        ld(RAX, o.a);
        ld(RCX, o.b);
        emit_bin(o.op, o.sub);
        st(o.dest, RAX);
        ++since_;
        return NativeLowering::kInline;
      case Op::kFAdd:
      case Op::kFSub:
      case Op::kFMul:
      case Op::kFDiv: {
        const std::uint8_t opc = o.op == Op::kFAdd   ? 0x58
                                 : o.op == Op::kFSub ? 0x5C
                                 : o.op == Op::kFMul ? 0x59
                                                     : 0x5E;
        a_.sse_x_m(0x10, 0, R12, slot(o.a));  // movsd xmm0, [frame+a]
        a_.sse_x_m(opc, 0, R12, slot(o.b));
        a_.sse_x_m(0x11, 0, R12, slot(o.dest));
        ++since_;
        return NativeLowering::kInline;
      }
      case Op::kEq:
      case Op::kNe:
      case Op::kSlt:
      case Op::kSle:
      case Op::kSgt:
      case Op::kSge:
        ld(RAX, o.a);
        a_.cmp_r_m(RAX, R12, slot(o.b));
        a_.setcc_al(cc_of(o.op));
        a_.movzx_eax_al();
        st(o.dest, RAX);
        ++since_;
        return NativeLowering::kInline;
      case Op::kZext:
      case Op::kTrunc:
      case Op::kCopy:
        ld(RAX, o.a);
        emit_bin(o.op, o.sub);
        st(o.dest, RAX);
        ++since_;
        return NativeLowering::kInline;

      // -- memory ops: helper thunks (SimMemory checks stay live) ----------
      case Op::kLoad:
        ld(RSI, o.a);
        a_.mov_r_i64(RDX, static_cast<std::uint64_t>(o.imm));
        a_.mov_r_i64(RCX, o.sub);
        sync(1);
        call_helper(reinterpret_cast<const void*>(&NativeHelpers::load));
        helper_aftermath();
        st(o.dest, RAX);
        return NativeLowering::kHelper;
      case Op::kStore:
        ld(RSI, o.a);
        ld(RDX, o.b);
        a_.mov_r_i64(RCX, static_cast<std::uint64_t>(o.imm));
        sync(1);
        call_helper(reinterpret_cast<const void*>(&NativeHelpers::store));
        helper_aftermath();
        return NativeLowering::kHelper;
      case Op::kGepFieldLoad:
        emit_gep_field_addr(RSI, o);
        a_.mov_r_i64(RDX, o.sub2);
        a_.mov_r_i64(RCX, o.sub);
        sync(2);  // gep + load components, both charged before a fault
        call_helper(reinterpret_cast<const void*>(&NativeHelpers::load));
        helper_aftermath();
        st(o.dest, RAX);
        return NativeLowering::kHelper;
      case Op::kGepIndexLoad:
        emit_gep_index_addr(RSI, o);
        a_.mov_r_i64(RDX, o.sub2);
        a_.mov_r_i64(RCX, o.sub);
        sync(2);
        call_helper(reinterpret_cast<const void*>(&NativeHelpers::load));
        helper_aftermath();
        st(o.dest, RAX);
        return NativeLowering::kHelper;
      case Op::kGepFieldStore:
        emit_gep_field_addr(RSI, o);
        ld(RDX, o.b);
        a_.mov_r_i64(RCX, o.sub2);
        sync(2);
        call_helper(reinterpret_cast<const void*>(&NativeHelpers::store));
        helper_aftermath();
        return NativeLowering::kHelper;
      case Op::kGepIndexStore:
        emit_gep_index_addr(RSI, o);
        ld(RDX, o.dest);
        a_.mov_r_i64(RCX, o.sub2);
        sync(2);
        call_helper(reinterpret_cast<const void*>(&NativeHelpers::store));
        helper_aftermath();
        return NativeLowering::kHelper;
      case Op::kLoadBin:
        ld(RSI, o.a);
        a_.mov_r_i64(RDX, static_cast<std::uint64_t>(o.imm));
        a_.mov_r_i64(RCX, o.sub);
        sync(1);  // the load component only; a fault must not count the bin
        call_helper(reinterpret_cast<const void*>(&NativeHelpers::load));
        helper_aftermath();
        ++since_;  // the bin component, charged after the load survived
        ld(RCX, o.b);
        if ((o.flags & kFusedSwap) != 0) a_.xchg_rax_rcx();
        emit_bin(static_cast<Op>(o.sub2), static_cast<unsigned>(o.aux));
        st(o.dest, RAX);
        return NativeLowering::kHelper;
      case Op::kBinStore:
        ld(RAX, o.a);
        ld(RCX, o.b);
        emit_bin(static_cast<Op>(o.aux), o.sub);
        a_.mov_r_r(RDX, RAX);
        ld(RSI, o.dest);
        a_.mov_r_i64(RCX, o.sub2);
        sync(2);
        call_helper(reinterpret_cast<const void*>(&NativeHelpers::store));
        helper_aftermath();
        return NativeLowering::kHelper;

      // -- allocation / call / mailbox ops: one generic helper -------------
      case Op::kAlloca:
      case Op::kHeapAlloc:
      case Op::kHeapFree:
      case Op::kSpawn:
      case Op::kCont:
      case Op::kWait:
      case Op::kAck:
      case Op::kWaitAck:
      case Op::kCallInternal:
      case Op::kCallExternal:
      case Op::kCallIndirect:
        a_.mov_r_i64(RSI, pc);
        sync(1);
        call_helper(reinterpret_cast<const void*>(&NativeHelpers::big_op));
        helper_aftermath();
        return NativeLowering::kHelper;

      // -- control flow: inline, with the interpreter's flush sites --------
      case Op::kBr:
        sync(1);
        emit_branch_edge(o.phi0, o.nphi0, o.t0);
        return NativeLowering::kInline;
      case Op::kCondBr: {
        sync(1);
        a_.test_m8_i8(R12, slot(o.a), 1);
        const std::uint32_t to_then = a_.jcc(kCcNe);
        emit_branch_edge(o.phi1, o.nphi1, o.t1);
        a_.patch(to_then, a_.pos());
        emit_branch_edge(o.phi0, o.nphi0, o.t0);
        return NativeLowering::kInline;
      }
      case Op::kCmpBr: {
        sync(2);
        ld(RAX, o.a);
        a_.cmp_r_m(RAX, R12, slot(o.b));
        const std::uint32_t to_then = a_.jcc(cc_of(static_cast<Op>(o.sub2)));
        emit_branch_edge(o.phi1, o.nphi1, o.t1);
        a_.patch(to_then, a_.pos());
        emit_branch_edge(o.phi0, o.nphi0, o.t0);
        return NativeLowering::kInline;
      }
      case Op::kBinBr:
        ld(RAX, o.a);
        ld(RCX, o.b);
        emit_bin(static_cast<Op>(o.sub2), o.sub);
        st(o.dest, RAX);  // stays materialized: phis and later blocks read it
        sync(2);
        emit_branch_edge(o.phi0, o.nphi0, o.t0);
        return NativeLowering::kInline;
      case Op::kBinBin:
        ld(RAX, o.a);
        ld(RCX, o.b);
        emit_bin(static_cast<Op>(o.sub2), o.sub);
        ld(RCX, static_cast<std::uint32_t>(o.imm));
        if ((o.flags & kFusedSwap) != 0) a_.xchg_rax_rcx();
        emit_bin(static_cast<Op>(o.aux & 0xFF), static_cast<unsigned>(o.aux >> 8));
        st(o.dest, RAX);
        since_ += 2;
        return NativeLowering::kInline;
      case Op::kRet:
        sync(1);
        if ((o.flags & kHasResult) != 0) {
          ld(RAX, o.a);
        } else {
          a_.xor_r_r(RAX, RAX);
        }
        to_exit_sync_.push_back(a_.jmp());
        return NativeLowering::kInline;
      case Op::kBinRet:
        ld(RAX, o.a);
        ld(RCX, o.b);
        emit_bin(static_cast<Op>(o.sub2), o.sub);
        sync(2);
        to_exit_sync_.push_back(a_.jmp());
        return NativeLowering::kInline;

      default:
        // kTrap/kSDiv/kSRem handled by is_deopt_op; anything new deopts too.
        emit_deopt(pc);
        return NativeLowering::kDeopt;
    }
  }

  const DecodedFunction& f_;
  Asm a_;
  std::vector<OpFixup> fixups_;
  std::vector<std::uint32_t> to_exit_sync_;
  std::vector<std::uint32_t> to_exit_nosync_;
  std::uint32_t exit_sync_ = 0;
  std::uint32_t exit_nosync_ = 0;
  std::uint32_t since_ = 0;
};

}  // namespace

const NativeCode* JitEngine::compile(const DecodedFunction* f) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (const NativeCode* nc = f->native_code.load(std::memory_order_acquire)) {
    return nc;  // another thread won the race
  }
  if (disabled_) return nullptr;
  auto unit = std::make_unique<NativeCode>();
  FragmentEmitter em(*f);
  em.emit(*unit);
  const void* base = em.code().empty()
                         ? nullptr
                         : arena_.publish(em.code().data(), em.code().size());
  if (base == nullptr) {
    // The host refused an executable mapping; every chunk stays on the
    // interpreter tiers (same observable behavior, no retry storm).
    disabled_ = true;
    return nullptr;
  }
  unit->code = base;
  unit->entry = reinterpret_cast<NativeCode::EntryFn>(
      reinterpret_cast<std::uintptr_t>(base));
  compiles_.fetch_add(1, std::memory_order_relaxed);
  obs::on_jit_compile();
  const NativeCode* out = unit.get();
  units_.push_back(std::move(unit));
  f->native_code.store(out, std::memory_order_release);
  return out;
}

#else  // !PRIVAGIC_JIT — the native tier degrades to kFused everywhere.

const NativeCode* JitEngine::compile(const DecodedFunction*) { return nullptr; }

#endif  // PRIVAGIC_JIT

std::string disassemble_native(const DecodedFunction& df, const NativeCode& nc) {
  std::ostringstream os;
  os << "  ; native: " << nc.code_size << " bytes for " << df.ops.size()
     << " fused ops\n";
  for (std::size_t i = 0; i < nc.op_offsets.size(); ++i) {
    const char* kind = nc.lowering[i] == NativeLowering::kInline   ? "inline"
                       : nc.lowering[i] == NativeLowering::kHelper ? "helper"
                                                                   : "deopt";
    os << "  ; native +0x" << std::hex << std::setw(4) << std::setfill('0')
       << nc.op_offsets[i] << std::dec << std::setfill(' ') << "  #" << i << " "
       << op_name(df.ops[i].op) << " [" << kind << "]\n";
  }
  return os.str();
}

}  // namespace privagic::interp::bc
