#include "interp/bytecode.hpp"

#include <cstring>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "interp/dispatch_stats.hpp"
#include "interp/exec_common.hpp"
#include "interp/jit.hpp"
#include "interp/machine.hpp"
#include "ir/module.hpp"
#include "obs/hooks.hpp"
#include "partition/intrinsics.hpp"
#include "support/rng.hpp"

namespace privagic::interp::bc {

const char* op_name(Op op) {
  static constexpr const char* kNames[kNumOps] = {
      "trap",
      "alloca", "heap_alloc", "heap_free", "load", "store", "gep_field", "gep_index",
      "add", "sub", "mul", "sdiv", "srem", "and", "or", "xor", "shl", "lshr",
      "fadd", "fsub", "fmul", "fdiv",
      "eq", "ne", "slt", "sle", "sgt", "sge",
      "zext", "trunc", "copy",
      "spawn", "cont", "wait", "ack", "wait_ack",
      "call", "call_ext", "call_ind",
      "br", "cond_br", "ret",
      "cmp_br",
      "gep_field_load", "gep_index_load", "gep_field_store", "gep_index_store",
      "load_bin", "bin_store", "bin_bin", "bin_br", "bin_ret",
  };
  const auto i = static_cast<std::size_t>(op);
  return i < kNumOps ? kNames[i] : "?";
}

namespace {

/// True for ptr<T color(c)> with a named enclave color (see machine.cpp).
bool is_authenticated_pointer_type(const ir::Type* t) {
  const auto* pt = dynamic_cast<const ir::PtrType*>(t);
  return pt != nullptr && !pt->pointee_color().empty() && pt->pointee_color() != "U" &&
         pt->pointee_color() != "S";
}

/// Wrap bits for an integer-typed result: 0 = no wrapping needed.
std::uint8_t wrap_bits(const ir::Type* t) {
  if (!t->is_int()) return 0;
  const unsigned bits = static_cast<const ir::IntType*>(t)->bits();
  return bits < 64 ? static_cast<std::uint8_t>(bits) : 0;
}

}  // namespace

// ---------------------------------------------------------------------------
// Decoder: one ir::Function → one DecodedFunction. Declared (and befriended)
// in machine.hpp so it can read the machine's resolved address space; defined
// only in this translation unit.
// ---------------------------------------------------------------------------

class Decoder {
 public:
  Decoder(Machine& m, const ProgramCode& code) : m_(m), code_(code) {}

  void decode(const ir::Function* fn, DecodedFunction& df);

 private:
  /// Thrown while lowering one instruction; the instruction becomes a kTrap
  /// carrying the tree-walker's message, thrown if it is ever executed.
  struct DecodeFail {
    std::string message;
  };

  std::uint32_t add_trap(std::string message) {
    df_->traps.push_back(std::move(message));
    return static_cast<std::uint32_t>(df_->traps.size() - 1);
  }

  DecodedOp trap_op(std::string message, bool counted) {
    DecodedOp op;
    op.op = Op::kTrap;
    op.a = counted ? 1 : 0;
    op.imm = static_cast<std::int64_t>(add_trap(std::move(message)));
    return op;
  }

  /// Frame slot holding constant @p v (deduped by bit pattern).
  std::uint32_t const_slot(std::int64_t v) {
    auto [it, fresh] = const_slot_.try_emplace(
        v, first_const_ + static_cast<std::uint32_t>(df_->const_pool.size()));
    if (fresh) df_->const_pool.push_back(v);
    return it->second;
  }

  /// The frame slot an operand reads from. Resolution failures carry the
  /// exact message the tree-walker's eval() would throw.
  std::uint32_t slot_of(const ir::Value* v) {
    switch (v->value_kind()) {
      case ir::ValueKind::kConstInt:
        return const_slot(static_cast<const ir::ConstInt*>(v)->value());
      case ir::ValueKind::kConstFloat:
        return const_slot(from_double(static_cast<const ir::ConstFloat*>(v)->value()));
      case ir::ValueKind::kConstNull:
        return const_slot(0);
      case ir::ValueKind::kGlobal: {
        auto it = m_.global_addr_.find(static_cast<const ir::GlobalVariable*>(v));
        if (it == m_.global_addr_.end()) throw DecodeFail{"unknown global @" + v->name()};
        return const_slot(static_cast<std::int64_t>(it->second));
      }
      case ir::ValueKind::kFunction: {
        auto it = m_.fn_token_.find(static_cast<const ir::Function*>(v));
        if (it == m_.fn_token_.end()) throw DecodeFail{"bad value"};
        return const_slot(it->second);
      }
      case ir::ValueKind::kArgument:
      case ir::ValueKind::kInstruction: {
        auto it = slot_.find(v);
        if (it == slot_.end()) throw DecodeFail{"use of unset register %" + v->name()};
        return it->second;
      }
    }
    throw DecodeFail{"bad value"};
  }

  sgx::ColorId color_of_annotation(const std::string& annotation) {
    try {
      return m_.color_id_of_annotation(annotation);
    } catch (const std::exception& e) {
      throw DecodeFail{e.what()};
    }
  }

  /// Compiles the phi moves for the CFG edge @p from → @p to. Returns false
  /// (with *trap set) when taking the edge must fault, matching the
  /// tree-walker's lazy per-edge errors.
  bool decode_edge(const ir::BasicBlock* from, const ir::BasicBlock* to, std::uint32_t* first,
                   std::uint16_t* count, std::uint32_t* trap) {
    std::vector<PhiCopy> copies;
    for (const ir::PhiInst* phi : to->phis()) {
      bool found = false;
      for (std::size_t i = 0; i < phi->incoming_count(); ++i) {
        if (phi->incoming_block(i) != from) continue;
        try {
          copies.push_back(PhiCopy{slot_of(phi->incoming_value(i)), slot_.at(phi)});
        } catch (DecodeFail& f) {
          *trap = add_trap(std::move(f.message));
          return false;
        }
        found = true;
        break;
      }
      if (!found) {
        *trap = add_trap("phi has no incoming for the taken edge");
        return false;
      }
    }
    *first = static_cast<std::uint32_t>(df_->phi_pool.size());
    *count = static_cast<std::uint16_t>(copies.size());
    df_->phi_pool.insert(df_->phi_pool.end(), copies.begin(), copies.end());
    return true;
  }

  /// Appends the argument slots of a call to arg_pool.
  template <typename GetArg>
  void decode_args(DecodedOp& op, std::size_t n, GetArg&& get) {
    op.nargs = static_cast<std::uint16_t>(n);
    op.args_first = static_cast<std::uint32_t>(df_->arg_pool.size());
    for (std::size_t i = 0; i < n; ++i) df_->arg_pool.push_back(slot_of(get(i)));
  }

  DecodedOp decode_inst(const ir::BasicBlock* bb, const ir::Instruction* inst);
  DecodedOp decode_call(const ir::CallInst* call);

  Machine& m_;
  const ProgramCode& code_;
  DecodedFunction* df_ = nullptr;
  std::unordered_map<const ir::Value*, std::uint32_t> slot_;
  std::map<std::int64_t, std::uint32_t> const_slot_;
  std::unordered_map<const ir::BasicBlock*, std::uint32_t> start_;
  std::uint32_t first_const_ = 0;
};

void Decoder::decode(const ir::Function* fn, DecodedFunction& df) {
  df_ = &df;
  df.fn = fn;
  df.num_args = static_cast<std::uint32_t>(fn->arg_count());

  // Slot numbering: [args][one slot per instruction][constants]. Every
  // instruction gets a slot (void ones simply never write theirs) — frames
  // are a little wider but numbering stays trivially dense.
  for (std::size_t i = 0; i < fn->arg_count(); ++i) {
    slot_[fn->argument(i)] = static_cast<std::uint32_t>(i);
  }
  std::uint32_t next = df.num_args;
  for (const auto& bb : fn->blocks()) {
    for (const auto& inst : bb->instructions()) slot_[inst.get()] = next++;
  }
  first_const_ = next;

  // Op index of each block. A block contributes one op per non-phi
  // instruction, plus a synthetic fall-through trap when unterminated.
  const bool entry_phi_trap =
      fn->entry_block() != nullptr && !fn->entry_block()->phis().empty();
  std::uint32_t index = entry_phi_trap ? 1 : 0;
  for (const auto& bb : fn->blocks()) {
    start_[bb.get()] = index;
    for (const auto& inst : bb->instructions()) {
      if (inst->opcode() != ir::Opcode::kPhi) ++index;
    }
    if (bb->terminator() == nullptr) ++index;
  }

  // The tree-walker resolves entry-block phis against a null predecessor and
  // throws before counting anything; the synthetic trap is uncounted.
  if (entry_phi_trap) {
    df.ops.push_back(trap_op("phi has no incoming for the taken edge", /*counted=*/false));
  }
  for (const auto& bb : fn->blocks()) {
    for (const auto& inst : bb->instructions()) {
      if (inst->opcode() == ir::Opcode::kPhi) continue;
      try {
        df.ops.push_back(decode_inst(bb.get(), inst.get()));
      } catch (DecodeFail& f) {
        df.ops.push_back(trap_op(std::move(f.message), /*counted=*/true));
      }
    }
    if (bb->terminator() == nullptr) {
      df.ops.push_back(trap_op("block fell through without terminator", /*counted=*/false));
    }
  }

  df.const_base = first_const_;
  df.num_slots = first_const_ + static_cast<std::uint32_t>(df.const_pool.size());
}

DecodedOp Decoder::decode_inst(const ir::BasicBlock* bb, const ir::Instruction* inst) {
  DecodedOp op;
  op.dest = slot_.at(inst);
  switch (inst->opcode()) {
    case ir::Opcode::kAlloca: {
      const auto* a = static_cast<const ir::AllocaInst*>(inst);
      op.op = Op::kAlloca;
      op.imm = static_cast<std::int64_t>(a->contained_type()->size_bytes());
      op.b = static_cast<std::uint32_t>(color_of_annotation(a->color()));
      break;
    }
    case ir::Opcode::kHeapAlloc: {
      const auto* a = static_cast<const ir::HeapAllocInst*>(inst);
      op.op = Op::kHeapAlloc;
      op.imm = static_cast<std::int64_t>(a->contained_type()->size_bytes());
      op.b = static_cast<std::uint32_t>(color_of_annotation(a->color()));
      break;
    }
    case ir::Opcode::kHeapFree:
      op.op = Op::kHeapFree;
      op.a = slot_of(static_cast<const ir::HeapFreeInst*>(inst)->pointer());
      break;
    case ir::Opcode::kLoad: {
      const auto* l = static_cast<const ir::LoadInst*>(inst);
      op.op = Op::kLoad;
      op.a = slot_of(l->pointer());
      op.imm = static_cast<std::int64_t>(l->type()->size_bytes());
      if (l->type()->is_int()) {
        const unsigned bits = static_cast<const ir::IntType*>(l->type())->bits();
        op.sub = static_cast<std::uint8_t>(bits < 64 ? bits : 64);
      }
      if (is_authenticated_pointer_type(l->type())) op.flags |= kAuthPointer;
      break;
    }
    case ir::Opcode::kStore: {
      const auto* s = static_cast<const ir::StoreInst*>(inst);
      op.op = Op::kStore;
      op.b = slot_of(s->stored_value());  // value first: eval order of the walker
      op.a = slot_of(s->pointer());
      op.imm = static_cast<std::int64_t>(s->stored_value()->type()->size_bytes());
      if (is_authenticated_pointer_type(s->stored_value()->type())) op.flags |= kAuthPointer;
      break;
    }
    case ir::Opcode::kGep: {
      const auto* g = static_cast<const ir::GepInst*>(inst);
      op.a = slot_of(g->base());
      if (g->is_field_access()) {
        op.op = Op::kGepField;
        op.imm = static_cast<std::int64_t>(
            g->struct_type()->field_offset(static_cast<std::size_t>(g->field_index())));
      } else {
        op.op = Op::kGepIndex;
        const auto* pt = static_cast<const ir::PtrType*>(inst->type());
        op.imm = static_cast<std::int64_t>(pt->pointee()->size_bytes());
        op.b = slot_of(g->index());
      }
      break;
    }
    case ir::Opcode::kBinOp: {
      const auto* b = static_cast<const ir::BinOpInst*>(inst);
      op.op = static_cast<Op>(static_cast<int>(Op::kAdd) + static_cast<int>(b->op()));
      op.a = slot_of(b->lhs());
      op.b = slot_of(b->rhs());
      op.sub = wrap_bits(b->type());
      break;
    }
    case ir::Opcode::kICmp: {
      const auto* c = static_cast<const ir::ICmpInst*>(inst);
      op.op = static_cast<Op>(static_cast<int>(Op::kEq) + static_cast<int>(c->pred()));
      op.a = slot_of(c->lhs());
      op.b = slot_of(c->rhs());
      break;
    }
    case ir::Opcode::kCast: {
      const auto* c = static_cast<const ir::CastInst*>(inst);
      op.a = slot_of(c->source());
      op.op = Op::kCopy;
      switch (c->cast_kind()) {
        case ir::CastKind::kZext: {
          const unsigned from =
              static_cast<const ir::IntType*>(c->source()->type())->bits();
          if (from < 64) {
            op.op = Op::kZext;
            op.sub = static_cast<std::uint8_t>(from);
          }
          break;
        }
        case ir::CastKind::kTrunc: {
          const unsigned to = static_cast<const ir::IntType*>(c->type())->bits();
          if (to < 64) {
            op.op = Op::kTrunc;
            op.sub = static_cast<std::uint8_t>(to);
          }
          break;
        }
        default:
          break;  // bitcast / sext / ptrtoint / inttoptr: bit patterns carry over
      }
      break;
    }
    case ir::Opcode::kCall:
      return decode_call(static_cast<const ir::CallInst*>(inst));
    case ir::Opcode::kCallIndirect: {
      const auto* c = static_cast<const ir::CallIndirectInst*>(inst);
      op.op = Op::kCallIndirect;
      op.a = slot_of(c->function_pointer());
      decode_args(op, c->arg_count(), [&](std::size_t i) { return c->arg(i); });
      if (!inst->type()->is_void()) op.flags |= kHasResult;
      break;
    }
    case ir::Opcode::kBr: {
      const auto* br = static_cast<const ir::BrInst*>(inst);
      op.op = Op::kBr;
      op.t0 = start_.at(br->target());
      if (!decode_edge(bb, br->target(), &op.phi0, &op.nphi0, &op.phi0)) {
        op.flags |= kBadEdge0;
      }
      break;
    }
    case ir::Opcode::kCondBr: {
      const auto* cb = static_cast<const ir::CondBrInst*>(inst);
      op.op = Op::kCondBr;
      op.a = slot_of(cb->condition());
      op.t0 = start_.at(cb->then_block());
      op.t1 = start_.at(cb->else_block());
      if (!decode_edge(bb, cb->then_block(), &op.phi0, &op.nphi0, &op.phi0)) {
        op.flags |= kBadEdge0;
      }
      if (!decode_edge(bb, cb->else_block(), &op.phi1, &op.nphi1, &op.phi1)) {
        op.flags |= kBadEdge1;
      }
      break;
    }
    case ir::Opcode::kRet: {
      const auto* ret = static_cast<const ir::RetInst*>(inst);
      op.op = Op::kRet;
      if (ret->has_value()) {
        op.flags |= kHasResult;
        op.a = slot_of(ret->value());
      }
      break;
    }
    case ir::Opcode::kPhi:
      throw DecodeFail{"unexpected opcode"};  // phis are edge copies, never ops
  }
  return op;
}

DecodedOp Decoder::decode_call(const ir::CallInst* call) {
  DecodedOp op;
  op.dest = slot_.at(call);
  const ir::Function* callee = call->callee();
  const std::string& name = callee->name();

  if (partition::is_intrinsic_name(name)) {
    decode_args(op, call->args().size(), [&](std::size_t i) { return call->args()[i]; });
    if (!call->type()->is_void()) op.flags |= kHasResult;
    if (name == partition::kIntrinsicSpawn) {
      op.op = Op::kSpawn;
      // A constant chunk id lets decode pre-resolve the target enclave color;
      // out-of-range ids keep the walker's lazy chunks.at() failure.
      if (!call->args().empty() &&
          call->args()[0]->value_kind() == ir::ValueKind::kConstInt) {
        const std::int64_t id = static_cast<const ir::ConstInt*>(call->args()[0])->value();
        if (id >= 0 && static_cast<std::size_t>(id) < m_.program_.chunks.size()) {
          op.flags |= kSpawnResolved;
          op.imm = m_.program_.color_id(
              m_.program_.chunks[static_cast<std::size_t>(id)].color);
        }
      }
    } else if (name == partition::kIntrinsicCont) {
      op.op = Op::kCont;
    } else if (name == partition::kIntrinsicWait) {
      op.op = Op::kWait;
    } else if (name == partition::kIntrinsicAck) {
      op.op = Op::kAck;
    } else {
      op.op = Op::kWaitAck;
    }
    return op;
  }

  decode_args(op, call->args().size(), [&](std::size_t i) { return call->args()[i]; });
  if (!call->type()->is_void()) op.flags |= kHasResult;
  if (callee->is_declaration()) {
    op.op = Op::kCallExternal;
    op.target = callee;
  } else {
    op.op = Op::kCallInternal;
    op.target = code_.get(callee);  // shells pre-allocated: never null here
    // The walker checks arity when the callee frame is built; surface the
    // same message at the same (runtime) point.
    if (call->args().size() != callee->arg_count()) {
      throw DecodeFail{"arity mismatch calling @" + callee->name()};
    }
  }
  return op;
}

// ---------------------------------------------------------------------------
// ProgramCode
// ---------------------------------------------------------------------------

ProgramCode::ProgramCode(Machine& machine, bool fuse) {
  // Two passes: allocate every shell first so kCallInternal targets are
  // stable pointers, then decode bodies.
  for (const auto& fn : machine.program_.module->functions()) {
    if (fn->is_declaration()) continue;
    functions_[fn.get()] = std::make_unique<DecodedFunction>();
  }
  for (auto& [fn, df] : functions_) {
    Decoder(machine, *this).decode(fn, *df);
    if (fuse) fuse_function(*df);
  }
}

}  // namespace privagic::interp::bc

// ---------------------------------------------------------------------------
// BytecodeExecutor
// ---------------------------------------------------------------------------

namespace privagic::interp::bc {

namespace {

ExecArena& thread_arena() {
  thread_local ExecArena arena;
  if (arena.stack.capacity() == 0) arena.stack.reserve(256);
  return arena;
}

}  // namespace

BytecodeExecutor::BytecodeExecutor(Machine& machine, runtime::ThreadRuntime& rt,
                                   sgx::ColorId me, bool native)
    : m_(machine),
      rt_(rt),
      me_(me),
      native_(native && machine.jit_ != nullptr),
      arena_(thread_arena()),
      entry_sp_(arena_.sp),
      // A native-mode executor needs the sampler even with metrics off — the
      // hotness score that drives promotion comes from the same tick.
      tally_(DispatchTally::current(/*force_for_jit=*/native && machine.jit_ != nullptr)) {}

std::int64_t BytecodeExecutor::run(const DecodedFunction* f,
                                   std::span<const std::int64_t> args) {
  if (native_) {
    // Promotion point: enter compiled code when published; compile first if
    // the sampled hotness score crossed the machine's threshold. The load is
    // acquire so the code bytes (published after the W^X flip) are visible.
    const NativeCode* nc = f->native_code.load(std::memory_order_acquire);
    if (nc == nullptr &&
        f->hot_ticks.load(std::memory_order_relaxed) >= m_.jit_threshold_) {
      nc = m_.jit_->compile(f);
    }
    if (nc != nullptr) return run_native(f, nc, args);
  }
  const std::size_t base = push_frame(f, args);
  std::vector<std::uint64_t> frame_allocas;
  return fused_loop(f, base, 0, frame_allocas);
}

BytecodeExecutor::~BytecodeExecutor() {
  // Frames above the entry watermark are dead whether we returned or threw;
  // the arena itself outlives us (it is the thread's).
  arena_.sp = entry_sp_;
  // Unflushed ops (normal return or unwind) still reach the global counter —
  // instructions_executed() equals the tree-walker's count either way. No
  // budget check here: destructors must not throw.
  if (pending_ != 0) m_.executed_.fetch_add(pending_, std::memory_order_relaxed);
}

std::size_t BytecodeExecutor::push_frame(const DecodedFunction* f,
                                         std::span<const std::int64_t> args) {
  if (args.size() != f->num_args) {
    throw InterpError("arity mismatch calling @" + f->fn->name());
  }
  const std::size_t base = arena_.sp;
  if (arena_.stack.size() < base + f->num_slots) {
    arena_.stack.resize(base + f->num_slots + 64);
  }
  arena_.sp = base + f->num_slots;
  std::int64_t* frame = arena_.stack.data() + base;
  if (!args.empty()) std::memcpy(frame, args.data(), args.size() * sizeof(std::int64_t));
  // Instruction slots start at zero: deterministic even for use-before-def
  // programs the verifier rejects (the walker throws on those instead).
  std::memset(frame + f->num_args, 0,
              (f->const_base - f->num_args) * sizeof(std::int64_t));
  if (!f->const_pool.empty()) {
    std::memcpy(frame + f->const_base, f->const_pool.data(),
                f->const_pool.size() * sizeof(std::int64_t));
  }
  return base;
}

void BytecodeExecutor::flush_counter() {
  obs::on_budget_flush(pending_);
  const std::uint64_t total =
      m_.executed_.fetch_add(pending_, std::memory_order_relaxed) + pending_;
  pending_ = 0;
  if (total > Machine::kMaxInstructions) {
    throw InterpError("instruction budget exhausted (runaway loop?)");
  }
}

std::byte* BytecodeExecutor::mem_data(std::uint64_t addr, std::uint64_t n) {
  // Fast path: the cached region still covers the access and its shard has
  // seen no free since resolve(). The handle was resolved with this
  // executor's color, so the color check is already settled for every
  // address inside the region.
  if (cache_.bytes != nullptr && cache_.covers(addr, n) && m_.memory_->handle_current(cache_)) {
    return cache_.bytes->data() + (addr - cache_.base);
  }
  cache_ = m_.memory_->resolve(addr, n, me_);  // full checks; throws like read()/write()
  return cache_.bytes->data() + (addr - cache_.base);
}

std::int64_t BytecodeExecutor::mem_load(std::uint64_t addr, std::uint64_t size,
                                        unsigned sx_bits) {
  const std::byte* p = mem_data(addr, size);
  std::uint64_t raw = 0;
#if defined(__GNUC__)
  // Aligned word accesses are atomic so concurrent application threads on
  // shared unsafe memory may lose updates but never observe torn values
  // (tests/multithread_test.cpp) — the old global lock gave the same
  // guarantee by serializing.
  if (size == 8 && (reinterpret_cast<std::uintptr_t>(p) & 7) == 0) {
    raw = __atomic_load_n(reinterpret_cast<const std::uint64_t*>(p), __ATOMIC_RELAXED);
  } else
#endif
  {
    std::memcpy(&raw, p, size);
  }
  return sx_bits != 0 ? sign_extend(raw, sx_bits) : static_cast<std::int64_t>(raw);
}

void BytecodeExecutor::mem_store(std::uint64_t addr, std::int64_t value, std::uint64_t size) {
  std::byte* p = mem_data(addr, size);
#if defined(__GNUC__)
  if (size == 8 && (reinterpret_cast<std::uintptr_t>(p) & 7) == 0) {
    __atomic_store_n(reinterpret_cast<std::uint64_t*>(p),
                     static_cast<std::uint64_t>(value), __ATOMIC_RELAXED);
    return;
  }
#endif
  std::memcpy(p, &value, size);
}

std::int64_t BytecodeExecutor::call(const DecodedFunction* f, const DecodedOp& o,
                                    const std::int64_t* frame) {
  const DecodedFunction* callee = nullptr;
  const ir::Function* external = nullptr;
  if (o.op == Op::kCallInternal) {
    callee = static_cast<const DecodedFunction*>(o.target);
  } else if (o.op == Op::kCallExternal) {
    external = static_cast<const ir::Function*>(o.target);
  } else {
    auto it = m_.token_fn_.find(frame[o.a]);
    if (it == m_.token_fn_.end()) {
      throw InterpError("indirect call through a non-function pointer");
    }
    if (it->second->is_declaration()) {
      external = it->second;
    } else {
      callee = m_.code_->get(it->second);
    }
  }
  std::int64_t buf[8];
  std::vector<std::int64_t> heap;
  std::int64_t* args = buf;
  if (o.nargs > 8) {
    heap.resize(o.nargs);
    args = heap.data();
  }
  const std::uint32_t* slots = f->arg_pool.data() + o.args_first;
  for (std::uint16_t i = 0; i < o.nargs; ++i) args[i] = frame[slots[i]];
  const std::span<const std::int64_t> view(args, o.nargs);
  if (callee != nullptr) return run(callee, view);
  // Flush point: external code may depend on messages batched but not yet
  // delivered (same rule as the tree-walker's dispatch()).
  rt_.flush_current();
  return m_.call_external(external, view, me_);
}

}  // namespace privagic::interp::bc
