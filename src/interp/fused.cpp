// The bytecode tier's one dispatch loop (ExecMode::kFused, and the deopt
// re-entry point of ExecMode::kNative).
//
// fused_loop() executes fusion.cpp's superinstruction bytecode with
// direct-threaded dispatch: on GCC/Clang each handler ends by indexing a
// labels-as-values table with the *next* op's opcode and jumping straight to
// its handler (one indirect branch per op, predicted per-handler instead of
// through one shared switch branch). CMake probes for the extension and sets
// PRIVAGIC_COMPUTED_GOTO; without it the same handler bodies compile into a
// portable switch loop — the OPCASE()/NEXT() macros are the only difference
// between the two builds, so both are continuously testable (the CI
// portable-dispatch job builds with the fallback).
//
// Observable behavior is bit-identical to the tree-walker:
//  * instruction accounting: the dispatch preamble charges one instruction,
//    and each superinstruction handler charges its second component exactly
//    where the unfused pair would have (before executing it), so a fault in
//    either component leaves the tree-walker's count;
//  * flush semantics: mailbox ops flush up front, branches flush on the
//    kCountFlushBatch threshold;
//  * error messages and fault points (region checks, bad phi edges, traps,
//    pointer auth, division) match the walker's (the value helpers live in
//    exec_common.hpp).
#include <cstring>

#include "interp/bytecode.hpp"
#include "interp/dispatch_stats.hpp"
#include "interp/exec_common.hpp"
#include "interp/machine.hpp"

// CMake defines PRIVAGIC_COMPUTED_GOTO=0/1 after probing the compiler; a
// build that bypasses CMake falls back to the architecture of its compiler.
#ifndef PRIVAGIC_COMPUTED_GOTO
#if defined(__GNUC__) || defined(__clang__)
#define PRIVAGIC_COMPUTED_GOTO 1
#else
#define PRIVAGIC_COMPUTED_GOTO 0
#endif
#endif

namespace privagic::interp::bc {

// The frame rule. While a runtime op is away, this thread may run other
// executors on the same arena: a nested call, a same-color spawn served
// inline, a spawn that wait/wait_ack serves while the reply is outstanding,
// a host callback that re-enters the machine. Their frames can grow the
// arena's vector, which moves it. So runtime_op reads its operands before
// handing off control and writes its result only through a frame re-derived
// from arena_ afterwards — and every caller reloads its own frame pointer
// from arena_ after runtime_op returns.
template <Op kOp>
void BytecodeExecutor::runtime_op(const DecodedFunction* f, const DecodedOp& o,
                                  std::size_t base) {
  const std::int64_t* frame = arena_.stack.data() + base;
  const std::uint32_t* slots = f->arg_pool.data() + o.args_first;
  std::int64_t r = 0;
  // Mailbox ops flush the batched counter up front: a worker that parks in
  // wait() (or hands off control with spawn/cont/ack) must have charged
  // everything it executed, so instructions_executed() agrees with the
  // tree-walker at every quiescent point — not just after this executor
  // unwinds.
  if constexpr (kOp == Op::kSpawn) {
    flush_counter();
    const std::int64_t chunk = frame[slots[0]];
    const std::int64_t color =
        (o.flags & kSpawnResolved) != 0
            ? o.imm
            : m_.program_.color_id(
                  m_.program_.chunks.at(static_cast<std::size_t>(chunk)).color);
    rt_.spawn(color, static_cast<std::uint64_t>(chunk), frame[slots[1]], frame[slots[2]],
              frame[slots[3]]);
  } else if constexpr (kOp == Op::kCont) {
    flush_counter();
    rt_.cont(frame[slots[0]], frame[slots[1]], frame[slots[2]]);
  } else if constexpr (kOp == Op::kWait) {
    flush_counter();
    r = rt_.wait(static_cast<std::size_t>(me_), frame[slots[0]]);
  } else if constexpr (kOp == Op::kAck) {
    flush_counter();
    rt_.ack(frame[slots[0]], frame[slots[1]]);
  } else if constexpr (kOp == Op::kWaitAck) {
    flush_counter();
    rt_.wait_ack(static_cast<std::size_t>(me_), frame[slots[0]]);
  } else {
    static_assert(kOp == Op::kCallInternal || kOp == Op::kCallExternal ||
                  kOp == Op::kCallIndirect);
    r = call(f, o, frame);
  }
  if ((o.flags & kHasResult) != 0) arena_.stack[base + o.dest] = r;
}

void BytecodeExecutor::runtime_op(const DecodedFunction* f, const DecodedOp& o,
                                  std::size_t base) {
  switch (o.op) {
    case Op::kSpawn: return runtime_op<Op::kSpawn>(f, o, base);
    case Op::kCont: return runtime_op<Op::kCont>(f, o, base);
    case Op::kWait: return runtime_op<Op::kWait>(f, o, base);
    case Op::kAck: return runtime_op<Op::kAck>(f, o, base);
    case Op::kWaitAck: return runtime_op<Op::kWaitAck>(f, o, base);
    case Op::kCallInternal: return runtime_op<Op::kCallInternal>(f, o, base);
    case Op::kCallExternal: return runtime_op<Op::kCallExternal>(f, o, base);
    case Op::kCallIndirect: return runtime_op<Op::kCallIndirect>(f, o, base);
    default: throw InterpError("runtime_op on unexpected opcode");
  }
}

std::int64_t BytecodeExecutor::fused_loop(const DecodedFunction* f, std::size_t base,
                                          std::uint32_t start_pc,
                                          std::vector<std::uint64_t>& frame_allocas) {
  // Only a kNative machine pays for hotness attribution in the dispatch
  // preamble; the false instantiation is the unchanged kFused loop.
  return native_ ? fused_loop_impl<true>(f, base, start_pc, frame_allocas)
                 : fused_loop_impl<false>(f, base, start_pc, frame_allocas);
}

template <bool kTrackHot>
std::int64_t BytecodeExecutor::fused_loop_impl(
    const DecodedFunction* f, std::size_t base, std::uint32_t start_pc,
    std::vector<std::uint64_t>& frame_allocas) {
  std::int64_t* frame = arena_.stack.data() + base;

  const DecodedOp* ops = f->ops.data();
  std::uint32_t pc = start_pc;
  std::int64_t result = 0;
  const DecodedOp* o = nullptr;
  // Local copy so the dispatch preamble never reloads the member across the
  // opaque handler calls (tally_ is fixed for the executor's lifetime).
  DispatchTally* const tally = tally_;
  // Per-chunk hotness (kNative): the sampler charges its period hits to this
  // function's score until the function is compiled — after that (including
  // deopt resumes into this loop) there is nothing left to promote. In the
  // kTrackHot=false instantiation this folds to nullptr and costs nothing.
  std::atomic<std::uint64_t>* const hot =
      kTrackHot && f->native_code.load(std::memory_order_relaxed) == nullptr
          ? &f->hot_ticks
          : nullptr;

#if PRIVAGIC_COMPUTED_GOTO
  // Must list every Op in enum order — the static_assert on kNumOps and the
  // fused test that executes each opcode keep this honest.
  static const void* const kJump[kNumOps] = {
      &&L_kTrap, &&L_kAlloca, &&L_kHeapAlloc, &&L_kHeapFree, &&L_kLoad, &&L_kStore,
      &&L_kGepField, &&L_kGepIndex, &&L_kAdd, &&L_kSub, &&L_kMul, &&L_kSDiv,
      &&L_kSRem, &&L_kAnd, &&L_kOr, &&L_kXor, &&L_kShl, &&L_kLShr, &&L_kFAdd,
      &&L_kFSub, &&L_kFMul, &&L_kFDiv, &&L_kEq, &&L_kNe, &&L_kSlt, &&L_kSle,
      &&L_kSgt, &&L_kSge, &&L_kZext, &&L_kTrunc, &&L_kCopy, &&L_kSpawn, &&L_kCont,
      &&L_kWait, &&L_kAck, &&L_kWaitAck, &&L_kCallInternal, &&L_kCallExternal,
      &&L_kCallIndirect, &&L_kBr, &&L_kCondBr, &&L_kRet, &&L_kCmpBr,
      &&L_kGepFieldLoad, &&L_kGepIndexLoad, &&L_kGepFieldStore, &&L_kGepIndexStore,
      &&L_kLoadBin, &&L_kBinStore, &&L_kBinBin, &&L_kBinBr, &&L_kBinRet,
  };
#define OPCASE(name) L_##name:
#define NEXT()                                                    \
  do {                                                            \
    o = &ops[pc];                                                 \
    ++pc;                                                         \
    ++pending_;                                                   \
    if (tally != nullptr) tally->touch(o->op, hot);               \
    goto* kJump[static_cast<std::size_t>(o->op)];                 \
  } while (0)
  NEXT();
#else
  for (;;) {
    o = &ops[pc];
    ++pc;
    ++pending_;
    if (tally != nullptr) tally->touch(o->op, hot);
    switch (o->op) {
#define OPCASE(name) case Op::name:
#define NEXT() break
#endif

      OPCASE(kTrap) {
        if (o->a == 0) --pending_;  // synthetic op, not a real instruction
        throw InterpError(f->traps[static_cast<std::size_t>(o->imm)]);
      }
      NEXT();

      OPCASE(kAlloca) {
        const std::uint64_t addr = m_.memory_->allocate(
            static_cast<std::uint64_t>(o->imm), static_cast<sgx::ColorId>(o->b));
        frame_allocas.push_back(addr);
        frame[o->dest] = static_cast<std::int64_t>(addr);
      }
      NEXT();

      OPCASE(kHeapAlloc) {
        frame[o->dest] = static_cast<std::int64_t>(m_.memory_->allocate(
            static_cast<std::uint64_t>(o->imm), static_cast<sgx::ColorId>(o->b)));
      }
      NEXT();

      OPCASE(kHeapFree) {
        m_.memory_->free(static_cast<std::uint64_t>(frame[o->a]), me_);
      }
      NEXT();

      OPCASE(kLoad) {
        std::int64_t v = mem_load(static_cast<std::uint64_t>(frame[o->a]),
                                  static_cast<std::uint64_t>(o->imm), o->sub);
        if ((o->flags & kAuthPointer) != 0 &&
            m_.pointer_auth_.load(std::memory_order_relaxed) && v != 0) {
          const auto raw = static_cast<std::uint64_t>(v);
          const std::uint64_t addr = raw & ((1ull << 48) - 1);
          if ((raw & ~((1ull << 48) - 1)) !=
              pointer_mac(addr, Machine::kPointerAuthSecret)) {
            throw sgx::AccessViolation("pointer authentication failed on load");
          }
          v = static_cast<std::int64_t>(addr);
        }
        frame[o->dest] = v;
      }
      NEXT();

      OPCASE(kStore) {
        std::int64_t v = frame[o->b];
        if ((o->flags & kAuthPointer) != 0 &&
            m_.pointer_auth_.load(std::memory_order_relaxed) && v != 0) {
          const auto addr = static_cast<std::uint64_t>(v);
          v = static_cast<std::int64_t>(addr |
                                        pointer_mac(addr, Machine::kPointerAuthSecret));
        }
        mem_store(static_cast<std::uint64_t>(frame[o->a]), v,
                  static_cast<std::uint64_t>(o->imm));
      }
      NEXT();

      OPCASE(kGepField) {
        frame[o->dest] = static_cast<std::int64_t>(static_cast<std::uint64_t>(frame[o->a]) +
                                                   static_cast<std::uint64_t>(o->imm));
      }
      NEXT();

      OPCASE(kGepIndex) {
        frame[o->dest] = static_cast<std::int64_t>(
            static_cast<std::uint64_t>(frame[o->a]) +
            static_cast<std::uint64_t>(o->imm) * static_cast<std::uint64_t>(frame[o->b]));
      }
      NEXT();

      OPCASE(kAdd) { frame[o->dest] = wrap(frame[o->a] + frame[o->b], o->sub); }
      NEXT();

      OPCASE(kSub) { frame[o->dest] = wrap(frame[o->a] - frame[o->b], o->sub); }
      NEXT();

      OPCASE(kMul) { frame[o->dest] = wrap(frame[o->a] * frame[o->b], o->sub); }
      NEXT();

      OPCASE(kSDiv) {
        if (frame[o->b] == 0) throw InterpError("division by zero");
        frame[o->dest] = wrap(frame[o->a] / frame[o->b], o->sub);
      }
      NEXT();

      OPCASE(kSRem) {
        if (frame[o->b] == 0) throw InterpError("remainder by zero");
        frame[o->dest] = wrap(frame[o->a] % frame[o->b], o->sub);
      }
      NEXT();

      OPCASE(kAnd) { frame[o->dest] = frame[o->a] & frame[o->b]; }
      NEXT();

      OPCASE(kOr) { frame[o->dest] = frame[o->a] | frame[o->b]; }
      NEXT();

      OPCASE(kXor) { frame[o->dest] = frame[o->a] ^ frame[o->b]; }
      NEXT();

      OPCASE(kShl) {
        frame[o->dest] =
            wrap(static_cast<std::int64_t>(static_cast<std::uint64_t>(frame[o->a])
                                           << (frame[o->b] & 63)),
                 o->sub);
      }
      NEXT();

      OPCASE(kLShr) {
        std::uint64_t ua = static_cast<std::uint64_t>(frame[o->a]);
        if (o->sub != 0) ua &= (1ull << o->sub) - 1;
        frame[o->dest] = static_cast<std::int64_t>(ua >> (frame[o->b] & 63));
      }
      NEXT();

      OPCASE(kFAdd) {
        frame[o->dest] = from_double(as_double(frame[o->a]) + as_double(frame[o->b]));
      }
      NEXT();

      OPCASE(kFSub) {
        frame[o->dest] = from_double(as_double(frame[o->a]) - as_double(frame[o->b]));
      }
      NEXT();

      OPCASE(kFMul) {
        frame[o->dest] = from_double(as_double(frame[o->a]) * as_double(frame[o->b]));
      }
      NEXT();

      OPCASE(kFDiv) {
        frame[o->dest] = from_double(as_double(frame[o->a]) / as_double(frame[o->b]));
      }
      NEXT();

      OPCASE(kEq) { frame[o->dest] = frame[o->a] == frame[o->b] ? 1 : 0; }
      NEXT();

      OPCASE(kNe) { frame[o->dest] = frame[o->a] != frame[o->b] ? 1 : 0; }
      NEXT();

      OPCASE(kSlt) { frame[o->dest] = frame[o->a] < frame[o->b] ? 1 : 0; }
      NEXT();

      OPCASE(kSle) { frame[o->dest] = frame[o->a] <= frame[o->b] ? 1 : 0; }
      NEXT();

      OPCASE(kSgt) { frame[o->dest] = frame[o->a] > frame[o->b] ? 1 : 0; }
      NEXT();

      OPCASE(kSge) { frame[o->dest] = frame[o->a] >= frame[o->b] ? 1 : 0; }
      NEXT();

      OPCASE(kZext) {
        frame[o->dest] = static_cast<std::int64_t>(static_cast<std::uint64_t>(frame[o->a]) &
                                                   ((1ull << o->sub) - 1));
      }
      NEXT();

      OPCASE(kTrunc) {
        frame[o->dest] = sign_extend(static_cast<std::uint64_t>(frame[o->a]), o->sub);
      }
      NEXT();

      OPCASE(kCopy) { frame[o->dest] = frame[o->a]; }
      NEXT();

      // Ops that leave this frame share one handler with the native tier.
      // It may run other executors on this thread's arena, so the frame
      // pointer is reloaded after it (the frame rule above runtime_op).
#define RUNTIME_OPCASE(name)                  \
  OPCASE(name) {                              \
    runtime_op<Op::name>(f, *o, base);        \
    frame = arena_.stack.data() + base;       \
  }                                           \
  NEXT();
      RUNTIME_OPCASE(kSpawn)
      RUNTIME_OPCASE(kCont)
      RUNTIME_OPCASE(kWait)
      RUNTIME_OPCASE(kAck)
      RUNTIME_OPCASE(kWaitAck)
      RUNTIME_OPCASE(kCallInternal)
      RUNTIME_OPCASE(kCallExternal)
      RUNTIME_OPCASE(kCallIndirect)
#undef RUNTIME_OPCASE

      OPCASE(kBr) {
        if ((o->flags & kBadEdge0) != 0) throw InterpError(f->traps[o->phi0]);
        apply_phi_copies(f, o->phi0, o->nphi0, frame);
        pc = o->t0;
        if (pending_ >= kCountFlushBatch) flush_counter();
      }
      NEXT();

      OPCASE(kCondBr) {
        if ((frame[o->a] & 1) != 0) {
          if ((o->flags & kBadEdge0) != 0) throw InterpError(f->traps[o->phi0]);
          apply_phi_copies(f, o->phi0, o->nphi0, frame);
          pc = o->t0;
        } else {
          if ((o->flags & kBadEdge1) != 0) throw InterpError(f->traps[o->phi1]);
          apply_phi_copies(f, o->phi1, o->nphi1, frame);
          pc = o->t1;
        }
        if (pending_ >= kCountFlushBatch) flush_counter();
      }
      NEXT();

      OPCASE(kRet) {
        result = (o->flags & kHasResult) != 0 ? frame[o->a] : 0;
        // Stack allocations die on normal return only; an unwinding frame
        // leaks them exactly like the tree-walker.
        for (const std::uint64_t addr : frame_allocas) {
          m_.memory_->free(addr, m_.memory_->color_of(addr));
        }
        arena_.sp = base;
        return result;
      }

      // -- superinstructions ------------------------------------------------
      // The preamble charged the first component; each handler charges the
      // second exactly where the unfused pair would (before executing it),
      // so faults leave the tree-walker's instruction count.

      OPCASE(kCmpBr) {
        const bool taken =
            eval_cmp(static_cast<Op>(o->sub2), frame[o->a], frame[o->b]);
        ++pending_;  // the branch component
        if (taken) {
          if ((o->flags & kBadEdge0) != 0) throw InterpError(f->traps[o->phi0]);
          apply_phi_copies(f, o->phi0, o->nphi0, frame);
          pc = o->t0;
        } else {
          if ((o->flags & kBadEdge1) != 0) throw InterpError(f->traps[o->phi1]);
          apply_phi_copies(f, o->phi1, o->nphi1, frame);
          pc = o->t1;
        }
        if (pending_ >= kCountFlushBatch) flush_counter();
      }
      NEXT();

      OPCASE(kGepFieldLoad) {
        const std::uint64_t addr =
            static_cast<std::uint64_t>(frame[o->a]) + static_cast<std::uint64_t>(o->imm);
        ++pending_;  // the load component
        frame[o->dest] = mem_load(addr, o->sub2, o->sub);
      }
      NEXT();

      OPCASE(kGepIndexLoad) {
        const std::uint64_t addr =
            static_cast<std::uint64_t>(frame[o->a]) +
            static_cast<std::uint64_t>(o->imm) * static_cast<std::uint64_t>(frame[o->b]);
        ++pending_;  // the load component
        frame[o->dest] = mem_load(addr, o->sub2, o->sub);
      }
      NEXT();

      OPCASE(kGepFieldStore) {
        const std::uint64_t addr =
            static_cast<std::uint64_t>(frame[o->a]) + static_cast<std::uint64_t>(o->imm);
        ++pending_;  // the store component
        mem_store(addr, frame[o->b], o->sub2);
      }
      NEXT();

      OPCASE(kGepIndexStore) {
        const std::uint64_t addr =
            static_cast<std::uint64_t>(frame[o->a]) +
            static_cast<std::uint64_t>(o->imm) * static_cast<std::uint64_t>(frame[o->b]);
        ++pending_;  // the store component
        mem_store(addr, frame[o->dest], o->sub2);
      }
      NEXT();

      OPCASE(kLoadBin) {
        const std::int64_t t = mem_load(static_cast<std::uint64_t>(frame[o->a]),
                                        static_cast<std::uint64_t>(o->imm), o->sub);
        ++pending_;  // the binop component
        const std::int64_t other = frame[o->b];
        frame[o->dest] = (o->flags & kFusedSwap) != 0
                             ? eval_bin(static_cast<Op>(o->sub2), other, t,
                                        static_cast<unsigned>(o->aux))
                             : eval_bin(static_cast<Op>(o->sub2), t, other,
                                        static_cast<unsigned>(o->aux));
      }
      NEXT();

      OPCASE(kBinStore) {
        const std::int64_t t =
            eval_bin(static_cast<Op>(o->aux), frame[o->a], frame[o->b], o->sub);
        ++pending_;  // the store component
        mem_store(static_cast<std::uint64_t>(frame[o->dest]), t, o->sub2);
      }
      NEXT();

      OPCASE(kBinBin) {
        const std::int64_t t =
            eval_bin(static_cast<Op>(o->sub2), frame[o->a], frame[o->b], o->sub);
        ++pending_;  // the second binop component
        const std::int64_t other = frame[static_cast<std::size_t>(o->imm)];
        const Op kind2 = static_cast<Op>(o->aux & 0xFF);
        const auto bits2 = static_cast<unsigned>(o->aux >> 8);
        frame[o->dest] = (o->flags & kFusedSwap) != 0 ? eval_bin(kind2, other, t, bits2)
                                                      : eval_bin(kind2, t, other, bits2);
      }
      NEXT();

      OPCASE(kBinBr) {
        // The value stays materialized: the phi copies (and any later block)
        // read it from the frame.
        frame[o->dest] =
            eval_bin(static_cast<Op>(o->sub2), frame[o->a], frame[o->b], o->sub);
        ++pending_;  // the branch component (fusion excludes bad edges)
        apply_phi_copies(f, o->phi0, o->nphi0, frame);
        pc = o->t0;
        if (pending_ >= kCountFlushBatch) flush_counter();
      }
      NEXT();

      OPCASE(kBinRet) {
        result = eval_bin(static_cast<Op>(o->sub2), frame[o->a], frame[o->b], o->sub);
        ++pending_;  // the return component
        for (const std::uint64_t addr : frame_allocas) {
          m_.memory_->free(addr, m_.memory_->color_of(addr));
        }
        arena_.sp = base;
        return result;
      }

#if !PRIVAGIC_COMPUTED_GOTO
    }
  }
#endif
#undef OPCASE
#undef NEXT
}

}  // namespace privagic::interp::bc
