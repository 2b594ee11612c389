// The C++ halves of the native tier (jit.hpp): run_native — the shell that
// enters compiled code and handles its three exit kinds — and the
// NativeHelpers thunks compiled fragments call back into for every op that
// touches simulated memory or the runtime.
//
// The thunks run the executor's own code (mem_load / mem_store /
// runtime_op), so SimMemory bounds, color and EPC checks, pointer auth,
// trace hooks and the message protocol behave identically to fused_loop. No
// exception ever crosses an emitted frame: guarded() captures it into the
// NativeCtx (status 2), the native code returns by plain ret, and run_native
// rethrows — the unwind then runs the same path as a throwing fused_loop.
#include <exception>
#include <type_traits>

#include "interp/exec_common.hpp"
#include "interp/jit.hpp"
#include "interp/machine.hpp"
#include "obs/hooks.hpp"

namespace privagic::interp::bc {

namespace {

/// Runs @p body, capturing any exception into the NativeCtx fault slot.
/// Returns a zero value on fault (the emitted code checks ctx->status before
/// using the result).
template <typename Fn>
auto guarded(NativeCtx* ctx, Fn&& body) {
  using R = std::invoke_result_t<Fn&>;
  try {
    return body();
  } catch (...) {
    *static_cast<std::exception_ptr*>(ctx->fault) = std::current_exception();
    ctx->status = 2;
    if constexpr (!std::is_void_v<R>) return R{};
  }
}

}  // namespace

std::int64_t NativeHelpers::load(NativeCtx* ctx, std::uint64_t addr,
                                 std::uint64_t size, std::uint64_t sx_bits) {
  return guarded(ctx, [&] {
    return ctx->exec->mem_load(addr, size, static_cast<unsigned>(sx_bits));
  });
}

void NativeHelpers::store(NativeCtx* ctx, std::uint64_t addr, std::int64_t value,
                          std::uint64_t size) {
  guarded(ctx, [&] { ctx->exec->mem_store(addr, value, size); });
}

void NativeHelpers::phi(NativeCtx* ctx, std::uint64_t first, std::uint64_t count) {
  // Cannot fault and touches neither the counter nor the arena.
  apply_phi_copies(ctx->f, static_cast<std::uint32_t>(first),
                   static_cast<std::uint16_t>(count), ctx->frame);
}

void NativeHelpers::flush(NativeCtx* ctx) {
  BytecodeExecutor* ex = ctx->exec;
  ex->pending_ = ctx->pending;
  guarded(ctx, [&] { ex->flush_counter(); });
  ctx->pending = ex->pending_;
}

void NativeHelpers::big_op(NativeCtx* ctx, std::uint64_t pc) {
  BytecodeExecutor* ex = ctx->exec;
  const DecodedFunction* f = ctx->f;
  const DecodedOp* o = &f->ops[pc];
  // Hand the batched count to the executor: the handler bodies below flush
  // and accumulate through pending_ exactly as the fused loop's do (and a
  // nested call — which may itself enter native code — picks it up there).
  ex->pending_ = ctx->pending;
  guarded(ctx, [&] {
    Machine& m = ex->m_;
    std::int64_t* frame = ex->arena_.stack.data() + ctx->base;
    switch (o->op) {
      case Op::kAlloca: {
        const std::uint64_t addr = m.memory_->allocate(
            static_cast<std::uint64_t>(o->imm), static_cast<sgx::ColorId>(o->b));
        ctx->allocas->push_back(addr);
        frame[o->dest] = static_cast<std::int64_t>(addr);
        break;
      }
      case Op::kHeapAlloc:
        frame[o->dest] = static_cast<std::int64_t>(m.memory_->allocate(
            static_cast<std::uint64_t>(o->imm), static_cast<sgx::ColorId>(o->b)));
        break;
      case Op::kHeapFree:
        m.memory_->free(static_cast<std::uint64_t>(frame[o->a]), ex->me_);
        break;
      default:
        // Spawn, cont, wait, ack, wait_ack and the calls: the fused loop's
        // own handler. It may move the arena; ctx->frame is reloaded below.
        ex->runtime_op(f, *o, ctx->base);
        break;
    }
  });
  ctx->pending = ex->pending_;
  ctx->frame = ex->arena_.stack.data() + ctx->base;
}

std::int64_t BytecodeExecutor::run_native(const DecodedFunction* f, const NativeCode* nc,
                                          std::span<const std::int64_t> args) {
  const std::size_t base = push_frame(f, args);
  std::vector<std::uint64_t> frame_allocas;
  std::exception_ptr fault;
  NativeCtx ctx;
  ctx.exec = this;
  ctx.f = f;
  ctx.frame = arena_.stack.data() + base;
  ctx.pending = pending_;
  ctx.base = base;
  ctx.allocas = &frame_allocas;
  ctx.fault = &fault;
  const std::int64_t result = nc->entry(&ctx);
  // The native frame is gone (plain ret) on every exit kind; pick the batched
  // count back up so normal flushes — and the dtor's unwind flush — see
  // exactly what fused_loop would have.
  pending_ = ctx.pending;
  if (ctx.status == 2) std::rethrow_exception(fault);
  if (ctx.status == 1) {
    // Deopt: resume the fused interpreter mid-call on the same frame, with
    // the same pending count and live allocas. The bailing op was not counted
    // natively; the loop preamble charges it on resume.
    m_.jit_->note_deopt();
    obs::on_jit_deopt();
    return fused_loop(f, base, ctx.deopt_pc, frame_allocas);
  }
  // Normal return: stack allocations die with the frame, like fused_loop's
  // kRet handler (an unwinding frame leaks them exactly like the tree-walker).
  for (const std::uint64_t addr : frame_allocas) {
    m_.memory_->free(addr, m_.memory_->color_of(addr));
  }
  arena_.sp = base;
  return result;
}

}  // namespace privagic::interp::bc
