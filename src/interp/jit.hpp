// Native tier: template-JIT compilation of hot chunks (DESIGN.md §16).
//
// The JitEngine turns one DecodedFunction's *fused* op stream into x86-64
// machine code by stitching a pre-defined native fragment per opcode
// (jit.cpp) into a CodeArena buffer (sgx/code_arena.hpp: page-aligned,
// mmap'd RW, flipped R+X before publication — W^X throughout).
//
// The contract is the same one fusion.cpp honors: observable behavior is
// bit-identical to the interpreter tiers. Three rules deliver that:
//
//  * Pure frame ops (arithmetic, compares, geps, casts, phi moves, branches)
//    inline to a few instructions on the same int64 frame slots the
//    interpreter uses — same frame, same layout, same arena.
//  * Every op that touches simulated memory or the runtime (loads, stores,
//    allocs, calls, mailbox intrinsics) calls back into a C++ helper thunk
//    (native.cpp) that runs the interpreter's own code — SimMemory bounds,
//    color and EPC checks, the region fast path, trace/metrics hooks and
//    message protocol all still fire. A helper that faults captures the
//    exception into the NativeCtx and returns; the native frame unwinds by
//    plain `ret` (no EH tables needed in emitted code) and the shell
//    rethrows — typed kEpcExhausted and access faults surface exactly as
//    from fused_loop.
//  * Ops outside the template set — kTrap, faulting sdiv/srem, kAuthPointer
//    loads/stores, branches with bad phi edges — compile into deopt exits:
//    the code syncs the instruction count (excluding the unexecuted op),
//    records the fused-op index, and the shell resumes the fused interpreter
//    mid-call on the same frame. Identical results, identical counts.
//
// Instruction accounting: compiled code keeps the executor's batched pending
// count in a register, adds each straight-line block's op count (including
// superinstruction second components exactly where the fused handlers charge
// them), syncs it before any helper that can fault, and runs the same
// kCountFlushBatch budget-flush check at branches.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "interp/bytecode.hpp"
#include "sgx/code_arena.hpp"

namespace privagic::interp::bc {

class BytecodeExecutor;

/// Whether this build can emit and run native code: compiled in by the CMake
/// `PRIVAGIC_JIT` probe (x86-64 SysV host with mmap), OFF elsewhere — an
/// ExecMode::kNative machine on an unsupported host runs kFused throughout.
[[nodiscard]] bool jit_available();

/// Per-call state shared between a compiled function and its C++ helper
/// thunks. Standard-layout: the emitter bakes offsetof() displacements into
/// the generated code (jit.cpp kOff* constants).
struct NativeCtx {
  BytecodeExecutor* exec = nullptr;
  const DecodedFunction* f = nullptr;
  std::int64_t* frame = nullptr;   // refreshed by helpers that may move the arena
  std::uint64_t pending = 0;       // batched instruction count (r13 shadow)
  std::uint32_t status = 0;        // 0 = ran to return, 1 = deopt, 2 = fault
  std::uint32_t deopt_pc = 0;      // fused-op index to resume at (status 1)
  std::uint64_t base = 0;          // frame base offset in the arena
  std::vector<std::uint64_t>* allocas = nullptr;  // live kAlloca addresses
  void* fault = nullptr;           // std::exception_ptr* (status 2)
};

/// How one fused op was lowered — provenance for --dump-bytecode=native.
enum class NativeLowering : std::uint8_t { kInline, kHelper, kDeopt };

/// One compiled function. Immutable once published via
/// DecodedFunction::native_code (release store after the W^X flip).
struct NativeCode {
  using EntryFn = std::int64_t (*)(NativeCtx*);
  EntryFn entry = nullptr;
  const void* code = nullptr;
  std::size_t code_size = 0;
  std::vector<std::uint32_t> op_offsets;  // emitted offset of each fused op
  std::vector<NativeLowering> lowering;   // per-op lowering kind
};

/// Per-machine compiler for ExecMode::kNative. compile() is the promotion
/// point: serialized under a lock, idempotent per function, publishing
/// through DecodedFunction::native_code.
class JitEngine {
 public:
  JitEngine() = default;
  JitEngine(const JitEngine&) = delete;
  JitEngine& operator=(const JitEngine&) = delete;

  /// Compiles @p f (or returns the already-published unit). Returns nullptr
  /// when native execution is unavailable — probe off, or the host refused
  /// an executable mapping (the engine then disables itself: chunks keep
  /// running fused).
  const NativeCode* compile(const DecodedFunction* f);

  struct Stats {
    std::uint64_t compiles = 0;
    std::uint64_t deopts = 0;
    std::uint64_t code_bytes = 0;
  };
  [[nodiscard]] Stats stats() const {
    return Stats{compiles_.load(std::memory_order_relaxed),
                 deopts_.load(std::memory_order_relaxed), arena_.code_bytes()};
  }

  /// Called by the executor when a native frame bails to the interpreter
  /// (also mirrored to the jit.deopts metric by the obs hook).
  void note_deopt() { deopts_.fetch_add(1, std::memory_order_relaxed); }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<NativeCode>> units_;
  sgx::CodeArena arena_;
  std::atomic<std::uint64_t> compiles_{0};
  std::atomic<std::uint64_t> deopts_{0};
  bool disabled_ = false;  // an executable mapping failed; stay interpreted
};

/// The C++ halves of compiled ops (native.cpp). Static so their addresses
/// are plain SysV function pointers the emitter can bake in as imm64 call
/// targets. Every thunk is noexcept-by-construction: faults are captured
/// into the NativeCtx, never thrown across the native frame.
struct NativeHelpers {
  static std::int64_t load(NativeCtx* ctx, std::uint64_t addr, std::uint64_t size,
                           std::uint64_t sx_bits);
  static void store(NativeCtx* ctx, std::uint64_t addr, std::int64_t value,
                    std::uint64_t size);
  static void phi(NativeCtx* ctx, std::uint64_t first, std::uint64_t count);
  static void flush(NativeCtx* ctx);
  /// Allocation, call and mailbox ops — executes f->ops[pc] wholesale with
  /// the fused handler's exact semantics (and updates ctx->frame when the
  /// arena reallocates under nested frames).
  static void big_op(NativeCtx* ctx, std::uint64_t pc);
};

/// disasm-lite provenance listing for --dump-bytecode=native: one line per
/// fused op with its emitted code offset and lowering kind.
[[nodiscard]] std::string disassemble_native(const DecodedFunction& df,
                                             const NativeCode& nc);

}  // namespace privagic::interp::bc
