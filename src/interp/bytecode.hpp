// Pre-decoded register bytecode for the PIR interpreter.
//
// The tree-walking Executor in machine.cpp pays a hash-map lookup per
// operand, virtual/kind() dispatch per value, and a seq-cst atomic increment
// per instruction. This module performs the classic interpreter-speedup move
// (CPython/LuaJIT-style pre-decoding): a one-time pass numbers each
// function's SSA values into dense frame slots and lowers every
// ir::Instruction into a fixed-size DecodedOp — opcode enum, pre-resolved
// operand slots, immediates (sizes, field offsets, sign-extension widths),
// branch targets as instruction indices, pre-resolved global addresses and
// function tokens, and phi nodes compiled into per-edge parallel copies.
// fusion.cpp then rewrites adjacent pairs into superinstructions, and
// fused.cpp's one dispatch loop executes the stream with the frame as a plain
// int64 array slice of a reused stack arena.
//
// Frame layout per function: [arguments][instruction results][constants].
// The constant tail is memcpy'd from the function's pool at entry, so every
// operand read at runtime is a single indexed load — no value-kind branch.
//
// Instruction accounting is batched: the executor counts locally (one
// register increment per op) and flushes into Machine::executed_ at branch
// points every kCountFlushBatch ops (and unconditionally on unwind), so the
// budget check costs one atomic RMW per few thousand instructions instead of
// one per instruction, while instructions_executed() observed after a call
// is exactly the tree-walker's count — including on fault paths.
//
// Decode-time resolution failures (unknown colors in dead code, entry-block
// phis) become kTrap ops that throw the tree-walker's exact message if — and
// only if — the offending instruction is actually executed.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sgx/memory.hpp"

namespace privagic::ir {
class Function;
}
namespace privagic::runtime {
class ThreadRuntime;
}

namespace privagic::interp {

class Machine;

namespace bc {

enum class Op : std::uint8_t {
  kTrap,        // decode-time-diagnosed failure; throws when executed
  // -- memory -----------------------------------------------------------------
  kAlloca,      // dest = allocate(imm bytes, color a); freed at function exit
  kHeapAlloc,   // dest = allocate(imm bytes, color a)
  kHeapFree,    // free(frame[a])
  kLoad,        // dest = mem[frame[a]], imm = size, sub = sign-extend bits
  kStore,       // mem[frame[a]] = frame[b], imm = size
  kGepField,    // dest = frame[a] + imm
  kGepIndex,    // dest = frame[a] + imm * frame[b]
  // -- arithmetic (sub = result bits for wrapping; 0 = no wrap) ---------------
  kAdd, kSub, kMul, kSDiv, kSRem, kAnd, kOr, kXor, kShl, kLShr,
  kFAdd, kFSub, kFMul, kFDiv,
  // -- comparisons ------------------------------------------------------------
  kEq, kNe, kSlt, kSle, kSgt, kSge,
  // -- casts ------------------------------------------------------------------
  kZext,        // dest = frame[a] & mask(sub source bits)
  kTrunc,       // dest = sign_extend(frame[a], sub dest bits)
  kCopy,        // dest = frame[a] (bitcast / ptrtoint / inttoptr / sext)
  // -- runtime intrinsics -----------------------------------------------------
  kSpawn, kCont, kWait, kAck, kWaitAck,
  // -- calls ------------------------------------------------------------------
  kCallInternal,   // target = const DecodedFunction*
  kCallExternal,   // target = const ir::Function* (declaration)
  kCallIndirect,   // frame[a] = function-pointer token
  // -- control flow -----------------------------------------------------------
  kBr,          // jump t0 after phi copies [phi0, phi0+nphi0)
  kCondBr,      // frame[a] & 1 ? t0/phi0 : t1/phi1
  kRet,         // return frame[a] if kHasResult else 0
  // -- superinstructions (decode-time fusion; absent from unfused listings) ---
  // Each fuses two adjacent ops whose intermediate value is single-use; the
  // handlers count two instructions (staged, so a fault in either component
  // leaves the same instruction count as the unfused pair). See fusion.cpp
  // for the legality rules and the field packing below.
  kCmpBr,       // icmp (kind = kEq+sub2) a,b then cond-br; cmp result unmaterialized
  kGepFieldLoad,   // dest = mem[frame[a] + imm]; size = sub2, sx bits = sub
  kGepIndexLoad,   // dest = mem[frame[a] + imm*frame[b]]; size = sub2, sx = sub
  kGepFieldStore,  // mem[frame[a] + imm] = frame[b]; size = sub2
  kGepIndexStore,  // mem[frame[a] + imm*frame[b]] = frame[dest]; size = sub2
  kLoadBin,     // t = mem[frame[a]] (size imm, sx sub); dest = t <sub2> frame[b]
  kBinStore,    // t = frame[a] <aux> frame[b] (wrap sub); mem[frame[dest]] = t, size sub2
  kBinBin,      // t = frame[a] <sub2> frame[b]; dest = t <aux> frame[imm] (both unwrapped)
  kBinBr,       // dest = frame[a] <sub2> frame[b] (wrap sub); then kBr via t0/phi0
  kBinRet,      // return frame[a] <sub2> frame[b] (wrap sub)
};

/// Total opcode count (dispatch tables, per-op metrics).
inline constexpr std::size_t kNumOps = static_cast<std::size_t>(Op::kBinRet) + 1;

/// First superinstruction; ops >= this exist only in fused ProgramCode.
inline constexpr Op kFirstFusedOp = Op::kCmpBr;

/// Short mnemonic for @p op ("load", "cmp.br", ...) — disassembly and the
/// per-opcode dispatch metrics share one spelling.
[[nodiscard]] const char* op_name(Op op);

/// DecodedOp::flags bits.
inline constexpr std::uint16_t kHasResult = 1u << 0;      // call/ret produces a value
inline constexpr std::uint16_t kAuthPointer = 1u << 1;    // load/store of ptr<T color(c)>
inline constexpr std::uint16_t kSpawnResolved = 1u << 2;  // spawn target color in imm
inline constexpr std::uint16_t kBadEdge0 = 1u << 3;       // taking t0 faults (phi gap)
inline constexpr std::uint16_t kBadEdge1 = 1u << 4;       // taking t1 faults (phi gap)
inline constexpr std::uint16_t kFusedSwap = 1u << 5;      // fused value is the rhs operand

/// One phi-edge parallel-copy: frame[dst] = frame[src] (all reads first).
struct PhiCopy {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
};

/// One pre-decoded instruction. Fixed-size and fully resolved: executing it
/// never inspects an ir::Value.
struct DecodedOp {
  Op op = Op::kTrap;
  std::uint8_t sub = 0;        // bits (wrap / extend) — see Op comments
  std::uint16_t flags = 0;
  std::uint32_t a = 0;         // slot: pointer / lhs / condition / source
  std::uint32_t b = 0;         // slot: rhs / stored value / index
  std::uint32_t dest = 0;      // result slot
  std::int64_t imm = 0;        // size / byte offset / element size / color / trap id
  std::uint32_t t0 = 0;        // branch target (op index)
  std::uint32_t t1 = 0;
  std::uint32_t phi0 = 0;      // edge copies for t0: phi_pool[phi0, phi0+nphi0)
  std::uint32_t phi1 = 0;
  std::uint16_t nphi0 = 0;
  std::uint16_t nphi1 = 0;
  std::uint16_t nargs = 0;     // call arity
  std::uint8_t sub2 = 0;       // fused: cmp pred / memory size / first binop kind
  std::uint8_t pad_ = 0;
  std::uint32_t args_first = 0;  // call argument slots: arg_pool[args_first, +nargs)
  std::uint16_t aux = 0;       // fused: second binop kind (kBinStore / kBinBin)
  std::uint16_t pad2_ = 0;
  const void* target = nullptr;  // DecodedFunction* / ir::Function*
};

static_assert(sizeof(DecodedOp) == 64, "DecodedOp packs into one cache line");

/// Page-aligned storage for decoded op arrays. With the default allocator the
/// array's base address — and with it the L1 set every hot op maps to —
/// changes per process (heap ASLR), which made the dispatch loops' throughput
/// bimodal across identical runs. Page alignment pins address bits 0..11, so
/// the L1/L2-set layout of the bytecode is identical in every run.
template <typename T>
struct PageAlignedAllocator {
  using value_type = T;
  static constexpr std::align_val_t kAlign{4096};
  PageAlignedAllocator() = default;
  template <typename U>
  explicit PageAlignedAllocator(const PageAlignedAllocator<U>&) {}
  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), kAlign));
  }
  void deallocate(T* p, std::size_t) { ::operator delete(p, kAlign); }
  bool operator==(const PageAlignedAllocator&) const { return true; }
};

using OpVec = std::vector<DecodedOp, PageAlignedAllocator<DecodedOp>>;

struct NativeCode;

/// One function, decoded. Immutable after ProgramCode construction and
/// shared read-only by every executing thread — except the two native-tier
/// fields at the tail, which are monotonic atomics.
struct DecodedFunction {
  const ir::Function* fn = nullptr;
  std::uint32_t num_args = 0;
  std::uint32_t num_slots = 0;    // args + results + constants
  std::uint32_t const_base = 0;   // first constant slot
  std::vector<std::int64_t> const_pool;  // copied to [const_base, …) at entry
  OpVec ops;
  std::vector<PhiCopy> phi_pool;
  std::vector<std::uint32_t> arg_pool;
  std::vector<std::string> traps;  // messages for kTrap ops
  // Fusion provenance (fused code only): origin[i] is the pre-fusion index
  // of ops[i]'s first component; a superinstruction at new index i fused the
  // original ops origin[i] and origin[i]+1. Empty when never fused.
  std::vector<std::uint32_t> origin;
  // Native tier (ExecMode::kNative, jit.hpp). hot_ticks is the per-chunk
  // hotness score: the prime-61 dispatch sampler charges its period hits to
  // the function being executed (not just the opcode — see
  // DispatchTally::touch), so promotion cannot be fooled by a cold chunk
  // sharing a hot chunk's opcode mix. native_code is the compiled unit once
  // the JitEngine promotes this function, published with release ordering
  // after the W^X flip.
  mutable std::atomic<std::uint64_t> hot_ticks{0};
  mutable std::atomic<const NativeCode*> native_code{nullptr};

  DecodedFunction() = default;
  // Decode/fusion-time only — a function is moved while being built, strictly
  // before any thread executes it, so relaxed carries of the (then still
  // zero) native-tier atomics are exact.
  DecodedFunction(DecodedFunction&& other) noexcept
      : fn(other.fn),
        num_args(other.num_args),
        num_slots(other.num_slots),
        const_base(other.const_base),
        const_pool(std::move(other.const_pool)),
        ops(std::move(other.ops)),
        phi_pool(std::move(other.phi_pool)),
        arg_pool(std::move(other.arg_pool)),
        traps(std::move(other.traps)),
        origin(std::move(other.origin)),
        hot_ticks(other.hot_ticks.load(std::memory_order_relaxed)),
        native_code(other.native_code.load(std::memory_order_relaxed)) {}
  DecodedFunction& operator=(DecodedFunction&&) = delete;
};

/// Rewrites @p df in place, peephole-fusing adjacent single-use pairs into
/// superinstructions and recording provenance in df.origin (fusion.cpp).
void fuse_function(DecodedFunction& df);

/// The decoded form of a Machine's whole program. Built once in the Machine
/// constructor; decode resolves globals, function tokens, colors and chunk
/// targets against that machine's address space.
class ProgramCode {
 public:
  /// @p fuse runs the superinstruction fusion pass over every body — every
  /// executing Machine does. Plain decode (fuse=false) is a lowering stage
  /// only: --dump-bytecode prints it, and nothing executes it.
  explicit ProgramCode(Machine& machine, bool fuse = false);
  ProgramCode(const ProgramCode&) = delete;
  ProgramCode& operator=(const ProgramCode&) = delete;

  /// The decoded body of @p fn, or nullptr for declarations.
  [[nodiscard]] const DecodedFunction* get(const ir::Function* fn) const {
    auto it = functions_.find(fn);
    return it != functions_.end() ? it->second.get() : nullptr;
  }

  /// Every decoded body, keyed by IR function (iteration for --dump-bytecode).
  [[nodiscard]] const std::map<const ir::Function*, std::unique_ptr<DecodedFunction>>&
  functions() const {
    return functions_;
  }

 private:
  std::map<const ir::Function*, std::unique_ptr<DecodedFunction>> functions_;
};

class DispatchTally;

/// Per-thread frame stack shared by every BytecodeExecutor on that thread.
/// Chunk dispatch constructs one executor per chunk; giving each its own
/// vector cost a malloc/free per cross-enclave call. Executors instead carve
/// frames out of this arena above the watermark they found it at (and restore
/// it on destruction, so re-entrant executors — direct-dispatch inline
/// spawns, host callbacks calling back in — stack naturally).
struct ExecArena {
  std::vector<std::int64_t> stack;
  std::size_t sp = 0;
};

// Flush the executor's local instruction count into Machine::executed_ at
// most every this many ops (checked at branch points, where loops must pass).
// Namespace-scope so the JIT emitter (jit.cpp) bakes the same threshold into
// compiled flush checks.
inline constexpr std::uint64_t kCountFlushBatch = 8192;

/// Runs fused bytecode on the current thread. One instance per chunk /
/// interface invocation; nested direct calls reuse the same stack arena and
/// the same one-entry memory-region cache.
class BytecodeExecutor {
 public:
  /// @p native allows promotion of hot functions to compiled code
  /// (ExecMode::kNative); otherwise every body runs on fused_loop.
  BytecodeExecutor(Machine& machine, runtime::ThreadRuntime& rt, sgx::ColorId me,
                   bool native = false);
  ~BytecodeExecutor();
  BytecodeExecutor(const BytecodeExecutor&) = delete;
  BytecodeExecutor& operator=(const BytecodeExecutor&) = delete;

  /// Executes @p f with @p args; returns the i64 result (0 for void). In
  /// native mode this is the promotion point: a function whose hotness score
  /// has crossed the machine's threshold is compiled here (once) and entered
  /// natively from then on.
  std::int64_t run(const DecodedFunction* f, std::span<const std::int64_t> args);

 private:
  /// The direct-threaded dispatch loop (computed goto where available,
  /// portable switch otherwise) over @p f's fused code, from @p start_pc with
  /// the frame already pushed at @p base. Also the deopt re-entry point:
  /// native code that bails mid-call resumes here with the same frame,
  /// pending count and live allocas, so results and instruction counts are
  /// identical to never having compiled.
  std::int64_t fused_loop(const DecodedFunction* f, std::size_t base,
                          std::uint32_t start_pc,
                          std::vector<std::uint64_t>& frame_allocas);
  /// The loop proper, templated on whether the dispatch preamble charges
  /// per-chunk hotness for JIT promotion. kFused machines take the false
  /// instantiation, where the hot pointer constant-folds away and the
  /// dispatch loop is register-for-register the pre-JIT loop — measured ~9%
  /// on background_tick.
  template <bool kTrackHot>
  std::int64_t fused_loop_impl(const DecodedFunction* f, std::size_t base,
                               std::uint32_t start_pc,
                               std::vector<std::uint64_t>& frame_allocas);
  /// Enters @p f's compiled code (native.cpp); handles the deopt and
  /// fault-unwind exits.
  std::int64_t run_native(const DecodedFunction* f, const NativeCode* nc,
                          std::span<const std::int64_t> args);

  /// Builds the frame for @p f at the arena watermark and copies args +
  /// constants in. Returns the frame base offset (not a pointer: the arena
  /// may reallocate under nested calls).
  std::size_t push_frame(const DecodedFunction* f, std::span<const std::int64_t> args);

  /// Fast-path pointer for [addr, addr+n): serves from the one-entry region
  /// cache when the shard epoch is unchanged, else re-resolves (and performs
  /// the full access check) through SimMemory.
  std::byte* mem_data(std::uint64_t addr, std::uint64_t n);
  std::int64_t mem_load(std::uint64_t addr, std::uint64_t size, unsigned sx_bits);
  void mem_store(std::uint64_t addr, std::int64_t value, std::uint64_t size);

  /// Adds pending_ to the machine-wide counter and enforces the budget.
  void flush_counter();

  /// Executes one of the eight ops that leave this frame: spawn, cont, wait,
  /// ack, wait_ack and the three calls. The one handler for them, shared by
  /// fused_loop (one instantiation per opcode, inlined into its handler) and
  /// the native tier's big_op thunk (through the untemplated overload). See
  /// fused.cpp for the frame rule every caller must follow afterwards.
  template <Op kOp>
  void runtime_op(const DecodedFunction* f, const DecodedOp& o, std::size_t base);
  void runtime_op(const DecodedFunction* f, const DecodedOp& o, std::size_t base);
  /// The call half of runtime_op: resolves the callee (internal, external or
  /// indirect), gathers the arguments from @p frame and runs it.
  std::int64_t call(const DecodedFunction* f, const DecodedOp& o,
                    const std::int64_t* frame);

  Machine& m_;
  runtime::ThreadRuntime& rt_;
  sgx::ColorId me_;
  const bool native_;
  sgx::SimMemory::RegionHandle cache_;
  ExecArena& arena_;        // this thread's shared frame stack
  std::size_t entry_sp_;    // arena watermark at construction, restored by dtor
  std::uint64_t pending_ = 0;
  DispatchTally* tally_;    // sampled dispatch/hotness counters; null = off

  // native.cpp's helper thunks — the C++ halves of compiled ops — need the
  // executor's memory fast path, counter and call plumbing.
  friend struct NativeHelpers;
};

}  // namespace bc
}  // namespace privagic::interp
