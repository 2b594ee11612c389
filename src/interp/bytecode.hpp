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
// points every kCountFlushBatch ops, before every mailbox op, and
// unconditionally on unwind, so the budget check costs one atomic RMW per
// few thousand instructions instead of one per instruction.
//
// The charging rule, shared with the tree-walker: everything a thread
// executes is charged before the message that could release another thread,
// and a cont/ack immediately followed by a ret charges that ret together
// with the send (decode marks such sends kChargesRet; the ret is then not
// charged again). A chunk trampoline ends `ack; ret`, so its last charge
// lands before the ack that lets the leader resume: instructions_executed()
// read right after call() returns is exactly the tree-walker's count,
// whenever the transport delivers the ack — including on fault paths.
//
// Decode-time resolution failures (unknown colors in dead code, entry-block
// phis) become kTrap ops that throw the tree-walker's exact message if — and
// only if — the offending instruction is actually executed.
#pragma once

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
inline constexpr std::uint16_t kChargesRet = 1u << 6;     // cont/ack: the next op is a ret

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

/// One function, decoded. Immutable after ProgramCode construction and
/// shared read-only by every executing thread.
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
inline constexpr std::uint64_t kCountFlushBatch = 8192;

/// Runs fused bytecode on the current thread. One instance per chunk /
/// interface invocation; nested direct calls reuse the same stack arena and
/// the same one-entry memory-region cache.
class BytecodeExecutor {
 public:
  BytecodeExecutor(Machine& machine, runtime::ThreadRuntime& rt, sgx::ColorId me);
  ~BytecodeExecutor();
  BytecodeExecutor(const BytecodeExecutor&) = delete;
  BytecodeExecutor& operator=(const BytecodeExecutor&) = delete;

  /// Executes @p f with @p args; returns the i64 result (0 for void).
  std::int64_t run(const DecodedFunction* f, std::span<const std::int64_t> args);

 private:
  /// The direct-threaded dispatch loop (computed goto where available,
  /// portable switch otherwise) over @p f's fused code, with the frame
  /// already pushed at @p base.
  std::int64_t fused_loop(const DecodedFunction* f, std::size_t base,
                          std::vector<std::uint64_t>& frame_allocas);

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

  /// Adds pending_ plus @p ahead not-yet-dispatched ops to the machine-wide
  /// counter and enforces the budget. pending_ is left at -ahead (mod 2^64):
  /// the ahead ops' own dispatch brings it back to 0, and if they never run
  /// the unwind flush takes the charge back.
  void flush_counter(std::uint64_t ahead = 0);

  /// Executes one of the eight ops that leave this frame: spawn, cont, wait,
  /// ack, wait_ack and the three calls — one instantiation per opcode,
  /// inlined into its fused_loop handler. See fused.cpp for the frame rule
  /// every caller must follow afterwards.
  template <Op kOp>
  void runtime_op(const DecodedFunction* f, const DecodedOp& o, std::size_t base);
  /// The call half of runtime_op: resolves the callee (internal, external or
  /// indirect), gathers the arguments from @p frame and runs it.
  std::int64_t call(const DecodedFunction* f, const DecodedOp& o,
                    const std::int64_t* frame);

  Machine& m_;
  runtime::ThreadRuntime& rt_;
  sgx::ColorId me_;
  sgx::SimMemory::RegionHandle cache_;
  ExecArena& arena_;        // this thread's shared frame stack
  std::size_t entry_sp_;    // arena watermark at construction, restored by dtor
  std::uint64_t pending_ = 0;
  DispatchTally* tally_;    // sampled dispatch counters; null = metrics off
};

}  // namespace bc
}  // namespace privagic::interp
