#include "interp/machine.hpp"

#include <atomic>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "interp/bytecode.hpp"
#include "obs/hooks.hpp"
#include "partition/intrinsics.hpp"
#include "support/rng.hpp"
#include "sectype/color.hpp"

namespace privagic::interp {

namespace {

class InterpError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

std::int64_t sign_extend(std::uint64_t raw, unsigned bits) {
  if (bits >= 64) return static_cast<std::int64_t>(raw);
  const std::uint64_t mask = (1ull << bits) - 1;
  raw &= mask;
  const std::uint64_t sign = 1ull << (bits - 1);
  if ((raw & sign) != 0) raw |= ~mask;
  return static_cast<std::int64_t>(raw);
}

double as_double(std::int64_t v) {
  double d;
  std::memcpy(&d, &v, sizeof(d));
  return d;
}

std::int64_t from_double(double d) {
  std::int64_t v;
  std::memcpy(&v, &d, sizeof(v));
  return v;
}

}  // namespace

// ---------------------------------------------------------------------------
// Executor: runs one function body on the current thread.
// ---------------------------------------------------------------------------

class Executor {
 public:
  Executor(Machine& m, runtime::ThreadRuntime& rt, sgx::ColorId me)
      : m_(m), rt_(rt), me_(me) {}

  std::int64_t run(const ir::Function* fn, std::span<const std::int64_t> args) {
    if (fn->is_declaration()) {
      throw InterpError("cannot execute declaration @" + fn->name());
    }
    if (args.size() != fn->arg_count()) {
      throw InterpError("arity mismatch calling @" + fn->name());
    }
    std::unordered_map<const ir::Value*, std::int64_t> frame;
    std::vector<std::uint64_t> frame_allocas;
    for (std::size_t i = 0; i < args.size(); ++i) frame[fn->argument(i)] = args[i];

    const ir::BasicBlock* bb = fn->entry_block();
    const ir::BasicBlock* prev = nullptr;
    std::int64_t result = 0;
    bool ret_charged = false;  // the send before this ret charged it (exec_call)

    while (bb != nullptr) {
      // Phis first, resolved simultaneously against the incoming edge.
      std::vector<std::pair<const ir::Value*, std::int64_t>> phi_values;
      for (const ir::PhiInst* phi : bb->phis()) {
        bool found = false;
        for (std::size_t i = 0; i < phi->incoming_count(); ++i) {
          if (phi->incoming_block(i) == prev) {
            phi_values.emplace_back(phi, eval(frame, phi->incoming_value(i)));
            found = true;
            break;
          }
        }
        if (!found) throw InterpError("phi has no incoming for the taken edge");
      }
      for (const auto& [phi, v] : phi_values) frame[phi] = v;

      const ir::BasicBlock* next = nullptr;
      bool returned = false;
      const auto& insts = bb->instructions();
      for (std::size_t i = 0; i < insts.size(); ++i) {
        const ir::Instruction* inst = insts[i].get();
        if (inst->opcode() == ir::Opcode::kPhi) continue;
        if (ret_charged) {
          ret_charged = false;
        } else if (++m_.executed_ > Machine::kMaxInstructions) {
          throw InterpError("instruction budget exhausted (runaway loop?)");
        }
        switch (inst->opcode()) {
          case ir::Opcode::kRet: {
            const auto* ret = static_cast<const ir::RetInst*>(inst);
            result = ret->has_value() ? eval(frame, ret->value()) : 0;
            returned = true;
            break;
          }
          case ir::Opcode::kBr:
            next = static_cast<const ir::BrInst*>(inst)->target();
            break;
          case ir::Opcode::kCondBr: {
            const auto* cb = static_cast<const ir::CondBrInst*>(inst);
            next = (eval(frame, cb->condition()) & 1) != 0 ? cb->then_block()
                                                           : cb->else_block();
            break;
          }
          case ir::Opcode::kCall:
            ret_charged = exec_call(
                frame, static_cast<const ir::CallInst*>(inst),
                i + 1 < insts.size() && insts[i + 1]->opcode() == ir::Opcode::kRet);
            break;
          default:
            exec_simple(frame, frame_allocas, inst);
            break;
        }
        if (returned || next != nullptr) break;
      }
      if (returned) break;
      if (next == nullptr) throw InterpError("block fell through without terminator");
      prev = bb;
      bb = next;
    }

    for (std::uint64_t addr : frame_allocas) {
      m_.memory_->free(addr, m_.memory_->color_of(addr));
    }
    return result;
  }

 private:
  std::int64_t eval(std::unordered_map<const ir::Value*, std::int64_t>& frame,
                    const ir::Value* v) {
    switch (v->value_kind()) {
      case ir::ValueKind::kConstInt:
        return static_cast<const ir::ConstInt*>(v)->value();
      case ir::ValueKind::kConstFloat:
        return from_double(static_cast<const ir::ConstFloat*>(v)->value());
      case ir::ValueKind::kConstNull:
        return 0;
      case ir::ValueKind::kGlobal: {
        auto it = m_.global_addr_.find(static_cast<const ir::GlobalVariable*>(v));
        if (it == m_.global_addr_.end()) throw InterpError("unknown global @" + v->name());
        return static_cast<std::int64_t>(it->second);
      }
      case ir::ValueKind::kFunction:
        return m_.fn_token_.at(static_cast<const ir::Function*>(v));
      case ir::ValueKind::kArgument:
      case ir::ValueKind::kInstruction: {
        auto it = frame.find(v);
        if (it == frame.end()) throw InterpError("use of unset register %" + v->name());
        return it->second;
      }
    }
    throw InterpError("bad value");
  }

  /// Memory color for new allocations from a color annotation.
  sgx::ColorId alloc_color(const std::string& annotation) const {
    return m_.color_id_of_annotation(annotation);
  }

  /// True for ptr<T color(c)> with a named enclave color — the values the
  /// pointer-authentication runtime MACs in memory (Mode::kHardenedAuth).
  static bool is_authenticated_pointer_type(const ir::Type* t) {
    const auto* pt = dynamic_cast<const ir::PtrType*>(t);
    return pt != nullptr && !pt->pointee_color().empty() && pt->pointee_color() != "U" &&
           pt->pointee_color() != "S";
  }

  static std::uint64_t pointer_mac(std::uint64_t addr) {
    return (fmix64(addr ^ Machine::kPointerAuthSecret) >> 48) << 48;
  }

  void mem_write(std::uint64_t addr, std::int64_t value, std::uint64_t size) {
    std::byte bytes[8];
    std::memcpy(bytes, &value, 8);
    m_.memory_->write(addr, std::span<const std::byte>(bytes, size), me_);
  }

  std::int64_t mem_read(std::uint64_t addr, const ir::Type* type) {
    std::byte bytes[8] = {};
    const std::uint64_t size = type->size_bytes();
    m_.memory_->read(addr, std::span<std::byte>(bytes, size), me_);
    std::uint64_t raw = 0;
    std::memcpy(&raw, bytes, size);
    if (type->is_int()) {
      return sign_extend(raw, static_cast<const ir::IntType*>(type)->bits());
    }
    return static_cast<std::int64_t>(raw);
  }

  void exec_simple(std::unordered_map<const ir::Value*, std::int64_t>& frame,
                   std::vector<std::uint64_t>& frame_allocas, const ir::Instruction* inst) {
    switch (inst->opcode()) {
      case ir::Opcode::kAlloca: {
        const auto* a = static_cast<const ir::AllocaInst*>(inst);
        const std::uint64_t addr =
            m_.memory_->allocate(a->contained_type()->size_bytes(), alloc_color(a->color()));
        frame_allocas.push_back(addr);
        frame[inst] = static_cast<std::int64_t>(addr);
        break;
      }
      case ir::Opcode::kHeapAlloc: {
        const auto* a = static_cast<const ir::HeapAllocInst*>(inst);
        frame[inst] = static_cast<std::int64_t>(
            m_.memory_->allocate(a->contained_type()->size_bytes(), alloc_color(a->color())));
        break;
      }
      case ir::Opcode::kHeapFree: {
        const auto* f = static_cast<const ir::HeapFreeInst*>(inst);
        m_.memory_->free(static_cast<std::uint64_t>(eval(frame, f->pointer())), me_);
        break;
      }
      case ir::Opcode::kLoad: {
        const auto* l = static_cast<const ir::LoadInst*>(inst);
        std::int64_t v =
            mem_read(static_cast<std::uint64_t>(eval(frame, l->pointer())), l->type());
        if (m_.pointer_auth_.load(std::memory_order_relaxed) &&
            is_authenticated_pointer_type(l->type()) && v != 0) {
          // Verify and strip the MAC; a tampered indirection faults here.
          const auto raw = static_cast<std::uint64_t>(v);
          const std::uint64_t addr = raw & ((1ull << 48) - 1);
          if ((raw & ~((1ull << 48) - 1)) != pointer_mac(addr)) {
            throw sgx::AccessViolation("pointer authentication failed on load");
          }
          v = static_cast<std::int64_t>(addr);
        }
        frame[inst] = v;
        break;
      }
      case ir::Opcode::kStore: {
        const auto* s = static_cast<const ir::StoreInst*>(inst);
        std::int64_t v = eval(frame, s->stored_value());
        if (m_.pointer_auth_.load(std::memory_order_relaxed) &&
            is_authenticated_pointer_type(s->stored_value()->type()) && v != 0) {
          const auto addr = static_cast<std::uint64_t>(v);
          v = static_cast<std::int64_t>(addr | pointer_mac(addr));
        }
        mem_write(static_cast<std::uint64_t>(eval(frame, s->pointer())), v,
                  s->stored_value()->type()->size_bytes());
        break;
      }
      case ir::Opcode::kGep: {
        const auto* g = static_cast<const ir::GepInst*>(inst);
        const std::uint64_t base = static_cast<std::uint64_t>(eval(frame, g->base()));
        if (g->is_field_access()) {
          frame[inst] = static_cast<std::int64_t>(
              base + g->struct_type()->field_offset(static_cast<std::size_t>(g->field_index())));
        } else {
          const auto* pt = static_cast<const ir::PtrType*>(inst->type());
          const std::uint64_t elem = pt->pointee()->size_bytes();
          frame[inst] = static_cast<std::int64_t>(
              base + elem * static_cast<std::uint64_t>(eval(frame, g->index())));
        }
        break;
      }
      case ir::Opcode::kBinOp:
        frame[inst] = exec_binop(frame, static_cast<const ir::BinOpInst*>(inst));
        break;
      case ir::Opcode::kICmp:
        frame[inst] = exec_icmp(frame, static_cast<const ir::ICmpInst*>(inst));
        break;
      case ir::Opcode::kCast:
        frame[inst] = exec_cast(frame, static_cast<const ir::CastInst*>(inst));
        break;
      case ir::Opcode::kCallIndirect: {
        const auto* c = static_cast<const ir::CallIndirectInst*>(inst);
        auto it = m_.token_fn_.find(eval(frame, c->function_pointer()));
        if (it == m_.token_fn_.end()) {
          throw InterpError("indirect call through a non-function pointer");
        }
        std::vector<std::int64_t> args;
        for (std::size_t i = 0; i < c->arg_count(); ++i) {
          args.push_back(eval(frame, c->arg(i)));
        }
        const std::int64_t r = dispatch(it->second, args);
        if (!inst->type()->is_void()) frame[inst] = r;
        break;
      }
      default:
        throw InterpError("unexpected opcode");
    }
  }

  std::int64_t exec_binop(std::unordered_map<const ir::Value*, std::int64_t>& frame,
                          const ir::BinOpInst* op) {
    const std::int64_t a = eval(frame, op->lhs());
    const std::int64_t b = eval(frame, op->rhs());
    switch (op->op()) {
      case ir::BinOpKind::kAdd: return wrap(op, a + b);
      case ir::BinOpKind::kSub: return wrap(op, a - b);
      case ir::BinOpKind::kMul: return wrap(op, a * b);
      case ir::BinOpKind::kSDiv:
        if (b == 0) throw InterpError("division by zero");
        return wrap(op, a / b);
      case ir::BinOpKind::kSRem:
        if (b == 0) throw InterpError("remainder by zero");
        return wrap(op, a % b);
      case ir::BinOpKind::kAnd: return a & b;
      case ir::BinOpKind::kOr: return a | b;
      case ir::BinOpKind::kXor: return a ^ b;
      case ir::BinOpKind::kShl: return wrap(op, static_cast<std::int64_t>(
                                                     static_cast<std::uint64_t>(a)
                                                     << (b & 63)));
      case ir::BinOpKind::kLShr:
        return static_cast<std::int64_t>(unsigned_of(op, a) >> (b & 63));
      case ir::BinOpKind::kFAdd: return from_double(as_double(a) + as_double(b));
      case ir::BinOpKind::kFSub: return from_double(as_double(a) - as_double(b));
      case ir::BinOpKind::kFMul: return from_double(as_double(a) * as_double(b));
      case ir::BinOpKind::kFDiv: return from_double(as_double(a) / as_double(b));
    }
    throw InterpError("bad binop");
  }

  static std::uint64_t unsigned_of(const ir::BinOpInst* op, std::int64_t v) {
    const unsigned bits = static_cast<const ir::IntType*>(op->type())->bits();
    if (bits >= 64) return static_cast<std::uint64_t>(v);
    return static_cast<std::uint64_t>(v) & ((1ull << bits) - 1);
  }

  static std::int64_t wrap(const ir::BinOpInst* op, std::int64_t v) {
    if (!op->type()->is_int()) return v;
    return sign_extend(static_cast<std::uint64_t>(v),
                       static_cast<const ir::IntType*>(op->type())->bits());
  }

  std::int64_t exec_icmp(std::unordered_map<const ir::Value*, std::int64_t>& frame,
                         const ir::ICmpInst* op) {
    const std::int64_t a = eval(frame, op->lhs());
    const std::int64_t b = eval(frame, op->rhs());
    switch (op->pred()) {
      case ir::ICmpPred::kEq: return a == b ? 1 : 0;
      case ir::ICmpPred::kNe: return a != b ? 1 : 0;
      case ir::ICmpPred::kSlt: return a < b ? 1 : 0;
      case ir::ICmpPred::kSle: return a <= b ? 1 : 0;
      case ir::ICmpPred::kSgt: return a > b ? 1 : 0;
      case ir::ICmpPred::kSge: return a >= b ? 1 : 0;
    }
    throw InterpError("bad icmp");
  }

  std::int64_t exec_cast(std::unordered_map<const ir::Value*, std::int64_t>& frame,
                         const ir::CastInst* op) {
    const std::int64_t v = eval(frame, op->source());
    switch (op->cast_kind()) {
      case ir::CastKind::kBitcast:
      case ir::CastKind::kPtrToInt:
      case ir::CastKind::kIntToPtr:
        return v;  // 64-bit slots: bit patterns carry over
      case ir::CastKind::kZext: {
        const unsigned from = static_cast<const ir::IntType*>(op->source()->type())->bits();
        if (from >= 64) return v;
        return static_cast<std::int64_t>(static_cast<std::uint64_t>(v) &
                                         ((1ull << from) - 1));
      }
      case ir::CastKind::kSext:
        return v;  // slots are already sign-extended
      case ir::CastKind::kTrunc:
        return sign_extend(static_cast<std::uint64_t>(v),
                           static_cast<const ir::IntType*>(op->type())->bits());
    }
    throw InterpError("bad cast");
  }

  /// Executes @p call. The charging rule (bytecode.hpp): a cont/ack with a
  /// ret right after it (@p ret_follows) charges that ret before sending, so
  /// nothing is charged after a message that may release the leader. Returns
  /// true when it charged the ret; a send that throws takes the charge back.
  bool exec_call(std::unordered_map<const ir::Value*, std::int64_t>& frame,
                 const ir::CallInst* call, bool ret_follows) {
    const ir::Function* callee = call->callee();
    std::vector<std::int64_t> args;
    args.reserve(call->args().size());
    for (ir::Value* a : call->args()) args.push_back(eval(frame, a));

    // Runtime intrinsics.
    const std::string& name = callee->name();
    if (partition::is_intrinsic_name(name)) {
      std::int64_t r = 0;
      bool charged = false;
      if (name == partition::kIntrinsicSpawn) {
        const auto& chunk = m_.program_.chunks.at(static_cast<std::size_t>(args[0]));
        rt_.spawn(m_.program_.color_id(chunk.color), static_cast<std::uint64_t>(args[0]),
                  args[1], args[2], args[3]);
      } else if (name == partition::kIntrinsicCont || name == partition::kIntrinsicAck) {
        if (ret_follows) ++m_.executed_;
        try {
          if (name == partition::kIntrinsicCont) {
            rt_.cont(args[0], args[1], args[2]);
          } else {
            rt_.ack(args[0], args[1]);
          }
        } catch (...) {
          if (ret_follows) --m_.executed_;
          throw;
        }
        charged = ret_follows;
      } else if (name == partition::kIntrinsicWait) {
        r = rt_.wait(static_cast<std::size_t>(me_), args[0]);
      } else {
        rt_.wait_ack(static_cast<std::size_t>(me_), args[0]);
      }
      if (!call->type()->is_void()) frame[call] = r;
      return charged;
    }

    const std::int64_t r = dispatch(callee, args);
    if (!call->type()->is_void()) frame[call] = r;
    return false;
  }

  /// Direct or indirect call target: local functions execute on this worker;
  /// declarations go through the machine's shared external dispatch.
  std::int64_t dispatch(const ir::Function* callee, std::span<const std::int64_t> args) {
    if (!callee->is_declaration()) {
      Executor nested(m_, rt_, me_);
      return nested.run(callee, args);
    }
    // Flush point: external code may block on effects of messages we have
    // batched but not delivered (net_send → another machine thread, etc.).
    rt_.flush_current();
    return m_.call_external(callee, args, me_);
  }

  Machine& m_;
  runtime::ThreadRuntime& rt_;
  sgx::ColorId me_;
};

// ---------------------------------------------------------------------------
// Machine
// ---------------------------------------------------------------------------

namespace {

std::uint64_t next_machine_generation() {
  static std::atomic<std::uint64_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

Machine::Machine(const partition::PartitionResult& program, std::uint64_t epc_limit_bytes,
                 ExecMode mode)
    : program_(program), mode_(mode), generation_(next_machine_generation()) {
  memory_ = std::make_unique<sgx::SimMemory>(epc_limit_bytes);
  allocate_globals(epc_limit_bytes);

  // Function-pointer tokens (top half of the address space, never allocated).
  std::int64_t next_token = static_cast<std::int64_t>(1ull << 62);
  for (const auto& fn : program_.module->functions()) {
    fn_token_[fn.get()] = next_token;
    token_fn_[next_token] = fn.get();
    ++next_token;
  }

  // Decode and fuse after globals and tokens exist: operand lowering bakes
  // their addresses into the per-function constant pools.
  if (mode_ != ExecMode::kTreeWalk) {
    code_ = std::make_unique<bc::ProgramCode>(*this, /*fuse=*/true);
  }
}

Machine::WorkerGroup& Machine::current_group() {
  // Every interface call lands here; the mutex + map lookup below is per-call
  // overhead on the hot path. A thread_local memo of the last (machine,
  // group) pair this thread resolved short-circuits it: the generation check
  // keeps a recycled Machine address from hitting a stale entry, and the
  // group stays valid for the machine's whole lifetime (groups_ never
  // erases).
  struct CachedGroup {
    const Machine* machine = nullptr;
    std::uint64_t generation = 0;
    WorkerGroup* group = nullptr;
  };
  thread_local CachedGroup cached;
  if (cached.machine == this && cached.generation == generation_) {
    return *cached.group;
  }
  const std::lock_guard<std::mutex> lock(groups_mu_);
  auto& slot = groups_[std::this_thread::get_id()];
  if (slot == nullptr) {
    auto group = std::make_unique<WorkerGroup>();
    runtime::RecoveryOptions options = group_options_;
    if (options.checkpoint.enabled) {
      // Per-enclave checkpoints carry the enclave's SimMemory image, so a
      // restarted enclave resumes with the globals/heap it crashed with.
      // Under a placement plan an enclave hosts a *group* of colors; the
      // group hooks merge/fan out the member images (identity placement
      // degenerates to the old single-color behavior).
      // Caller-supplied hooks (tests attacking the serializer) take priority.
      if (!options.checkpoint.state_snapshot) {
        options.checkpoint.state_snapshot = [this](std::size_t color) {
          return snapshot_group_state(color);
        };
      }
      if (!options.checkpoint.state_restore) {
        options.checkpoint.state_restore = [this](std::size_t color,
                                                  std::span<const std::byte> image) {
          restore_group_state(color, image);
        };
      }
    }
    // The chunk runner needs the group it belongs to (nested waits pull from
    // its mailboxes). group->runtime is set before any spawn can reach the
    // new workers: a spawn's mailbox crossing orders it.
    group->runtime = std::make_unique<runtime::ThreadRuntime>(
        program_.color_table.size(),
        [this, g = group.get()](std::size_t, std::uint64_t chunk, std::int64_t tags,
                                std::int64_t leader, std::int64_t flags) {
          run_chunk(*g, chunk, tags, leader, flags);
        },
        std::move(options));
    slot = std::move(group);
  }
  cached = CachedGroup{this, generation_, slot.get()};
  return *slot;
}

Machine::~Machine() {
  const std::lock_guard<std::mutex> lock(groups_mu_);
  for (auto& [tid, group] : groups_) {
    (void)tid;
    group->runtime->shutdown();
  }
}

void Machine::allocate_globals(std::uint64_t /*epc_limit_bytes*/) {
  for (const auto& g : program_.module->globals()) {
    const sgx::ColorId color = color_id_of_annotation(g->color());
    const std::uint64_t size = g->contained_type()->size_bytes();
    const std::uint64_t addr = memory_->allocate(size, color);
    global_addr_[g.get()] = addr;
    if (g->int_init() != 0 && g->contained_type()->is_int()) {
      std::byte bytes[8];
      const std::int64_t init = g->int_init();
      std::memcpy(bytes, &init, 8);
      memory_->write(addr, std::span<const std::byte>(bytes, size), color);
    }
  }
}

sgx::ColorId Machine::color_id_of_annotation(const std::string& annotation) const {
  if (annotation.empty()) return sgx::kUnsafe;
  const std::int64_t id =
      program_.color_id(sectype::color_from_annotation(annotation));
  if (id < 0) throw InterpError("color '" + annotation + "' not in the color table");
  return id;
}

void Machine::bind_external(std::string name, ExternalFn fn) {
  externals_[std::move(name)] = std::move(fn);
}

void Machine::run_chunk(WorkerGroup& group, std::uint64_t chunk_id, std::int64_t tags,
                        std::int64_t leader, std::int64_t flags) {
  runtime::ThreadRuntime& rt = *group.runtime;
  const partition::ChunkInfo& info = program_.chunks.at(chunk_id);
  try {
    if (info.trampoline == nullptr) {
      throw InterpError("chunk " + info.fn->name() + " spawned without a trampoline");
    }
    const sgx::ColorId me = program_.color_id(info.color);
    obs::on_chunk_dispatch(me, static_cast<std::int64_t>(chunk_id), leader);
    const std::int64_t args[3] = {tags, leader, flags};
    exec_function(rt, info.trampoline, std::span<const std::int64_t>(args, 3), me);
  } catch (const std::exception& e) {
    // Record the failure (keeping the runtime's failure kind when the
    // recovery protocol produced it) and still complete the message protocol
    // so the leader does not deadlock; the group's call() surfaces the error
    // afterwards. The record is written before the messages below, whose
    // crossing orders it before the leader's return.
    {
      const std::lock_guard<std::mutex> lock(group.mu);
      if (!group.failed.load(std::memory_order_relaxed)) {
        group.error = e.what();
        if (const auto* fault = dynamic_cast<const runtime::RuntimeFault*>(&e)) {
          group.code = fault->code();
        } else if (dynamic_cast<const sgx::EpcExhausted*>(&e) != nullptr) {
          group.code = sgx::EpcExhausted::code();
        } else {
          group.code = StatusCode::kGeneric;
        }
        group.failed.store(true, std::memory_order_release);
      }
    }
    if ((flags & partition::kFlagSendResult) != 0) {
      rt.cont(leader, tags + partition::kTagResultToLeader, 0);
    }
    rt.ack(leader, tags + partition::kTagCompletion);
  }
}

void Machine::set_placement(std::vector<std::size_t> slot_table) {
  const std::size_t n = program_.color_table.size();
  if (!slot_table.empty()) {
    if (slot_table.size() != n) {
      throw InterpError("placement slot table must cover the whole color table");
    }
    if (slot_table[0] != 0) {
      throw InterpError("placement must keep U (color 0) alone at slot 0");
    }
    for (std::size_t c = 0; c < n; ++c) {
      const std::size_t s = slot_table[c];
      if (s >= n || slot_table[s] != s || (c != 0 && s == 0)) {
        throw InterpError("placement slot table is not an idempotent leader map");
      }
    }
  }
  // Re-key the EPC budgets immediately: the globals were allocated in the
  // constructor, so the group budgets must absorb their existing usage.
  std::vector<sgx::ColorId> leaders(slot_table.size());
  for (std::size_t c = 0; c < slot_table.size(); ++c) {
    leaders[c] = static_cast<sgx::ColorId>(slot_table[c]);
  }
  group_options_.color_slot = std::move(slot_table);
  memory_->set_color_groups(std::move(leaders));
}

std::vector<std::byte> Machine::snapshot_group_state(std::size_t leader) const {
  std::vector<std::byte> out(sizeof(std::uint64_t));
  std::uint64_t total = 0;
  for (std::size_t c = 0; c < program_.color_table.size(); ++c) {
    const std::size_t slot = placement().empty() ? c : placement()[c];
    if (slot != leader) continue;
    const std::vector<std::byte> img =
        memory_->serialize_color(static_cast<sgx::ColorId>(c));
    std::uint64_t count = 0;
    std::memcpy(&count, img.data(), sizeof count);
    total += count;
    out.insert(out.end(), img.begin() + static_cast<std::ptrdiff_t>(sizeof count),
               img.end());
  }
  std::memcpy(out.data(), &total, sizeof total);
  return out;
}

void Machine::restore_group_state(std::size_t leader, std::span<const std::byte> image) {
  // restore_color only rewrites regions whose recorded color matches, so
  // feeding the merged image to each member restores exactly its slice.
  for (std::size_t c = 0; c < program_.color_table.size(); ++c) {
    const std::size_t slot = placement().empty() ? c : placement()[c];
    if (slot != leader) continue;
    memory_->restore_color(static_cast<sgx::ColorId>(c), image);
  }
}

runtime::RuntimeStats::Snapshot Machine::runtime_stats() const {
  runtime::RuntimeStats total;
  {
    const std::lock_guard<std::mutex> lock(groups_mu_);
    for (const auto& [tid, group] : groups_) {
      (void)tid;
      total.accumulate(group->runtime->stats_snapshot());
    }
  }
  const runtime::RuntimeStats::Snapshot snap = total.snapshot();
  if (obs::metrics_enabled()) {
    // Mirror (set, not add: snapshots are cumulative) the aggregated recovery
    // counters into the registry, so BENCH files embedding a metrics section
    // carry them next to the hook-recorded series.
    auto& reg = obs::MetricsRegistry::global();
    reg.counter("runtime.messages_sent").set(snap.messages_sent);
    reg.counter("runtime.duplicates_discarded").set(snap.duplicates_discarded);
    reg.counter("runtime.corrupt_dropped").set(snap.corrupt_dropped);
    reg.counter("runtime.forged_spawn_rejects").set(snap.forged_spawn_rejects);
    reg.counter("runtime.wait_timeouts").set(snap.wait_timeouts);
    reg.counter("runtime.retries").set(snap.retries);
    reg.counter("runtime.retransmits").set(snap.retransmits);
    reg.counter("runtime.poisoned_workers").set(snap.poisoned_workers);
    reg.counter("runtime.batched_messages").set(snap.batched_messages);
    reg.counter("runtime.batch_flushes").set(snap.batch_flushes);
    reg.counter("runtime.calls_elided").set(snap.calls_elided);
    reg.counter("runtime.slab_highwater").set(snap.slab_highwater);
    reg.counter("runtime.worker_crashes").set(snap.worker_crashes);
    reg.counter("runtime.failovers").set(snap.failovers);
    reg.counter("runtime.cold_restarts").set(snap.cold_restarts);
    reg.counter("runtime.checkpoints_taken").set(snap.checkpoints_taken);
    reg.counter("runtime.checkpoint_bytes").set(snap.checkpoint_bytes);
    reg.counter("runtime.journal_entries").set(snap.journal_entries);
    reg.counter("runtime.replay_entries").set(snap.replay_entries);
    reg.counter("runtime.replayed_sends").set(snap.replayed_sends);
    reg.counter("runtime.checkpoint_rejects_stale").set(snap.checkpoint_rejects_stale);
    reg.counter("runtime.checkpoint_rejects_tampered")
        .set(snap.checkpoint_rejects_tampered);
    reg.counter("runtime.restart_ns_charged").set(snap.restart_ns_charged);
  }
  return snap;
}

std::int64_t Machine::exec_function(runtime::ThreadRuntime& rt, const ir::Function* fn,
                                    std::span<const std::int64_t> args, sgx::ColorId me) {
  if (mode_ != ExecMode::kTreeWalk) {
    const bc::DecodedFunction* df = code_->get(fn);
    if (df == nullptr) throw InterpError("cannot execute declaration @" + fn->name());
    bc::BytecodeExecutor exec(*this, rt, me);
    return exec.run(df, args);
  }
  Executor exec(*this, rt, me);
  return exec.run(fn, args);
}

std::int64_t Machine::call_external(const ir::Function* callee,
                                    std::span<const std::int64_t> args, sgx::ColorId me) {
  if (external_log_enabled_.load(std::memory_order_relaxed)) {
    std::ostringstream entry;
    entry << callee->name() << "(";
    for (std::size_t i = 0; i < args.size(); ++i) {
      if (i > 0) entry << ", ";
      entry << args[i];
    }
    entry << ")";
    log_external(entry.str());
  }
  auto it = externals_.find(callee->name());
  if (it == externals_.end()) return 0;
  ExternalCtx ctx{*this, me};
  return it->second(ctx, args);
}

std::optional<Result<std::int64_t>> Machine::take_worker_error(WorkerGroup& group) {
  // The fault-free path: one load, no lock.
  if (!group.failed.load(std::memory_order_acquire)) return std::nullopt;
  std::string error;
  StatusCode code = StatusCode::kGeneric;
  {
    const std::lock_guard<std::mutex> lock(group.mu);
    error = std::move(group.error);
    code = group.code;
    group.error.clear();
    group.failed.store(false, std::memory_order_relaxed);
  }
  // A worker failed mid-protocol; surface its failure kind so callers can
  // branch on it (a recovery timeout is a runtime trap, not a hang).
  return Result<std::int64_t>(Status::error(code, "worker failed: " + error));
}

Result<std::int64_t> Machine::call(const std::string& name, std::vector<std::int64_t> args) {
  auto it = program_.interfaces.find(name);
  const ir::Function* fn =
      it != program_.interfaces.end() ? it->second : program_.module->function_by_name(name);
  if (fn == nullptr) {
    return Result<std::int64_t>::error("no interface named @" + name);
  }
  // One call is one request: sampled or not as a whole, and its id rides in
  // every message the call sends (obs/hooks.hpp). Opened before the span so
  // that the span's events belong to it.
  const obs::RequestScope request;
  // Trace span around the whole interface call (every exit path, including
  // throws, emits the matching kCallExit via the destructor).
  struct CallSpan {
    std::int64_t token;
    std::int64_t result = -1;
    std::uint64_t start_tick;
    explicit CallSpan(std::int64_t t)
        : token(t), start_tick(obs::on_call_enter(sgx::kUnsafe, t)) {}
    ~CallSpan() { obs::on_call_exit(sgx::kUnsafe, token, result, start_tick); }
  };
  std::int64_t span_token = -1;
  if (obs::tracing_request()) {  // don't pay the token lookup for an untraced call
    const auto token_it = fn_token_.find(fn);
    if (token_it != fn_token_.end()) span_token = token_it->second;
  }
  CallSpan span(span_token);
  WorkerGroup* group = nullptr;
  try {
    group = &current_group();
    runtime::ThreadRuntime& rt = *group->runtime;
    const std::int64_t r = exec_function(rt, fn, args, sgx::kUnsafe);
    // Flush point: the application thread may now leave the runtime's
    // control for arbitrarily long (this is the interface boundary), so any
    // trailing sibling cont/ack it batched must become visible to workers.
    rt.flush_current();
    span.result = r;
    // Take the group's worker-side failure AND clear it, so one failed call
    // does not poison every later call of this thread.
    if (auto failed = take_worker_error(*group)) return *failed;
    return r;
  } catch (const runtime::RuntimeFault& f) {
    // A driver-side fault (timed-out wait, retransmit exhaustion) is often
    // the *symptom* of a worker that already died mid-chunk — e.g. a typed
    // EPC-budget fault inside an enclave leaves the driver waiting on a cont
    // that never comes. Prefer the worker's recorded root cause so callers
    // (and both engines) see the same typed status either way.
    if (group != nullptr) {
      if (auto failed = take_worker_error(*group)) return *failed;
    }
    return Result<std::int64_t>(f.status());
  } catch (const sgx::EpcExhausted& e) {
    // A host-side (unsafe-entry) allocation blew a color's budget: same
    // typed code the worker-side path records, so both engines and both
    // throw sites look identical to callers.
    return Result<std::int64_t>(Status::error(sgx::EpcExhausted::code(), e.what()));
  } catch (const std::exception& e) {
    return Result<std::int64_t>::error(e.what());
  }
}

std::uint64_t Machine::global_address(const std::string& name) const {
  const ir::GlobalVariable* g = program_.module->global_by_name(name);
  if (g == nullptr) throw InterpError("no global @" + name);
  return global_addr_.at(g);
}

void Machine::log_external(const std::string& entry) {
  const std::lock_guard<std::mutex> lock(log_mu_);
  external_log_.push_back(entry);
}

std::vector<std::string> Machine::external_log() const {
  const std::lock_guard<std::mutex> lock(log_mu_);
  return external_log_;
}

}  // namespace privagic::interp
