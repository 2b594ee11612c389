// PIR interpreter over the simulated SGX machine.
//
// A Machine loads a PartitionResult and executes its interface functions the
// way the Privagic runtime would (§7.3, Figure 7):
//  * the calling application thread is the U worker; one worker thread per
//    enclave color runs chunk trampolines (runtime::ThreadRuntime);
//  * every load/store goes through sgx::SimMemory with the executing
//    worker's color as the access mode, so any partitioning bug that lets a
//    chunk touch another enclave's memory faults immediately;
//  * pvg.* intrinsics map to the runtime's mailboxes;
//  * external functions dispatch to host callbacks registered with
//    bind_external() (and are recorded in a call log the tests use to check
//    §7.3.3's ordering guarantees).
//
// Values are 64-bit slots: integers sign-extended, doubles as bit patterns,
// pointers as simulated addresses, functions as pseudo-address tokens.
//
// Machines are multi-application-threaded, matching §7.3.1 exactly: "the
// Privagic runtime runs a worker thread in each enclave for each application
// thread". Every host thread that calls into the machine lazily gets its own
// ThreadRuntime (one mailbox + worker per color); simulated memory is shared
// and internally synchronized, so concurrent entry calls interleave like the
// threads of a real partitioned application.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <string>
#include <vector>

#include "partition/partitioner.hpp"
#include "runtime/fault_injector.hpp"
#include "runtime/runtime_stats.hpp"
#include "runtime/workers.hpp"
#include "sgx/memory.hpp"
#include "support/status.hpp"

namespace privagic::interp {

namespace bc {
class ProgramCode;
class BytecodeExecutor;
class Decoder;
}  // namespace bc

/// Which engine executes function bodies (DESIGN.md §9, §13). kFused is the
/// default and the one production engine: superinstruction-fused register
/// bytecode on a direct-threaded dispatch loop (src/interp/fusion.cpp,
/// fused.cpp). kTreeWalk is the original AST walker, kept as the reference
/// oracle (tests/interp_equiv_test.cpp runs every program under both and
/// compares the fused results against it).
enum class ExecMode { kTreeWalk, kFused };

class Machine {
 public:
  /// Host-side implementation of an external function. Receives the raw
  /// 64-bit arguments and may touch simulated memory through the machine
  /// (with the calling worker's color).
  struct ExternalCtx {
    Machine& machine;
    sgx::ColorId color;  // the worker executing the call
  };
  using ExternalFn =
      std::function<std::int64_t(ExternalCtx&, std::span<const std::int64_t>)>;

  /// @p epc_limit_bytes: per-enclave EPC cap (0 = unlimited).
  explicit Machine(const partition::PartitionResult& program,
                   std::uint64_t epc_limit_bytes = 0,
                   ExecMode mode = ExecMode::kFused);
  ~Machine();
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  /// Registers a handler for calls to external function @p name. Unbound
  /// externals return 0 (and are still logged).
  void bind_external(std::string name, ExternalFn fn);

  /// Invokes interface @p name with 64-bit arguments. Callable from any
  /// host thread; each calling thread owns its worker group (§7.3.1).
  [[nodiscard]] Result<std::int64_t> call(const std::string& name,
                                          std::vector<std::int64_t> args);

  /// The simulated memory (attacker assertions, test setup).
  [[nodiscard]] sgx::SimMemory& memory() { return *memory_; }

  /// Address of a global by name (for tests to pre-/post-inspect state).
  [[nodiscard]] std::uint64_t global_address(const std::string& name) const;

  /// Chronological log of external calls: "printf(0)" etc. Recording is
  /// opt-in — formatting every external call costs an ostringstream per
  /// dispatch, which benchmarks must not pay for. Call
  /// set_external_log_enabled(true) before the first call() to use it.
  [[nodiscard]] std::vector<std::string> external_log() const;

  /// Turns external-call log recording on/off. Worker threads read the flag
  /// while it may still be toggled from the host thread, so it is a relaxed
  /// atomic — it gates logging only and orders nothing.
  void set_external_log_enabled(bool on) {
    external_log_enabled_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] bool external_log_enabled() const {
    return external_log_enabled_.load(std::memory_order_relaxed);
  }

  /// The engine this machine executes with (fixed at construction).
  [[nodiscard]] ExecMode exec_mode() const { return mode_; }

  /// The pre-decoded, fusion-rewritten bytecode, or
  /// nullptr in kTreeWalk mode. Read-only: --dump-bytecode and the fusion
  /// tests inspect listings through this.
  [[nodiscard]] const bc::ProgramCode* program_code() const { return code_.get(); }

  /// Total instructions executed (all workers). Exact as soon as call()
  /// returns, on both engines: every chunk charges its instructions before
  /// the message that releases its leader (the rule in bytecode.hpp).
  [[nodiscard]] std::uint64_t instructions_executed() const { return executed_; }

  /// Attacker hook: injects a forged spawn message directly into a worker's
  /// mailbox (the queues live in unsafe memory, §8) — the spawn guard must
  /// drop it.
  void inject_attacker_spawn(std::int64_t target_color, std::uint64_t chunk) {
    current_group().runtime->inject_raw(target_color,
                                        runtime::Message::spawn(chunk, 0, 0, 0));
  }

  /// Enables the runtime's fault-recovery protocol for worker groups created
  /// from now on (groups are created lazily, one per calling host thread):
  /// waits are timed with bounded retry + retransmission. A wait that
  /// exhausts recovery surfaces from call() as a Status with a typed code
  /// (kTimeout / kRetransmitExhausted / kWorkerPoisoned / kAttestationFailed)
  /// instead of deadlocking. Microsecond-typed so failover configs can run
  /// sub-ms deadlines; millisecond literals convert implicitly.
  void enable_fault_recovery(std::chrono::microseconds wait_deadline, int max_retries = 3) {
    group_options_.wait_deadline = wait_deadline;
    group_options_.max_retries = max_retries;
  }

  /// Enables §12 crash recovery for worker groups created from now on. The
  /// machine fills in the embedder state hooks itself — a color's checkpoint
  /// payload embeds its SimMemory region image (sgx::SimMemory::
  /// serialize_color), so a restarted enclave resumes with the memory it
  /// crashed with. Pass options with enabled=true (and hot_failover for warm
  /// standby takeover); any state_snapshot/state_restore already set win.
  void enable_crash_recovery(runtime::CheckpointOptions options) {
    group_options_.checkpoint = std::move(options);
  }

  /// Attacker hooks over the §12 machinery of the CALLING host thread's
  /// worker group (created on first use, like every other group hook here).
  void arm_worker_crash(std::size_t color, runtime::CrashPoint point,
                        std::uint64_t nth = 0) {
    current_group().runtime->arm_crash(color, point, nth);
  }
  void inject_worker_crash(std::int64_t color) {
    current_group().runtime->inject_crash(color);
  }
  void tamper_worker_checkpoint(std::size_t color) {
    current_group().runtime->tamper_checkpoint(color);
  }

  /// Attaches an adversarial interposer to every mailbox of worker groups
  /// created from now on (tests/bench: call before the first call()).
  void set_fault_injector(runtime::FaultInjector* injector) {
    group_options_.injector = injector;
  }

  /// Installs a placement plan (DESIGN.md §15): @p slot_table maps each
  /// color-table index to the index of its enclave-group leader
  /// (slot_table[c] == c for leaders; empty = identity, one enclave per
  /// color — the default). Takes effect immediately for EPC budgeting
  /// (co-resident colors charge one shared budget keyed by the leader) and
  /// for worker groups created from now on (co-resident colors share the
  /// leader's worker thread and mailbox, so their mutual traffic rides the
  /// same-color inline-dispatch path and never crosses an enclave
  /// boundary). Access checks remain per color — co-residence never weakens
  /// confidentiality. Configure before the first call(). Throws on a table
  /// that is not an idempotent leader map keeping U (index 0) alone at
  /// slot 0. PlacementPlan::slot_table (analysis/placement.hpp) produces
  /// tables in exactly this shape.
  void set_placement(std::vector<std::size_t> slot_table);
  [[nodiscard]] const std::vector<std::size_t>& placement() const {
    return group_options_.color_slot;
  }

  /// Aggregated recovery/fault counters over every worker group.
  [[nodiscard]] runtime::RuntimeStats::Snapshot runtime_stats() const;

  /// Enables pointer authentication (the Mode::kHardenedAuth runtime): every
  /// value of type ptr<T color(c)> is MAC'd when stored to memory and
  /// verified+stripped when loaded; a tampered pointer faults at the load.
  void enable_pointer_auth() { pointer_auth_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool pointer_auth_enabled() const {
    return pointer_auth_.load(std::memory_order_relaxed);
  }

 private:
  friend class Executor;
  friend class bc::ProgramCode;
  friend class bc::BytecodeExecutor;
  friend class bc::Decoder;

  /// One application thread's worker group (§7.3.1), and the first failure
  /// one of its workers recorded mid-protocol. Only that thread's call()
  /// takes the record, so one client's enclave fault never surfaces from
  /// another client's call.
  struct WorkerGroup {
    std::unique_ptr<runtime::ThreadRuntime> runtime;
    std::atomic<bool> failed{false};  // call() reads it before taking mu
    std::mutex mu;
    std::string error;
    StatusCode code = StatusCode::kGeneric;
  };

  void allocate_globals(std::uint64_t epc_limit_bytes);
  [[nodiscard]] sgx::ColorId color_id_of_annotation(const std::string& annotation) const;
  /// The calling host thread's worker group, created on first use (§7.3.1).
  WorkerGroup& current_group();
  void run_chunk(WorkerGroup& group, std::uint64_t chunk_id, std::int64_t tags,
                 std::int64_t leader, std::int64_t flags);
  std::int64_t exec_function(runtime::ThreadRuntime& rt, const ir::Function* fn,
                             std::span<const std::int64_t> args, sgx::ColorId me);
  /// Dispatches a call to a declaration: records it in the external log when
  /// enabled, then invokes the bound handler (unbound externals return 0).
  /// Shared by both engines.
  std::int64_t call_external(const ir::Function* callee,
                             std::span<const std::int64_t> args, sgx::ColorId me);
  /// Snapshots and clears the first failure @p group's workers recorded, as
  /// a ready-to-return error Result; std::nullopt when none failed.
  [[nodiscard]] static std::optional<Result<std::int64_t>> take_worker_error(
      WorkerGroup& group);
  /// §12 checkpoint hooks, placement-aware: the image for a group leader
  /// carries every co-resident color's regions (merged serialize_color
  /// images); restore feeds the merged image back per member color.
  [[nodiscard]] std::vector<std::byte> snapshot_group_state(std::size_t leader) const;
  void restore_group_state(std::size_t leader, std::span<const std::byte> image);
  void log_external(const std::string& entry);

  const partition::PartitionResult& program_;
  const ExecMode mode_;
  // Machine identity for the per-thread worker-group cache in
  // current_group(): unique across all Machines ever constructed, so a cache
  // entry can never alias a reincarnation of this address.
  const std::uint64_t generation_;
  std::unique_ptr<sgx::SimMemory> memory_;
  // The whole program pre-decoded and fused to register bytecode (kFused;
  // null in kTreeWalk).
  std::unique_ptr<bc::ProgramCode> code_;
  // One worker group per application (host) thread, §7.3.1.
  mutable std::mutex groups_mu_;
  std::map<std::thread::id, std::unique_ptr<WorkerGroup>> groups_;
  std::map<std::string, ExternalFn> externals_;
  std::map<const ir::GlobalVariable*, std::uint64_t> global_addr_;
  // Function-pointer tokens.
  std::map<const ir::Function*, std::int64_t> fn_token_;
  std::map<std::int64_t, const ir::Function*> token_fn_;
  mutable std::mutex log_mu_;
  std::vector<std::string> external_log_;
  std::atomic<std::uint64_t> executed_{0};
  // Host-thread-set, worker-thread-read flags. They were plain bools — an
  // unsynchronized read under TSan when a test toggles them after workers
  // exist — and carry no ordering requirement, so relaxed atomics suffice.
  std::atomic<bool> pointer_auth_{false};
  std::atomic<bool> external_log_enabled_{false};
  // The runtime configuration of lazily created worker groups: recovery
  // deadlines, §12 checkpoints, the injector and the §15 placement plan
  // (color_slot). Set before the first call() and read by worker threads
  // afterwards, so no lock is needed. The message guard (§8 extension) is
  // always on: legitimate messages are MAC'd under an enclave-held secret.
  runtime::RecoveryOptions group_options_{.spawn_secret = 0x9E3779B97F4A7C15ull};
  static constexpr std::uint64_t kMaxInstructions = 200'000'000;
  static constexpr std::uint64_t kPointerAuthSecret = 0xC0FFEE123456789Bull;
};

}  // namespace privagic::interp
