// Simulated SGX memory (§2.1).
//
// A flat 64-bit address space split into tagged allocations. Each allocation
// belongs to a color id (0 = unsafe memory, >0 = an enclave). Accesses are
// checked against the paper's functional model of SGX:
//   * normal mode (color 0) cannot read or write enclave memory;
//   * enclave mode c can access enclave c and unsafe memory, but not other
//     enclaves (only one enclave is active at a time).
// Violations throw AccessViolation — the interpreter's confidentiality tests
// assert both that partitioned programs never trigger one and that a
// simulated attacker reading enclave memory from normal mode always does.
//
// == EPC budget (DESIGN.md §14) ==
//
// Per-enclave protected memory is governed by an EpcBudget with two tiers:
//
//   * a *soft watermark* over a simulated physical EPC (epc_bytes ×
//     watermark): when a color's resident set crosses it, regions are paged
//     out by an LRU-approximating clock (referenced bits set by slow-path
//     accesses, cleared as the hand sweeps) and every page moved charges the
//     cost model's epc_fault_ns — the EWB write-back of SGXv1. A later
//     slow-path access to a paged-out region faults it back in (ELDU) at the
//     same per-page cost. Nothing is ever lost; only simulated time and the
//     eviction/fault counters move.
//   * a *hard cap* (hard_limit) on a color's total allocated bytes: the
//     enforced budget. Exceeding it throws EpcExhausted, which carries
//     StatusCode::kEpcExhausted and surfaces identically through both
//     execution engines (the engines share this allocator).
//
// The executors' pinned RegionHandle fast path deliberately bypasses the
// clock: a pinned handle models a hot page whose referenced bit stays set.
// Only slow-path traffic (first touch, post-free re-resolution) reaches the
// clock, which keeps the budget machinery off the interpreter's hot loop;
// with paging disabled (epc_bytes == 0, the default) accesses pay nothing.
//
// == Scaling structure ==
//
// The original implementation kept every region in one std::map behind one
// global mutex, which made each simulated load/store a lock acquisition plus
// an O(log n) tree search — the dominant cost of the interpreter's hot loop.
// Regions are now sharded across kShardCount lock-striped buckets; the shard
// index is carried in the address's high bits, so locating the bucket for an
// access is a shift, and only intra-shard lookups take that shard's lock.
//
// On top of the striped slow path, resolve() hands out a RegionHandle that an
// executor may cache: the handle pins the region's bytes (shared_ptr) and
// records the owning shard's free-epoch. Any free() in a shard bumps that
// shard's epoch, so a cached handle validates with one atomic load; while the
// epoch matches, in-bounds accesses by the same accessor need neither the
// lock nor the tree search. The access-check semantics are unchanged: a
// handle only exists if check_access() admitted the accessor, addresses are
// never reused (per-shard bump allocation), and every violating access still
// throws AccessViolation on the resolve path.
//
// Lock order: the budget mutex (epc_mu_) and the shard mutexes are never
// held together — allocate/free/reconcile take them in disjoint scopes, and
// the access paths touch the budget only after the shard lock drops.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/hooks.hpp"
#include "support/status.hpp"

namespace privagic::sgx {

/// Color id in the partition result's color table; 0 is always U.
using ColorId = std::int64_t;
inline constexpr ColorId kUnsafe = 0;

class AccessViolation : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown when an allocation would push a color past its enforced EPC hard
/// cap. Carries a machine-readable kind so Machine::call surfaces a typed
/// Status instead of a generic failure; the message is deterministic, which
/// the engine-equivalence tests rely on.
class EpcExhausted : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
  [[nodiscard]] static StatusCode code() { return StatusCode::kEpcExhausted; }
};

/// Per-color EPC budget policy (DESIGN.md §14). Mirrors the cost model's
/// machine parameterization: epc_bytes/fault_ns come straight from
/// CostParams::machine_a()/machine_b().
struct EpcBudget {
  /// Simulated physical EPC per enclave; 0 disables the paging simulation.
  std::uint64_t epc_bytes = 0;
  /// Soft watermark as a fraction of epc_bytes: the clock pages a color down
  /// to watermark × epc_bytes whenever its resident set crosses it.
  double watermark = kDefaultWatermark;
  /// Simulated EWB/ELDU cost charged per 4 KiB page evicted or faulted back.
  double fault_ns = 0.0;
  /// Enforced cap on a color's total allocated bytes; 0 = uncapped.
  /// Exceeding it is a typed fault (EpcExhausted), not a slowdown.
  std::uint64_t hard_limit = 0;

  static constexpr double kDefaultWatermark = 0.9;
};

class SimMemory {
 public:
  /// @p epc_limit_bytes caps the *per-enclave* protected memory (0 = no cap).
  /// Equivalent to set_epc_budget({.hard_limit = epc_limit_bytes}).
  explicit SimMemory(std::uint64_t epc_limit_bytes = 0) {
    budget_.hard_limit = epc_limit_bytes;
    for (std::size_t s = 0; s < kShardCount; ++s) {
      shards_[s].next = (static_cast<std::uint64_t>(s) << kShardShift) + 0x1000;
    }
  }

  /// A cacheable reference to one live region, produced by resolve(). The
  /// shared_ptr pins the bytes (a racing free can never turn a stale cache
  /// into a use-after-free); `epoch` snapshots the owning shard's free
  /// counter so holders can detect staleness with one atomic load.
  struct RegionHandle {
    std::uint64_t base = 0;
    std::uint64_t size = 0;
    ColorId color = kUnsafe;
    std::shared_ptr<std::vector<std::byte>> bytes;
    std::uint64_t epoch = 0;
    std::uint32_t shard = 0;

    /// True when [addr, addr+n) lies inside the region. addr must point at a
    /// byte the region owns: a zero-length access at base + size (one past
    /// the end) is rejected so it re-resolves instead of validating against
    /// this region — the slow path decides which region (if any) owns it.
    [[nodiscard]] bool covers(std::uint64_t addr, std::uint64_t n) const {
      return addr >= base && addr - base < size && n <= size - (addr - base);
    }
  };

  /// Installs the paging-aware budget policy. Existing colored regions are
  /// enrolled in the clock as resident (then paged down to the watermark, as
  /// a freshly configured machine would be). Counters restart from zero.
  /// Configure before workers run, like every other Machine-level knob: the
  /// paging flag is read concurrently, but the policy swap itself assumes no
  /// in-flight colored allocation.
  void set_epc_budget(const EpcBudget& budget) {
    // Snapshot live colored regions first (shard locks), then swap the
    // policy in under epc_mu_ — the two locks are never nested.
    std::map<ColorId, std::vector<std::pair<std::uint64_t, std::uint64_t>>> live;
    for (const Shard& sh : shards_) {
      const std::lock_guard<std::mutex> lock(sh.mu);
      for (const auto& [base, region] : sh.regions) {
        if (region.color != kUnsafe) {
          live[budget_key(region.color)].emplace_back(base, region.size);
        }
      }
    }
    const std::lock_guard<std::mutex> lock(epc_mu_);
    budget_ = budget;
    budgets_.clear();
    for (const auto& [color, regions] : live) {
      ColorBudget& cb = budgets_[color];
      for (const auto& [base, size] : regions) {
        cb.used += size;
        enroll_locked(cb, base, size);
      }
      evict_to_watermark_locked(cb, color);
    }
    paging_.store(budget.epc_bytes != 0, std::memory_order_relaxed);
  }

  [[nodiscard]] const EpcBudget& epc_budget() const { return budget_; }

  /// Installs a color→enclave-group mapping (the placement plan's slot
  /// table): leader_of[c] is the color id of c's group leader, and all EPC
  /// *budget* accounting — hard cap, watermark clock, eviction/fault
  /// counters — is charged to the leader, so co-resident colors share one
  /// enclave's EPC. Access *checks* stay per color: placement never widens
  /// confidentiality (a chunk still only touches its own color's regions).
  /// An empty vector restores the identity (one enclave per color).
  /// Configure before workers run, like set_epc_budget: existing budgets are
  /// re-derived from live regions under the new keys; counters restart.
  void set_color_groups(std::vector<ColorId> leader_of) {
    {
      const std::lock_guard<std::mutex> lock(epc_mu_);
      group_leader_ = std::move(leader_of);
    }
    // Rebuild the per-group budgets from the live regions, exactly as a
    // fresh set_epc_budget would: snapshot under the shard locks, then swap
    // under epc_mu_ (never nested).
    std::map<ColorId, std::vector<std::pair<std::uint64_t, std::uint64_t>>> live;
    for (const Shard& sh : shards_) {
      const std::lock_guard<std::mutex> lock(sh.mu);
      for (const auto& [base, region] : sh.regions) {
        if (region.color != kUnsafe) {
          live[budget_key(region.color)].emplace_back(base, region.size);
        }
      }
    }
    const std::lock_guard<std::mutex> lock(epc_mu_);
    budgets_.clear();
    for (const auto& [key, regions] : live) {
      ColorBudget& cb = budgets_[key];
      for (const auto& [base, size] : regions) {
        cb.used += size;
        if (budget_.epc_bytes != 0) enroll_locked(cb, base, size);
      }
      evict_to_watermark_locked(cb, key);
    }
  }

  /// The color id whose budget @p color charges (its group leader; itself
  /// when no placement is installed or the id is out of the table's range).
  [[nodiscard]] ColorId budget_key(ColorId color) const {
    if (color < 0 || static_cast<std::size_t>(color) >= group_leader_.size()) return color;
    return group_leader_[static_cast<std::size_t>(color)];
  }

  /// Allocates @p size zeroed bytes owned by @p color. Returns the base
  /// address (never 0).
  std::uint64_t allocate(std::uint64_t size, ColorId color) {
    if (size == 0) size = 1;
    if (color != kUnsafe) {
      const ColorId key = budget_key(color);
      const std::lock_guard<std::mutex> lock(epc_mu_);
      ColorBudget& cb = budgets_[key];
      if (budget_.hard_limit != 0 && cb.used + size > budget_.hard_limit) {
        throw EpcExhausted("enclave " + std::to_string(key) + " exceeds EPC limit");
      }
      cb.used += size;
    }
    Shard& sh = shards_[alloc_cursor_.fetch_add(1, std::memory_order_relaxed) % kShardCount];
    std::uint64_t base = 0;
    {
      const std::lock_guard<std::mutex> lock(sh.mu);
      base = sh.next;
      // 16-aligned bases keep ≤8-byte accesses on one cache line; addresses
      // are never reused (pure bump allocation), which is what lets
      // RegionHandle validation be a plain epoch compare with no ABA hazard.
      sh.next += (size + kRedzone + 15) & ~std::uint64_t{15};
      sh.regions.emplace(base, Region{size, color,
                                      std::make_shared<std::vector<std::byte>>(size)});
    }
    if (color != kUnsafe && paging_.load(std::memory_order_relaxed)) {
      const ColorId key = budget_key(color);
      const std::lock_guard<std::mutex> lock(epc_mu_);
      ColorBudget& cb = budgets_[key];
      enroll_locked(cb, base, size);
      evict_to_watermark_locked(cb, key);
    }
    obs::on_region_alloc(color, base, size);
    return base;
  }

  /// Frees the allocation starting exactly at @p addr.
  void free(std::uint64_t addr, ColorId accessor) {
    Shard& sh = shard_of(addr);
    std::uint64_t size = 0;
    ColorId color = kUnsafe;
    {
      const std::lock_guard<std::mutex> lock(sh.mu);
      auto it = sh.regions.find(addr);
      if (it == sh.regions.end()) {
        throw AccessViolation("free of unallocated address");
      }
      check_access(it->second, accessor);
      size = it->second.size;
      color = it->second.color;
      sh.regions.erase(it);
      // Invalidate every cached handle into this shard before the lock drops:
      // a handle validated after this point re-resolves and faults.
      sh.free_epoch.fetch_add(1, std::memory_order_release);
    }
    if (color != kUnsafe) {
      const std::lock_guard<std::mutex> lock(epc_mu_);
      ColorBudget& cb = budgets_[budget_key(color)];
      cb.used -= size;
      drop_clock_entry_locked(cb, addr);
    }
    obs::on_region_free(color, addr, size);
  }

  void write(std::uint64_t addr, std::span<const std::byte> data, ColorId accessor) {
    Shard& sh = shard_of(addr);
    ColorId rcolor = kUnsafe;
    std::uint64_t rbase = 0;
    {
      const std::lock_guard<std::mutex> lock(sh.mu);
      auto [region, off] = locate(sh, addr, data.size());
      check_access(*region, accessor);
      std::memcpy(region->bytes->data() + off, data.data(), data.size());
      if (region->color != kUnsafe && paging_.load(std::memory_order_relaxed)) {
        rcolor = region->color;
        rbase = addr - off;
      }
    }
    if (rcolor != kUnsafe) touch_region(rcolor, rbase);
  }

  void read(std::uint64_t addr, std::span<std::byte> out, ColorId accessor) const {
    const Shard& sh = shard_of(addr);
    ColorId rcolor = kUnsafe;
    std::uint64_t rbase = 0;
    {
      const std::lock_guard<std::mutex> lock(sh.mu);
      auto [region, off] = locate(sh, addr, out.size());
      check_access(*region, accessor);
      std::memcpy(out.data(), region->bytes->data() + off, out.size());
      if (region->color != kUnsafe && paging_.load(std::memory_order_relaxed)) {
        rcolor = region->color;
        rbase = addr - off;
      }
    }
    if (rcolor != kUnsafe) touch_region(rcolor, rbase);
  }

  /// Slow-path lookup for the executors' one-entry region cache: performs the
  /// exact checks of read()/write() (shard mapping, bounds, color rules) and
  /// returns a pinned handle for [addr, addr+size). Throws AccessViolation in
  /// every case the plain accessors would.
  [[nodiscard]] RegionHandle resolve(std::uint64_t addr, std::uint64_t size,
                                     ColorId accessor) const {
    const std::uint32_t index = shard_index(addr);
    const Shard& sh = shards_[index];
    RegionHandle h;
    {
      const std::lock_guard<std::mutex> lock(sh.mu);
      auto [region, off] = locate(sh, addr, size);
      check_access(*region, accessor);
      h.base = addr - off;
      h.size = region->size;
      h.color = region->color;
      h.bytes = region->bytes;
      h.epoch = sh.free_epoch.load(std::memory_order_acquire);
      h.shard = index;
    }
    if (h.color != kUnsafe && paging_.load(std::memory_order_relaxed)) {
      touch_region(h.color, h.base);
    }
    return h;
  }

  /// True while no free() has hit the handle's shard since it was resolved —
  /// the one-atomic-load validation of the executor fast path.
  [[nodiscard]] bool handle_current(const RegionHandle& h) const {
    return h.bytes != nullptr &&
           shards_[h.shard].free_epoch.load(std::memory_order_acquire) == h.epoch;
  }

  /// The color owning @p addr (throws if unmapped).
  [[nodiscard]] ColorId color_of(std::uint64_t addr) const {
    const Shard& sh = shard_of(addr);
    const std::lock_guard<std::mutex> lock(sh.mu);
    return locate(sh, addr, 1).first->color;
  }

  /// Bytes currently allocated to @p color (the hard-cap denominator).
  [[nodiscard]] std::uint64_t epc_used(ColorId color) const {
    const std::lock_guard<std::mutex> lock(epc_mu_);
    auto it = budgets_.find(budget_key(color));
    return it != budgets_.end() ? it->second.used : 0;
  }

  /// Bytes of @p color currently resident in the simulated EPC (≤ used once
  /// the clock has paged the color down to its watermark).
  [[nodiscard]] std::uint64_t epc_resident(ColorId color) const {
    const std::lock_guard<std::mutex> lock(epc_mu_);
    auto it = budgets_.find(budget_key(color));
    return it != budgets_.end() ? it->second.resident : 0;
  }

  /// Regions the clock paged out of @p color's EPC (EWB write-backs).
  [[nodiscard]] std::uint64_t epc_evictions(ColorId color) const {
    const std::lock_guard<std::mutex> lock(epc_mu_);
    auto it = budgets_.find(budget_key(color));
    return it != budgets_.end() ? it->second.evictions : 0;
  }

  /// Slow-path accesses that hit a paged-out region and reloaded it (ELDU).
  [[nodiscard]] std::uint64_t epc_faults(ColorId color) const {
    const std::lock_guard<std::mutex> lock(epc_mu_);
    auto it = budgets_.find(budget_key(color));
    return it != budgets_.end() ? it->second.faults : 0;
  }

  /// Total simulated paging time charged to @p color (fault_ns per page).
  [[nodiscard]] double epc_fault_ns_charged(ColorId color) const {
    const std::lock_guard<std::mutex> lock(epc_mu_);
    auto it = budgets_.find(budget_key(color));
    return it != budgets_.end() ? it->second.fault_ns : 0.0;
  }

  /// Σ sizes of @p color's live regions — the ground truth epc_used must
  /// equal (the crash tests assert this after every restore cycle).
  [[nodiscard]] std::uint64_t live_bytes(ColorId color) const {
    std::uint64_t total = 0;
    for (const Shard& sh : shards_) {
      const std::lock_guard<std::mutex> lock(sh.mu);
      for (const auto& [base, region] : sh.regions) {
        (void)base;
        if (region.color == color) total += region.size;
      }
    }
    return total;
  }

  /// Checkpoint capture (DESIGN.md §12): serializes every region owned by
  /// @p color into a flat image — [u64 count] then, per region,
  /// [u64 base][u64 size][size bytes]. The image is what gets sealed into a
  /// checkpoint payload, so only the owning enclave ever unseals it; the
  /// plain bytes here model the post-unseal plaintext.
  [[nodiscard]] std::vector<std::byte> serialize_color(ColorId color) const {
    std::vector<std::byte> out(sizeof(std::uint64_t));
    std::uint64_t count = 0;
    for (const Shard& sh : shards_) {
      const std::lock_guard<std::mutex> lock(sh.mu);
      for (const auto& [base, region] : sh.regions) {
        if (region.color != color) continue;
        ++count;
        const std::uint64_t hdr[2] = {base, region.size};
        const auto* p = reinterpret_cast<const std::byte*>(hdr);
        out.insert(out.end(), p, p + sizeof hdr);
        out.insert(out.end(), region.bytes->begin(), region.bytes->end());
      }
    }
    std::memcpy(out.data(), &count, sizeof count);
    return out;
  }

  /// Restores @p color's regions from a serialize_color image: the byte
  /// contents of every region captured in the image are rewritten; regions
  /// freed since the capture are silently skipped (the §12 journal replays
  /// the operations that freed them). Regions allocated *after* the capture
  /// are left alone — replay re-executes the chunk that allocated them.
  /// A truncated or hostile image aborts the restore without touching
  /// anything past the damage; all length checks are written subtraction-
  /// side so an attacker-controlled size near UINT64_MAX cannot wrap them.
  /// Afterwards the color's EPC accounting is re-derived from its live
  /// regions — a restarted enclave rebuilds its EPC page by page, so stale
  /// pre-crash accounting must not survive the restore.
  void restore_color(ColorId color, std::span<const std::byte> image) {
    std::uint64_t count = 0;
    if (image.size() < sizeof count) return;
    std::memcpy(&count, image.data(), sizeof count);
    std::size_t off = sizeof count;
    for (std::uint64_t i = 0; i < count; ++i) {
      std::uint64_t hdr[2];
      if (sizeof hdr > image.size() - off) break;  // truncated image
      std::memcpy(hdr, image.data() + off, sizeof hdr);
      off += sizeof hdr;
      const std::uint64_t base = hdr[0];
      const std::uint64_t size = hdr[1];
      if (size > image.size() - off) break;  // truncated or hostile size
      {
        Shard& sh = shard_of(base);
        const std::lock_guard<std::mutex> lock(sh.mu);
        auto it = sh.regions.find(base);
        if (it != sh.regions.end() && it->second.color == color &&
            it->second.size == size) {
          std::memcpy(it->second.bytes->data(), image.data() + off, size);
        }
      }
      off += size;
    }
    reconcile_color(color);
  }

  /// Attacker helper: scans all *unsafe* memory for a byte pattern. Returns
  /// true if found. Models an adversary with full control of the OS, who can
  /// read everything outside the enclaves.
  [[nodiscard]] bool unsafe_memory_contains(std::span<const std::byte> needle) const {
    for (const Shard& sh : shards_) {
      const std::lock_guard<std::mutex> lock(sh.mu);
      for (const auto& [base, region] : sh.regions) {
        (void)base;
        if (region.color != kUnsafe) continue;
        const auto& hay = *region.bytes;
        if (needle.size() > hay.size()) continue;
        for (std::size_t i = 0; i + needle.size() <= hay.size(); ++i) {
          if (std::memcmp(hay.data() + i, needle.data(), needle.size()) == 0) return true;
        }
      }
    }
    return false;
  }

 private:
  // 16 shards of 4 TiB each: the whole sharded space ends well below the
  // interpreter's function-token range (1<<62).
  static constexpr std::size_t kShardCount = 16;
  static constexpr unsigned kShardShift = 42;
  static constexpr std::uint64_t kRedzone = 16;
  static constexpr std::uint64_t kEpcPageBytes = 4096;

  struct Region {
    std::uint64_t size;
    ColorId color;
    // shared_ptr so a RegionHandle outliving a racing free() keeps the bytes
    // alive; the epoch check makes such stale accesses re-resolve and fault.
    std::shared_ptr<std::vector<std::byte>> bytes;
  };

  struct Shard {
    mutable std::mutex mu;
    std::map<std::uint64_t, Region> regions;
    std::uint64_t next = 0;
    std::atomic<std::uint64_t> free_epoch{0};
  };

  /// One region's slot in a color's clock. The list preserves allocation
  /// order (the scan order of the hand); iterators stay valid across every
  /// other slot's insertion and removal.
  struct ClockEntry {
    std::uint64_t base = 0;
    std::uint64_t size = 0;
    bool resident = false;
    bool referenced = false;
  };

  /// All budget state of one color. Guarded by epc_mu_.
  struct ColorBudget {
    std::uint64_t used = 0;      // allocated bytes (hard-cap denominator)
    std::uint64_t resident = 0;  // bytes currently in the simulated EPC
    std::uint64_t evictions = 0;
    std::uint64_t faults = 0;
    double fault_ns = 0.0;  // simulated EWB/ELDU time charged
    std::list<ClockEntry> clock;
    std::list<ClockEntry>::iterator hand = clock.end();
    std::unordered_map<std::uint64_t, std::list<ClockEntry>::iterator> index;
  };

  [[nodiscard]] std::uint32_t shard_index(std::uint64_t addr) const {
    const std::uint64_t index = addr >> kShardShift;
    if (index >= kShardCount) throw AccessViolation("access to unmapped address");
    return static_cast<std::uint32_t>(index);
  }
  [[nodiscard]] const Shard& shard_of(std::uint64_t addr) const {
    return shards_[shard_index(addr)];
  }
  [[nodiscard]] Shard& shard_of(std::uint64_t addr) {
    return shards_[shard_index(addr)];
  }

  /// The region containing [addr, addr+size) and the offset of addr within
  /// it. The shard's mutex must be held.
  std::pair<const Region*, std::uint64_t> locate(const Shard& sh, std::uint64_t addr,
                                                 std::uint64_t size) const {
    auto it = sh.regions.upper_bound(addr);
    if (it == sh.regions.begin()) throw AccessViolation("access to unmapped address");
    --it;
    const std::uint64_t off = addr - it->first;
    if (off + size > it->second.size) {
      throw AccessViolation("out-of-bounds access");
    }
    return {&it->second, off};
  }
  std::pair<Region*, std::uint64_t> locate(Shard& sh, std::uint64_t addr, std::uint64_t size) {
    auto [region, off] = std::as_const(*this).locate(sh, addr, size);
    return {const_cast<Region*>(region), off};
  }

  static void check_access(const Region& r, ColorId accessor) {
    if (r.color == kUnsafe) return;             // everyone reads unsafe memory
    if (r.color == accessor) return;            // the active enclave
    throw AccessViolation("color " + std::to_string(accessor) +
                          " attempted to access enclave " + std::to_string(r.color));
  }

  [[nodiscard]] static std::uint64_t pages(std::uint64_t bytes) {
    return (bytes + kEpcPageBytes - 1) / kEpcPageBytes;
  }
  [[nodiscard]] std::uint64_t watermark_bytes_locked() const {
    return static_cast<std::uint64_t>(budget_.watermark *
                                      static_cast<double>(budget_.epc_bytes));
  }

  /// Adds a fresh (resident, referenced) slot to the color's clock.
  /// epc_mu_ must be held.
  void enroll_locked(ColorBudget& cb, std::uint64_t base, std::uint64_t size) const {
    cb.clock.push_back(ClockEntry{base, size, /*resident=*/true, /*referenced=*/true});
    cb.index.emplace(base, std::prev(cb.clock.end()));
    cb.resident += size;
  }

  /// Removes a freed region's slot (free() already dropped `used`).
  /// epc_mu_ must be held.
  void drop_clock_entry_locked(ColorBudget& cb, std::uint64_t base) const {
    auto it = cb.index.find(base);
    if (it == cb.index.end()) return;
    if (cb.hand == it->second) ++cb.hand;
    if (it->second->resident) cb.resident -= it->second->size;
    cb.clock.erase(it->second);
    cb.index.erase(it);
  }

  /// Clock sweep: clears referenced bits as the hand passes and pages out
  /// the first unreferenced resident region, repeating until the color fits
  /// under its watermark. Every page moved charges fault_ns (simulated EWB).
  /// epc_mu_ must be held.
  void evict_to_watermark_locked(ColorBudget& cb, ColorId color) const {
    if (budget_.epc_bytes == 0) return;
    const std::uint64_t target = watermark_bytes_locked();
    while (cb.resident > target && !cb.clock.empty()) {
      bool evicted = false;
      // 2N steps suffice: one lap clears every referenced bit, the next
      // evicts; bail out defensively if nothing is resident anymore.
      for (std::size_t step = 0; step < 2 * cb.clock.size() && !evicted; ++step) {
        if (cb.hand == cb.clock.end()) cb.hand = cb.clock.begin();
        ClockEntry& e = *cb.hand;
        ++cb.hand;
        if (!e.resident) continue;
        if (e.referenced) {
          e.referenced = false;
          continue;
        }
        e.resident = false;
        cb.resident -= e.size;
        ++cb.evictions;
        const double charged = static_cast<double>(pages(e.size)) * budget_.fault_ns;
        cb.fault_ns += charged;
        obs::on_epc_evict(color, e.size, charged);
        evicted = true;
      }
      if (!evicted) break;
    }
  }

  /// Slow-path access bookkeeping: marks a resident region referenced, or
  /// faults a paged-out one back in (charging the reload and re-balancing
  /// against the watermark). Never throws; called with no other lock held.
  void touch_region(ColorId color, std::uint64_t base) const {
    const ColorId key = budget_key(color);
    const std::lock_guard<std::mutex> lock(epc_mu_);
    auto bit = budgets_.find(key);
    if (bit == budgets_.end()) return;
    ColorBudget& cb = bit->second;
    auto it = cb.index.find(base);
    if (it == cb.index.end()) return;
    ClockEntry& e = *it->second;
    if (e.resident) {
      e.referenced = true;
      return;
    }
    ++cb.faults;
    const double charged = static_cast<double>(pages(e.size)) * budget_.fault_ns;
    cb.fault_ns += charged;
    obs::on_epc_fault(key, e.size, charged);
    e.resident = true;
    e.referenced = true;
    cb.resident += e.size;
    evict_to_watermark_locked(cb, key);
  }

  /// Re-derives a color's budget accounting from its live regions: `used`
  /// becomes Σ live sizes, and (with paging on) the clock is rebuilt with
  /// everything resident — the ELDU storm of a checkpoint reload — then
  /// paged back down to the watermark. Eviction/fault counters accumulate
  /// across the rebuild; they are simulated time, not state.
  void reconcile_color(ColorId color) {
    if (color == kUnsafe) return;
    // Budgets are kept per enclave *group*: re-derive the whole group the
    // color charges, since its clock interleaves every member's regions.
    const ColorId key = budget_key(color);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> live;
    for (const Shard& sh : shards_) {
      const std::lock_guard<std::mutex> lock(sh.mu);
      for (const auto& [base, region] : sh.regions) {
        if (region.color != kUnsafe && budget_key(region.color) == key) {
          live.emplace_back(base, region.size);
        }
      }
    }
    const std::lock_guard<std::mutex> lock(epc_mu_);
    ColorBudget& cb = budgets_[key];
    cb.used = 0;
    for (const auto& [base, size] : live) {
      (void)base;
      cb.used += size;
    }
    if (budget_.epc_bytes != 0) {
      cb.clock.clear();
      cb.index.clear();
      cb.hand = cb.clock.end();
      cb.resident = 0;
      for (const auto& [base, size] : live) enroll_locked(cb, base, size);
      evict_to_watermark_locked(cb, key);
    }
  }

  Shard shards_[kShardCount];
  std::atomic<std::uint64_t> alloc_cursor_{0};
  mutable std::mutex epc_mu_;
  EpcBudget budget_;
  // True iff budget_.epc_bytes != 0 — lock-free gate for the access paths.
  std::atomic<bool> paging_{false};
  // mutable: the access paths are logically const but move referenced bits
  // and charge simulated time. All mutation happens under epc_mu_.
  mutable std::map<ColorId, ColorBudget> budgets_;
  // Color id → budget-charging group leader (empty = identity). Written only
  // by set_color_groups before workers run (Machine-knob contract), so the
  // unlocked reads in budget_key() never race a write.
  std::vector<ColorId> group_leader_;
};

}  // namespace privagic::sgx
