// Robustness ablation: throughput vs. injected fault rate on the two-color
// echo workload — now with a crash axis and a failover throughput floor.
//
// The cross-enclave queues live in unsafe memory, so an attacker (or a
// glitchy host) can drop, duplicate, or corrupt messages at will; the host
// can also kill an enclave outright. Three phases:
//
//  1. Wire sweep (rows phase="wire"): the paper's two-color ping-pong
//     (§9.3.2) through the FaultInjector at increasing fault rates, recovery
//     by timed waits + bounded retry + retransmission (DESIGN.md §6).
//     Throughput falls with the retry latency but every run completes — the
//     seed runtime would deadlock at the first dropped message. The obs
//     MetricsRegistry is enabled for exactly this phase; its counters are
//     pinned in bench/baselines.json and checked by tools/bench_check.
//  2. Crash axis (rows phase="crash"): the host kills the echo enclave every
//     N exchanges. With checkpoint/journal recovery (DESIGN.md §12) the run
//     still completes exactly once; cold restarts pay the simulated
//     rebuild+re-attestation on the critical path, a warm replica pays only
//     the attestation handshake off it.
//  3. Failover floor (rows phase="floor"): sub-millisecond deadlines + hot
//     failover under 5% combined wire faults plus periodic crashes must
//     sustain >= 25% of the same configuration's zero-fault throughput. The
//     verdict is emitted as the deterministic metric failover.floor_holds
//     (1/0) and pinned in baselines.json — CI fails if the floor breaks.
//
// Deterministic: the injector draws from a fixed-seed xoshiro256** stream,
// so each rate's fault pattern is identical run-to-run.
#include <chrono>
#include <cstdio>
#include <string>

#include "obs/metrics.hpp"
#include "runtime/fault_injector.hpp"
#include "runtime/workers.hpp"
#include "support/bench_json.hpp"

namespace {

using namespace privagic::runtime;  // NOLINT(google-build-using-namespace)
using namespace std::chrono_literals;

constexpr std::uint64_t kExchanges = 2000;  // request/reply pairs per config

struct RunRow {
  double rate = 0.0;               // combined wire-fault rate
  std::uint64_t crash_every = 0;   // inject a crash every N exchanges (0 = none)
  double msgs_per_sec = 0.0;
  RuntimeStats::Snapshot stats;
  FaultInjector::Counts injected;
};

struct RunConfig {
  double rate = 0.0;              // split evenly drop/dup/corrupt
  std::uint64_t crash_every = 0;  // 0 = never
  std::chrono::microseconds wait_deadline = 2ms;
  std::chrono::microseconds app_wait_deadline{0};
  int max_retries = 10;
  bool checkpoint = false;
  bool hot_failover = false;
};

RunRow run_config(const RunConfig& cfg) {
  FaultConfig config;
  config.seed = 7;
  config.drop = cfg.rate / 3.0;
  config.duplicate = cfg.rate / 3.0;
  config.corrupt = cfg.rate / 3.0;
  FaultInjector injector(config);
  // The single spawn has no retransmission path; keep it clean so every
  // config measures the recoverable steady state.
  injector.script(0, FaultKind::kNone);

  RecoveryOptions options;
  options.spawn_secret = 0xB0B0'CAFE;  // corruption detection needs the MAC
  options.wait_deadline = cfg.wait_deadline;
  options.app_wait_deadline = cfg.app_wait_deadline;
  options.max_retries = cfg.max_retries;
  options.injector = &injector;
  options.checkpoint.enabled = cfg.checkpoint;
  options.checkpoint.hot_failover = cfg.hot_failover;

  ThreadRuntime* rtp = nullptr;
  ThreadRuntime rt(
      2,
      [&rtp](std::size_t me, std::uint64_t rounds, std::int64_t tags,
             std::int64_t leader, std::int64_t) {
        for (std::uint64_t i = 0; i < rounds; ++i) {
          const std::int64_t v = rtp->wait(me, tags + 0);
          rtp->cont(leader, tags + 100, v + 1);
        }
        rtp->ack(leader, tags + 200);
      },
      options);
  rtp = &rt;

  const auto start = std::chrono::steady_clock::now();
  rt.spawn(1, kExchanges, 0, 0, 0);
  for (std::uint64_t i = 0; i < kExchanges; ++i) {
    if (cfg.crash_every != 0 && i != 0 && i % cfg.crash_every == 0) {
      rt.inject_crash(1);  // host kills the echo enclave mid-stream
    }
    rt.cont(1, 0, static_cast<std::int64_t>(i));
    rt.wait(0, 100);
  }
  rt.wait_ack(0, 200);
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;

  RunRow row;
  row.rate = cfg.rate;
  row.crash_every = cfg.crash_every;
  row.stats = rt.stats_snapshot();  // includes the thread-private flush counters
  row.injected = injector.counts();
  row.msgs_per_sec = static_cast<double>(row.stats.messages_sent) / elapsed.count();
  return row;
}

/// Every row carries the complete RuntimeStats snapshot so a result file is
/// self-describing: batching, recovery, and §12 crash counters per config.
void add_row(privagic::support::BenchJsonWriter& json, const char* phase,
             const RunRow& r) {
  json.add_row()
      .set("phase", phase)
      .set("rate", r.rate)
      .set("crash_every", r.crash_every)
      .set("msgs_per_sec", r.msgs_per_sec)
      .set("drops_injected", r.injected.drops)
      .set("duplicates_injected", r.injected.duplicates)
      .set("corrupts_injected", r.injected.corrupts)
      .set("messages_sent", r.stats.messages_sent)
      .set("duplicates_discarded", r.stats.duplicates_discarded)
      .set("corrupt_dropped", r.stats.corrupt_dropped)
      .set("forged_spawn_rejects", r.stats.forged_spawn_rejects)
      .set("wait_timeouts", r.stats.wait_timeouts)
      .set("retries", r.stats.retries)
      .set("retransmits", r.stats.retransmits)
      .set("poisoned_workers", r.stats.poisoned_workers)
      .set("batched_messages", r.stats.batched_messages)
      .set("batch_flushes", r.stats.batch_flushes)
      .set("calls_elided", r.stats.calls_elided)
      .set("slab_highwater", r.stats.slab_highwater)
      .set("worker_crashes", r.stats.worker_crashes)
      .set("failovers", r.stats.failovers)
      .set("cold_restarts", r.stats.cold_restarts)
      .set("checkpoints_taken", r.stats.checkpoints_taken)
      .set("checkpoint_bytes", r.stats.checkpoint_bytes)
      .set("journal_entries", r.stats.journal_entries)
      .set("replay_entries", r.stats.replay_entries)
      .set("replayed_sends", r.stats.replayed_sends)
      .set("checkpoint_rejects_stale", r.stats.checkpoint_rejects_stale)
      .set("checkpoint_rejects_tampered", r.stats.checkpoint_rejects_tampered)
      .set("restart_ns_charged", r.stats.restart_ns_charged);
}

void print_row(const char* tag, const RunRow& r) {
  std::printf("%-11s %-7.3f %7llu %12.0f %8llu %9llu %9llu %7llu %6llu %6llu %8llu\n",
              tag, r.rate, static_cast<unsigned long long>(r.crash_every),
              r.msgs_per_sec, static_cast<unsigned long long>(r.injected.drops),
              static_cast<unsigned long long>(r.stats.wait_timeouts),
              static_cast<unsigned long long>(r.stats.retransmits),
              static_cast<unsigned long long>(r.stats.worker_crashes),
              static_cast<unsigned long long>(r.stats.failovers),
              static_cast<unsigned long long>(r.stats.cold_restarts),
              static_cast<unsigned long long>(r.stats.poisoned_workers));
}

/// The floor configuration: deadlines tight enough that a lost message costs
/// hundreds of microseconds (the mailbox spins sub-threshold waits instead
/// of parking), hot failover so a crash costs one attestation handshake.
RunConfig floor_config(double rate, std::uint64_t crash_every) {
  RunConfig cfg;
  cfg.rate = rate;
  cfg.crash_every = crash_every;
  cfg.wait_deadline = 30us;   // ~30x the clean round-trip: spurious timeouts
  cfg.app_wait_deadline = 45us;  // are rare, lost messages recover fast
  cfg.max_retries = 18;          // doubling backoff; completion over speed
  cfg.checkpoint = true;
  cfg.hot_failover = true;
  return cfg;
}

/// Best-of-N throughput for a config. A single run's wall clock is at the
/// mercy of the scheduler (the floor configs spin sub-ms waits); the best of
/// a few runs measures what the configuration can sustain, which is what the
/// floor gate is about — and it makes the 1/0 verdict stable run-to-run.
RunRow best_of(const RunConfig& cfg, int n) {
  RunRow best = run_config(cfg);
  for (int i = 1; i < n; ++i) {
    RunRow r = run_config(cfg);
    if (r.msgs_per_sec > best.msgs_per_sec) best = r;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_fault_sweep.json";
  std::printf("== Fault sweep: two-color echo under an adversarial boundary ==\n");
  std::printf("%llu exchanges per config; wire faults split evenly drop/dup/corrupt\n\n",
              static_cast<unsigned long long>(kExchanges));
  std::printf("%-11s %-7s %7s %12s %8s %9s %9s %7s %6s %6s %8s\n", "phase", "rate",
              "crash/N", "msgs/s", "drops", "timeouts", "retrans", "crashes",
              "failov", "cold", "poison");
  privagic::support::BenchJsonWriter json("fault_sweep");
  json.meta("exchanges_per_rate", kExchanges)
      .meta("fault_split", "drop/dup/corrupt even")
      .meta("floor_threshold", 0.25);

  // -- Phase 1: wire-fault sweep (§6 recovery only). The obs registry is on
  // for exactly this phase; bench_check pins its counters, so the workload
  // and recovery configuration here must not drift casually.
  privagic::obs::MetricsRegistry::global().reset_all();
  privagic::obs::set_metrics_enabled(true);
  for (const double rate : {0.0, 0.001, 0.01, 0.05, 0.1}) {
    RunConfig cfg;
    cfg.rate = rate;
    const RunRow r = run_config(cfg);
    print_row("wire", r);
    add_row(json, "wire", r);
  }
  privagic::obs::set_metrics_enabled(false);
  privagic::obs::embed_metrics(json);

  // -- Phase 2: crash axis (§12 recovery), zero wire faults. Cold restart
  // pays the simulated rebuild+re-attestation on the critical path; the warm
  // replica takes over for one attestation handshake, off it.
  for (const bool hot : {false, true}) {
    RunConfig cfg;
    cfg.crash_every = 250;  // 7 kills over the 2000-exchange run
    cfg.checkpoint = true;
    cfg.hot_failover = hot;
    const RunRow r = run_config(cfg);
    print_row(hot ? "crash-hot" : "crash-cold", r);
    add_row(json, hot ? "crash-hot" : "crash-cold", r);
  }

  // -- Phase 3: the failover floor. Same sub-ms configuration with and
  // without sustained faults; the gate is the ratio, which cancels the
  // machine's absolute speed out of the verdict.
  const RunRow clean = best_of(floor_config(0.0, 0), 3);
  const RunRow stressed = best_of(floor_config(0.05, 500), 3);
  print_row("floor-clean", clean);
  print_row("floor-fault", stressed);
  add_row(json, "floor-clean", clean);
  add_row(json, "floor-fault", stressed);
  const double floor_ratio =
      clean.msgs_per_sec > 0.0 ? stressed.msgs_per_sec / clean.msgs_per_sec : 0.0;
  const bool floor_holds = floor_ratio >= 0.25;
  std::printf("\nfailover floor: %.1f%% of zero-fault throughput at 5%% faults + "
              "crashes (gate: >=25%%) -> %s\n", floor_ratio * 100.0,
              floor_holds ? "HOLDS" : "BROKEN");
  json.metric("failover.floor_ratio", floor_ratio);
  json.metric("failover.floor_holds", static_cast<std::uint64_t>(floor_holds ? 1 : 0));

  std::printf("Every row completes; the seed runtime deadlocks at the first drop.\n");
  if (!json.write_file(json_path)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
