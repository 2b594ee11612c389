// Cross-enclave call path: batched + adaptive + direct-dispatch vs. the
// unbatched push-per-send path, measured in the same process.
//
// PR 2 lifted interpreted-instruction throughput ~10x, which left the
// spawn/cont/ack round-trips over the per-thread FIFOs dominating
// handle_request (§9.3.2's queue ablation is about exactly this cost). This
// bench quantifies what the batched call path buys back:
//
//   * handle_request matrix — the kvcache request loop under both
//     interpreters (treewalk/fused) x both modes (hardened/relaxed) x both
//     paths. "unbatched" is RecoveryOptions{max_batch=1,
//     adaptive_wait=false, direct_dispatch=false} — the push-per-send path,
//     bit-for-bit; "batched" is the defaults. The headline (and exit gate,
//     >= 2x) is the fused+hardened throughput ratio.
//   * elision microbench — a raw ThreadRuntime spawn/ack round trip where
//     the target color IS the caller's color (direct: served inline off the
//     self-queue, counted in calls_elided) vs. a genuine cross-color round
//     trip (queued). This isolates the latency of an elided call, which the
//     partitioner-generated kvcache never produces (same-color callees are
//     plain direct calls there).
//
// Deterministic counters for tools/bench_check (baselines.json "call_path"):
// runtime.msgs_per_flush.{count,sum} (= batch flushes / batched messages
// across every phase), runtime.calls_elided, runtime.slab_highwater.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sys/resource.h>
#include <memory>
#include <string>
#include <thread>
#include <tuple>

#include "apps/kvcache/pir_program.hpp"
#include "interp/machine.hpp"
#include "ir/parser.hpp"
#include "obs/metrics.hpp"
#include "partition/partitioner.hpp"
#include "runtime/workers.hpp"
#include "support/bench_json.hpp"

namespace {

using namespace privagic;  // NOLINT(google-build-using-namespace)
using interp::ExecMode;

constexpr std::uint64_t kRequestCalls = 4'000;
constexpr std::uint64_t kWarmupCalls = 200;
constexpr int kRepetitions = 5;
constexpr std::uint64_t kDirectRounds = 100'000;
constexpr std::uint64_t kQueuedRounds = 10'000;

const char* engine_name(ExecMode mode) {
  return mode == ExecMode::kFused ? "fused" : "treewalk";
}

struct CompiledKvcache {
  std::unique_ptr<ir::Module> module;
  std::unique_ptr<sectype::TypeAnalysis> analysis;
  std::unique_ptr<partition::PartitionResult> program;
};

CompiledKvcache compile_kvcache(sectype::Mode mode) {
  CompiledKvcache c;
  auto parsed = ir::parse_module(apps::kMinicachedCorePir);
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse failed: %s\n", parsed.message().c_str());
    std::exit(1);
  }
  c.module = std::move(parsed).value();
  c.analysis = std::make_unique<sectype::TypeAnalysis>(*c.module, mode);
  if (!c.analysis->run()) {
    std::fprintf(stderr, "type check failed\n");
    std::exit(1);
  }
  auto result = partition::partition_module(*c.analysis);
  if (!result.ok()) {
    std::fprintf(stderr, "partition failed: %s\n", result.message().c_str());
    std::exit(1);
  }
  c.program = std::move(result).value();
  return c;
}

struct PhaseResult {
  double seconds = 0.0;
  std::uint64_t calls = 0;
  runtime::RuntimeStats::Snapshot stats;
  [[nodiscard]] double calls_per_sec() const { return static_cast<double>(calls) / seconds; }
  [[nodiscard]] double us_per_call() const { return seconds * 1e6 / static_cast<double>(calls); }
};

/// One handle_request run: fresh Machine, configured call path, timed loop.
PhaseResult run_requests_knobs(const partition::PartitionResult& program, ExecMode engine,
                               std::size_t max_batch, bool adaptive, bool direct) {
  auto m = std::make_unique<interp::Machine>(program, /*epc_limit_bytes=*/0, engine);
  m->set_call_path(max_batch, adaptive, direct);
  for (const char* boundary : {"classify", "declassify"}) {
    m->bind_external(boundary, [](interp::Machine::ExternalCtx&,
                                  std::span<const std::int64_t> a) {
      return a.empty() ? 0 : a[0];
    });
  }
  for (const char* sink : {"log_line", "net_send"}) {
    m->bind_external(sink, [](interp::Machine::ExternalCtx&,
                              std::span<const std::int64_t>) { return 0; });
  }
  // Deterministic 40% put / 50% get / 10% stats mix over 256 keys (the
  // interp_speed request mix, so the two benches stay comparable).
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  m->bind_external("net_recv", [&state](interp::Machine::ExternalCtx&,
                                        std::span<const std::int64_t>) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint64_t r = state >> 16;
    const std::uint64_t key = r % 256;
    const std::uint64_t pick = r % 10;
    const std::uint64_t op = pick < 5 ? 0 : pick < 9 ? 1 : 2;  // get / put / stats
    return static_cast<std::int64_t>((op << 62) | (key << 32) | (r & 0xFFFF));
  });
  for (std::uint64_t i = 0; i < kWarmupCalls; ++i) (void)m->call("handle_request", {});
  // Median-of-N repetitions: scheduler noise on a timeshared box swings
  // individual runs both ways; the median discards the outlier in either
  // direction and is applied identically to both paths. The counter totals
  // still cover every repetition, keeping them deterministic.
  std::array<double, kRepetitions> rep_seconds{};
  for (int rep = 0; rep < kRepetitions; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < kRequestCalls; ++i) {
      auto r = m->call("handle_request", {});
      if (!r.ok()) {
        std::fprintf(stderr, "handle_request failed: %s\n", r.message().c_str());
        std::exit(1);
      }
    }
    const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
    rep_seconds[rep] = elapsed.count();
  }
  std::sort(rep_seconds.begin(), rep_seconds.end());
  PhaseResult out;
  out.seconds = rep_seconds[kRepetitions / 2];
  out.calls = kRequestCalls;
  out.stats = m->runtime_stats();
  return out;
}

PhaseResult run_requests(const partition::PartitionResult& program, ExecMode engine,
                         bool batched) {
  if (batched) {
    return run_requests_knobs(program, engine, runtime::RecoveryOptions{}.max_batch,
                              /*adaptive=*/true, /*direct=*/true);
  }
  return run_requests_knobs(program, engine, /*max_batch=*/1, /*adaptive=*/false,
                            /*direct=*/false);
}

/// Raw-runtime round trip: spawn a chunk that acks its leader, wait for the
/// ack. @p direct targets the caller's own color (elided — the whole round
/// trip happens on one thread, off the shared queues); otherwise the worker
/// of color 1 serves it, which is the classic two-crossing exchange.
PhaseResult run_elision(bool direct, std::uint64_t rounds) {
  runtime::ThreadRuntime* rtp = nullptr;
  runtime::RecoveryOptions opt;  // batched defaults; direct_dispatch on
  opt.spawn_secret = 0x9E3779B97F4A7C15ull;
  runtime::ThreadRuntime rt(
      /*num_colors=*/2,
      [&rtp](std::size_t /*me*/, std::uint64_t /*chunk*/, std::int64_t tags,
             std::int64_t leader, std::int64_t /*flags*/) {
        rtp->ack(leader, tags + 200);
      },
      opt);
  rtp = &rt;
  const std::int64_t target = direct ? 0 : 1;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < rounds; ++i) {
    const std::int64_t tags = static_cast<std::int64_t>(i) * 1000;
    rt.spawn(target, /*chunk=*/7, tags, /*leader=*/0, /*flags=*/0);
    rt.wait_ack(/*me=*/0, tags + 200);
  }
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
  PhaseResult out;
  out.seconds = elapsed.count();
  out.calls = rounds;
  out.stats = rt.stats_snapshot();
  rt.shutdown();
  return out;
}

void accumulate(runtime::RuntimeStats& total, const runtime::RuntimeStats::Snapshot& s) {
  total.accumulate(s);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_call_path.json";
  // Diagnostic: PRIVAGIC_CALL_PATH_MATRIX=1 sweeps each knob in isolation on
  // fused+hardened, to attribute a regression to batching, adaptive
  // waiting, or direct dispatch individually.
  if (std::getenv("PRIVAGIC_CALL_PATH_MATRIX") != nullptr) {
    const CompiledKvcache h = compile_kvcache(sectype::Mode::kHardened);
    std::printf("%-10s %-9s %-8s %12s %10s %10s %10s\n", "max_batch", "adaptive", "direct",
                "calls/sec", "us/call", "vcsw/call", "msgs/call");
    for (const std::size_t mb : {std::size_t{1}, std::size_t{8}}) {
      for (const bool ad : {false, true}) {
        for (const bool dd : {false, true}) {
          struct rusage before {};
          getrusage(RUSAGE_SELF, &before);
          const PhaseResult r = run_requests_knobs(*h.program, ExecMode::kFused, mb, ad, dd);
          struct rusage after {};
          getrusage(RUSAGE_SELF, &after);
          const double vcsw = static_cast<double>(after.ru_nvcsw - before.ru_nvcsw) /
                              static_cast<double>(r.calls);
          const double msgs = static_cast<double>(r.stats.messages_sent) /
                              static_cast<double>(r.calls);
          std::printf("%-10zu %-9s %-8s %12.0f %10.2f %10.2f %10.2f\n", mb, ad ? "on" : "off",
                      dd ? "on" : "off", r.calls_per_sec(), r.us_per_call(), vcsw, msgs);
        }
      }
    }
    return 0;
  }
  const CompiledKvcache hardened = compile_kvcache(sectype::Mode::kHardened);
  const CompiledKvcache relaxed = compile_kvcache(sectype::Mode::kRelaxed);

  // Metrics stay OFF during the timed phases: live recording costs the same
  // absolute overhead on both paths, which only dilutes the measured ratio.
  // The gated counters come from RuntimeStats, which counts unconditionally;
  // they are mirrored into the registry (below) just before embedding.
  obs::MetricsRegistry::global().reset_all();

  std::printf("== Cross-enclave call path: batched vs unbatched (kvcache handle_request) ==\n\n");
  std::printf("%-9s %-9s %-10s %10s %12s %10s\n", "engine", "mode", "path", "seconds",
              "calls/sec", "us/call");

  runtime::RuntimeStats total;  // gated counters, summed over every phase
  support::BenchJsonWriter json("call_path");
  double ratio_headline = 0.0;

  for (const ExecMode engine : {ExecMode::kTreeWalk, ExecMode::kFused}) {
    for (const auto* compiled : {&hardened, &relaxed}) {
      const char* mode_name = compiled == &hardened ? "hardened" : "relaxed";
      PhaseResult results[2];
      for (const bool batched : {false, true}) {
        PhaseResult r = run_requests(*compiled->program, engine, batched);
        results[batched ? 1 : 0] = r;
        accumulate(total, r.stats);
        std::printf("%-9s %-9s %-10s %10.3f %12.0f %10.2f\n", engine_name(engine),
                    mode_name, batched ? "batched" : "unbatched", r.seconds,
                    r.calls_per_sec(), r.us_per_call());
        json.add_row()
            .set("phase", "handle_request")
            .set("engine", engine_name(engine))
            .set("mode", mode_name)
            .set("path", batched ? "batched" : "unbatched")
            .set("calls", r.calls)
            .set("seconds", r.seconds)
            .set("calls_per_sec", r.calls_per_sec())
            .set("us_per_call", r.us_per_call());
      }
      const double ratio = results[1].calls_per_sec() / results[0].calls_per_sec();
      std::printf("%-9s %-9s %-10s %33.2fx\n", engine_name(engine), mode_name,
                  "speedup", ratio);
      if (engine == ExecMode::kFused && compiled == &hardened) ratio_headline = ratio;
    }
  }

  std::printf("\n-- same-color direct dispatch (raw runtime spawn+ack round trip) --\n");
  const PhaseResult queued = run_elision(/*direct=*/false, kQueuedRounds);
  const PhaseResult direct = run_elision(/*direct=*/true, kDirectRounds);
  accumulate(total, queued.stats);
  accumulate(total, direct.stats);
  const double direct_ns = direct.seconds * 1e9 / static_cast<double>(direct.calls);
  const double queued_ns = queued.seconds * 1e9 / static_cast<double>(queued.calls);
  std::printf("queued (cross-color): %10.0f ns/call\n", queued_ns);
  std::printf("direct (same-color):  %10.0f ns/call   (calls elided: %llu)\n", direct_ns,
              static_cast<unsigned long long>(direct.stats.calls_elided));
  for (const auto& [path, r, ns] : {std::tuple{"queued", &queued, queued_ns},
                                    std::tuple{"direct", &direct, direct_ns}}) {
    json.add_row()
        .set("phase", "elision_microbench")
        .set("path", path)
        .set("calls", r->calls)
        .set("ns_per_call", ns)
        .set("calls_elided", r->stats.calls_elided);
  }

  // Mirror the aggregated batched-path counters for the bench_check gate:
  // every phase above is deterministic (fixed call counts, deterministic
  // request mix, program-defined flush points), so these must not drift.
  const runtime::RuntimeStats::Snapshot snap = total.snapshot();
  obs::set_metrics_enabled(true);
  auto& reg = obs::MetricsRegistry::global();
  reg.counter("runtime.batched_messages").set(snap.batched_messages);
  reg.counter("runtime.batch_flushes").set(snap.batch_flushes);
  reg.counter("runtime.calls_elided").set(snap.calls_elided);
  reg.counter("runtime.slab_highwater").set(snap.slab_highwater);

  std::printf("\nbatched messages: %llu over %llu flushes (slab highwater %llu)\n",
              static_cast<unsigned long long>(snap.batched_messages),
              static_cast<unsigned long long>(snap.batch_flushes),
              static_cast<unsigned long long>(snap.slab_highwater));
  std::printf("handle_request throughput, fused+hardened: %.2fx  (gate: >=2x)\n",
              ratio_headline);
  const unsigned cpus = std::thread::hardware_concurrency();
  if (ratio_headline < 2.0 && cpus <= 1) {
    // On a single hardware thread the batched path is pinned to the scheduler
    // round-trip floor (every mailbox wait is a context switch, spin tiers
    // never hit), which compresses the ratio; the gate is calibrated for the
    // multi-core hosts CI runs on.
    std::printf("note: single-CPU host (hardware_concurrency=%u); "
                "spin tiers cannot hit, ratio is scheduler-bound\n", cpus);
  }

  json.meta("workload", "kvcache (minicached_core)")
      .meta("request_calls", kRequestCalls)
      .meta("batched_speedup_fused_hardened", ratio_headline)
      .meta("direct_ns_per_call", direct_ns)
      .meta("queued_ns_per_call", queued_ns)
      .meta("msgs_per_flush_mean", snap.batch_flushes == 0
                                       ? 0.0
                                       : static_cast<double>(snap.batched_messages) /
                                             static_cast<double>(snap.batch_flushes))
      .meta("gate_min_ratio", 2.0);  // nproc/affinity_mask come from the writer
  obs::set_metrics_enabled(false);
  obs::embed_metrics(json);
  if (!json.write_file(json_path)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());
  return ratio_headline >= 2.0 ? 0 : 2;
}
