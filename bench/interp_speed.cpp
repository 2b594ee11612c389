// Interpreter throughput: the reference tree-walker vs the fused register
// bytecode engine (superinstructions with direct-threaded dispatch) on the
// kvcache workload (the Table 4 program, apps/kvcache/pir_program.hpp).
//
// Two phases, each run under both engines on a fresh Machine:
//   * background_tick — memcached's LRU-crawler analogue: pure untrusted
//     interpretation (a 16-iteration checksum loop plus stat decay), no
//     cross-enclave messages. This isolates interpreted-instruction
//     throughput, which is what the decode/fusion passes optimize.
//   * handle_request  — the full request loop over a deterministic put/get/
//     stats mix. Every cache op crosses into the 'store' enclave, so this
//     phase mixes interpretation with mailbox latency.
//
// Gates (also pinned as floors in bench/baselines.json for tools/bench_check):
//   * fused/treewalk  background_tick instr/sec >= 6x    (fusion tentpole)
//   * fused/treewalk  handle_request  instr/sec >= 1.5x  (e2e floor)
//
// The request gate sits below the interpretation gate (DESIGN.md §13):
// every handle_request crosses into the store enclave ~3 times, and each
// crossing is a thread handoff that no execution engine can remove —
// profiled, the fused engine spends <10% of a request interpreting.
// Each phase runs kPhaseReps times and keeps its fastest run to trim the
// ±15% run-to-run scheduler noise of a busy host.
//
// Results mirror to BENCH_interp.json (all rows + the full metrics snapshot)
// and BENCH_interp_fused.json (fused rows + ratios), support/bench_json.hpp
// schema.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "apps/kvcache/pir_program.hpp"
#include "interp/machine.hpp"
#include "ir/parser.hpp"
#include "obs/metrics.hpp"
#include "partition/partitioner.hpp"
#include "support/bench_json.hpp"

namespace {

using namespace privagic;  // NOLINT(google-build-using-namespace)
using interp::ExecMode;

// 90k calls puts the fused engine's phase above 150ms: at the previous 30k a
// bytecode-tier rep finished in ~20ms, inside a single scheduler blip, and
// the tier ratios swung ±10% run to run.
constexpr std::uint64_t kBackgroundCalls = 90'000;
// Long enough that one request phase runs ~80ms even on the fused engine:
// shorter phases let a single scheduler blip dominate the treewalk/fused
// request ratio (observed collapsing it from ~1.7x to ~1.1x at 4k calls).
constexpr std::uint64_t kRequestCalls = 16'000;
// Per-phase repetitions; the fastest run wins. The phases are deterministic,
// so repetition only discards scheduler interference, never real work.
// Fastest-of-5 keeps each ratio's run-to-run spread inside its gate margin
// despite ~±8% per-rep noise on each side of the quotient.
constexpr int kPhaseReps = 5;

constexpr double kGateFusedOverTree = 6.0;
constexpr double kGateFusedRequestOverTree = 1.5;  // see header comment

constexpr int kNumModes = 2;
constexpr ExecMode kModes[kNumModes] = {ExecMode::kTreeWalk, ExecMode::kFused};

const char* mode_name(ExecMode mode) {
  switch (mode) {
    case ExecMode::kFused: return "fused";
    case ExecMode::kTreeWalk: return "treewalk";
  }
  return "?";
}

std::unique_ptr<partition::PartitionResult> compile_kvcache() {
  auto parsed = ir::parse_module(apps::kMinicachedCorePir);
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse failed: %s\n", parsed.message().c_str());
    std::exit(1);
  }
  static std::unique_ptr<ir::Module> module = std::move(parsed).value();
  static sectype::TypeAnalysis analysis(*module, sectype::Mode::kHardened);
  if (!analysis.run()) {
    std::fprintf(stderr, "type check failed\n");
    std::exit(1);
  }
  auto result = partition::partition_module(analysis);
  if (!result.ok()) {
    std::fprintf(stderr, "partition failed: %s\n", result.message().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

std::unique_ptr<interp::Machine> make_machine(const partition::PartitionResult& program,
                                              ExecMode mode) {
  auto m = std::make_unique<interp::Machine>(program, /*epc_limit_bytes=*/0, mode);
  for (const char* boundary : {"classify", "declassify"}) {
    m->bind_external(boundary, [](interp::Machine::ExternalCtx&,
                                  std::span<const std::int64_t> a) {
      return a.empty() ? 0 : a[0];
    });
  }
  m->bind_external("log_line", [](interp::Machine::ExternalCtx&,
                                  std::span<const std::int64_t>) { return 0; });
  m->bind_external("net_send", [](interp::Machine::ExternalCtx&,
                                  std::span<const std::int64_t>) { return 0; });
  return m;
}

struct PhaseResult {
  double seconds = 0.0;
  std::uint64_t instructions = 0;
  std::uint64_t calls = 0;
  [[nodiscard]] double instr_per_sec() const { return static_cast<double>(instructions) / seconds; }
  [[nodiscard]] double calls_per_sec() const { return static_cast<double>(calls) / seconds; }
};

PhaseResult run_background(const partition::PartitionResult& program, ExecMode mode) {
  auto m = make_machine(program, mode);
  for (int i = 0; i < 200; ++i) (void)m->call("background_tick", {});  // warmup
  const std::uint64_t before = m->instructions_executed();
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < kBackgroundCalls; ++i) {
    auto r = m->call("background_tick", {});
    if (!r.ok()) {
      std::fprintf(stderr, "background_tick failed: %s\n", r.message().c_str());
      std::exit(1);
    }
  }
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
  PhaseResult out;
  out.seconds = elapsed.count();
  out.instructions = m->instructions_executed() - before;
  out.calls = kBackgroundCalls;
  return out;
}

PhaseResult run_requests(const partition::PartitionResult& program, ExecMode mode) {
  auto m = make_machine(program, mode);
  // Deterministic 40% put / 50% get / 10% stats mix over 256 keys.
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  m->bind_external("net_recv", [&state](interp::Machine::ExternalCtx&,
                                        std::span<const std::int64_t>) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint64_t r = state >> 16;
    const std::uint64_t key = r % 256;
    const std::uint64_t pick = r % 10;
    std::uint64_t op = pick < 5 ? 0 : pick < 9 ? 1 : 2;  // get / put / stats
    return static_cast<std::int64_t>((op << 62) | (key << 32) | (r & 0xFFFF));
  });
  for (int i = 0; i < 100; ++i) (void)m->call("handle_request", {});  // warmup
  const std::uint64_t before = m->instructions_executed();
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < kRequestCalls; ++i) {
    auto r = m->call("handle_request", {});
    if (!r.ok()) {
      std::fprintf(stderr, "handle_request failed: %s\n", r.message().c_str());
      std::exit(1);
    }
  }
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
  PhaseResult out;
  out.seconds = elapsed.count();
  out.instructions = m->instructions_executed() - before;
  out.calls = kRequestCalls;
  return out;
}

void keep_best(PhaseResult& best, const PhaseResult& r) {
  if (best.seconds == 0.0 || r.seconds < best.seconds) best = r;
}

/// Runs one phase kPhaseReps times *per engine*, interleaved round-robin
/// (tree, fused, tree, ...), keeping each engine's fastest
/// rep. Interleaving matters on a shared box: a sustained interference window
/// then degrades every engine's rep instead of wiping out one engine's
/// whole sample, which is what skews a ratio.
template <typename PhaseFn>
void interleaved_best(PhaseResult (&best)[kNumModes], PhaseFn&& phase_fn) {
  for (auto& b : best) b = PhaseResult{};
  for (int rep = 0; rep < kPhaseReps; ++rep) {
    for (int i = 0; i < kNumModes; ++i) keep_best(best[i], phase_fn(kModes[i]));
  }
}

void print_row(const char* phase, ExecMode mode, const PhaseResult& r) {
  std::printf("%-16s %-9s %12llu %10.3f %15.0f %12.0f\n", phase, mode_name(mode),
              static_cast<unsigned long long>(r.instructions), r.seconds,
              r.instr_per_sec(), r.calls_per_sec());
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_interp.json";
  const std::string fused_json_path = argc > 2 ? argv[2] : "BENCH_interp_fused.json";
  auto program = compile_kvcache();
  // Collect the per-color/queue counters alongside the timings; every engine
  // pays the same (sub-noise) recording cost, so the reported ratios are
  // unaffected. The snapshot is embedded into the JSON below.
  obs::MetricsRegistry::global().reset_all();
  obs::set_metrics_enabled(true);

  std::printf("== Interpreter throughput: tree-walker vs fused on kvcache ==\n\n");
  std::printf("%-16s %-9s %12s %10s %15s %12s\n", "phase", "engine", "instructions",
              "seconds", "instr/sec", "calls/sec");

  PhaseResult bg[kNumModes];
  PhaseResult rq[kNumModes];
  interleaved_best(bg, [&](ExecMode mode) { return run_background(*program, mode); });
  for (int i = 0; i < kNumModes; ++i) print_row("background_tick", kModes[i], bg[i]);
  interleaved_best(rq, [&](ExecMode mode) { return run_requests(*program, mode); });
  for (int i = 0; i < kNumModes; ++i) print_row("handle_request", kModes[i], rq[i]);
  const PhaseResult& bg_tree = bg[0];
  const PhaseResult& bg_fused = bg[1];
  const PhaseResult& rq_tree = rq[0];
  const PhaseResult& rq_fused = rq[1];

  const double fused_interp_ratio = bg_fused.instr_per_sec() / bg_tree.instr_per_sec();
  const double fused_request_ratio = rq_fused.instr_per_sec() / rq_tree.instr_per_sec();

  std::printf("\nfused/treewalk   interpreted throughput (background_tick): %.2fx  (gate: >=%gx)\n",
              fused_interp_ratio, kGateFusedOverTree);
  std::printf("fused/treewalk   request-loop throughput:                  %.2fx  (gate: >=%gx)\n",
              fused_request_ratio, kGateFusedRequestOverTree);

  support::BenchJsonWriter json("interp_speed");
  json.meta("workload", "kvcache (minicached_core, hardened)")
      .meta("background_calls", kBackgroundCalls)
      .meta("request_calls", kRequestCalls);
  for (const auto& [phase, mode, r] :
       {std::tuple{"background_tick", ExecMode::kTreeWalk, bg_tree},
        std::tuple{"background_tick", ExecMode::kFused, bg_fused},
        std::tuple{"handle_request", ExecMode::kTreeWalk, rq_tree},
        std::tuple{"handle_request", ExecMode::kFused, rq_fused}}) {
    json.add_row()
        .set("phase", phase)
        .set("engine", mode_name(mode))
        .set("instructions", r.instructions)
        .set("seconds", r.seconds)
        .set("instructions_per_sec", r.instr_per_sec())
        .set("calls_per_sec", r.calls_per_sec());
  }
  // The structural counters come from the registry snapshot via
  // embed_metrics; the ratio floors ride in BENCH_interp_fused.json below.
  obs::set_metrics_enabled(false);
  obs::embed_metrics(json);
  if (!json.write_file(json_path)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", json_path.c_str());

  support::BenchJsonWriter fused_json("interp_fused");
  fused_json.meta("workload", "kvcache (minicached_core, hardened)")
      .meta("background_calls", kBackgroundCalls)
      .meta("request_calls", kRequestCalls)
      .meta("gate_fused_over_treewalk_background", kGateFusedOverTree)
      .meta("gate_fused_request_over_treewalk", kGateFusedRequestOverTree);
  for (const auto& [phase, mode, r] : {std::tuple{"background_tick", ExecMode::kFused, bg_fused},
                                       std::tuple{"handle_request", ExecMode::kFused, rq_fused}}) {
    fused_json.add_row()
        .set("phase", phase)
        .set("engine", mode_name(mode))
        .set("instructions", r.instructions)
        .set("seconds", r.seconds)
        .set("instructions_per_sec", r.instr_per_sec())
        .set("calls_per_sec", r.calls_per_sec());
  }
  fused_json.metric("fused_interp_throughput_ratio", fused_interp_ratio)
      .metric("fused_request_throughput_ratio", fused_request_ratio);
  if (!fused_json.write_file(fused_json_path)) {
    std::fprintf(stderr, "failed to write %s\n", fused_json_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", fused_json_path.c_str());

  const bool gates_ok = fused_interp_ratio >= kGateFusedOverTree &&
                        fused_request_ratio >= kGateFusedRequestOverTree;
  return gates_ok ? 0 : 2;
}
