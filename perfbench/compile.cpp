// The compile workload: seeded, generated colored PIR programs of 10 to 1000
// functions through parse → type check → partition → placement → default
// lints → Machine load. Each program's entry then runs, outside the timed
// interval, and must return the value the generator computed.
#include <sys/resource.h>

#include <array>
#include <cstdio>
#include <limits>
#include <sstream>

#include "bench.hpp"

namespace perfbench {

using namespace privagic;  // NOLINT(google-build-using-namespace)

namespace {

// One program of each size per ladder; a run compiles kLadders ladders.
constexpr std::array<int, 7> kLadder = {10, 20, 50, 100, 200, 500, 1000};
constexpr std::size_t kLadders = 3;
constexpr int kSetups = 5;
constexpr std::size_t kMinPasses = 3;
constexpr const char* kColors[4] = {"", "blue", "red", "green"};

/// The shape of one generated function f<i>(x):
///   acc = x;  [loop]   for j < k: { [g_C += acc] acc = acc * a + j }
///   y = [branch] ? (acc <s b ? acc + d : acc ^ e) : acc ^ e
///   r = f<2i+1>(y); r = f<2i+2>(r)        (the children that exist)
///   return leaf ? y : (add ? y + r : y ^ r)
/// A colored leaf also adds x (or acc, in its loop) to its color's global.
/// Only leaves are colored, so every cross-color call goes from U into an
/// enclave and straight back: the runtime deadlocks or corrupts its heap on
/// some large programs whose enclave functions call further functions (see
/// NOTES.md).
struct GenFn {
  int color = 0;  // index into kColors; 0 = uncolored
  bool loop = false, branch = false, add = false;
  std::int64_t k = 1;
  std::uint64_t a = 3, d = 1, e = 1;
  std::int64_t b = 0;
};

struct GenProgram {
  std::string source;
  std::int64_t arg = 0;
  std::int64_t expected = 0;
  int functions = 0;
};

std::uint64_t eval(const std::vector<GenFn>& fns, std::size_t i, std::uint64_t x) {
  const GenFn& f = fns[i];
  std::uint64_t acc = x;
  for (std::int64_t j = 0; f.loop && j < f.k; ++j) {
    acc = acc * f.a + static_cast<std::uint64_t>(j);
  }
  const std::uint64_t y =
      f.branch && static_cast<std::int64_t>(acc) < f.b ? acc + f.d : acc ^ f.e;
  std::uint64_t r = y;
  bool leaf = true;
  for (const std::size_t c : {2 * i + 1, 2 * i + 2}) {
    if (c < fns.size()) {
      r = eval(fns, c, r);
      leaf = false;
    }
  }
  if (leaf) return y;
  return f.add ? y + r : y ^ r;
}

void emit(std::ostringstream& src, const std::vector<GenFn>& fns, std::size_t i) {
  const GenFn& f = fns[i];
  const std::string global = f.color ? std::string("@g_") + kColors[f.color] : "";
  const std::string ptr = f.color ? std::string("ptr<i64 color(") + kColors[f.color] + ")>" : "";
  const auto update = [&](const std::string& v) {
    src << "  %cv = load " << ptr << ' ' << global << "\n  %cw = add i64 %cv, " << v << '\n'
        << "  store i64 %cw, " << ptr << ' ' << global << '\n';
  };
  src << "define i64 @f" << i << "(i64 %x)" << (i == 0 ? " entry" : "") << " {\nentry:\n";
  std::string acc = "%x";
  if (f.loop) {
    src << "  br %head\nhead:\n"
        << "  %j = phi i64 [ i64 0, %entry ], [ %j2, %body ]\n"
        << "  %acc = phi i64 [ %x, %entry ], [ %acc2, %body ]\n"
        << "  %more = icmp slt i64 %j, i64 " << f.k << '\n'
        << "  cond_br i1 %more, %body, %exit\nbody:\n";
    if (f.color) update("%acc");
    src << "  %t = mul i64 %acc, i64 " << f.a << "\n  %acc2 = add i64 %t, %j\n"
        << "  %j2 = add i64 %j, i64 1\n  br %head\nexit:\n";
    acc = "%acc";
  } else if (f.color) {
    update("%x");
  }
  if (f.branch) {
    src << "  %c = icmp slt i64 " << acc << ", i64 " << f.b << '\n'
        << "  cond_br i1 %c, %then, %else\nthen:\n"
        << "  %y1 = add i64 " << acc << ", i64 " << f.d << "\n  br %join\nelse:\n"
        << "  %y2 = xor i64 " << acc << ", i64 " << f.e << "\n  br %join\njoin:\n"
        << "  %y = phi i64 [ %y1, %then ], [ %y2, %else ]\n";
  } else {
    src << "  %y = xor i64 " << acc << ", i64 " << f.e << '\n';
  }
  std::string r = "%y";
  for (const std::size_t c : {2 * i + 1, 2 * i + 2}) {
    if (c >= fns.size()) continue;
    const std::string next = "%r" + std::to_string(c);
    src << "  " << next << " = call i64 @f" << c << "(i64 " << r << ")\n";
    r = next;
  }
  if (r == "%y") {
    src << "  ret i64 %y\n}\n";
  } else {
    src << "  %z = " << (f.add ? "add" : "xor") << " i64 %y, " << r << "\n  ret i64 %z\n}\n";
  }
}

GenProgram generate(std::uint64_t seed, std::uint64_t index) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull ^ (index + 1) * 0xD1B54A32D192ED03ull);
  const int n = kLadder[index % kLadder.size()];
  std::vector<GenFn> fns(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < fns.size(); ++i) {
    GenFn& f = fns[i];
    // The shape follows the index, so programs of one size cost the same to
    // compile whatever the seed; the seed picks colors and constants.
    const bool leaf = 2 * i + 1 >= fns.size();
    f.color = leaf && i % 5 != 0 ? 1 + static_cast<int>(rng.below(3)) : 0;
    f.loop = i % 4 < 2;
    f.branch = i % 4 == 1 || i % 4 == 2;
    f.add = rng.below(2) == 1;
    f.k = 1 + static_cast<std::int64_t>(rng.below(4));
    f.a = 3 + 2 * rng.below(1u << 16);
    f.b = static_cast<std::int64_t>(rng.next() >> 1) - (std::int64_t{1} << 62);
    f.d = 1 + rng.below(1u << 20);
    f.e = 1 + rng.below(1u << 20);
  }
  GenProgram p;
  p.functions = n;
  p.arg = static_cast<std::int64_t>(rng.below(1u << 30));
  p.expected = static_cast<std::int64_t>(eval(fns, 0, static_cast<std::uint64_t>(p.arg)));
  std::ostringstream src;
  src << "module \"gen" << index << "\"\n";
  for (int c = 1; c < 4; ++c) {
    src << "global i64 @g_" << kColors[c] << " = 0 color(" << kColors[c] << ")\n";
  }
  for (std::size_t i = fns.size(); i-- > 0;) emit(src, fns, i);
  p.source = src.str();
  return p;
}

/// What one compiled program measured.
struct ProgramRun {
  bool ok = false;
  std::int64_t t_start = 0, t_loaded = 0;  // the timed interval
  double stage_ms[5] = {};
  double load_ms = 0.0;
  double run_s = 0.0;  // the untimed entry run
  std::uint64_t insts = 0, specs = 0, chunks = 0, out_insts = 0;
  std::uint64_t entry_insts = 0, msgs = 0, batched = 0, flushes = 0, enclave = 0;
};

ProgramRun compile_and_run(const GenProgram& p, std::uint64_t check_no, bool inject_wrong,
                           SpanLog* spans, std::uint32_t op_id) {
  ProgramRun run;
  Compiled c = compile_pir(p.source, sectype::Mode::kRelaxed);
  std::unique_ptr<interp::Machine> m;
  if (c.error.empty()) m = load_machine(c);
  run.t_start = c.t[0];
  run.t_loaded = now_ns();
  if (!c.error.empty()) {
    std::fprintf(stderr, "perfbench: generated program %d fns: %s\n", p.functions,
                 c.error.substr(0, 300).c_str());
    return run;
  }
  for (int i = 0; i < 5; ++i) run.stage_ms[i] = static_cast<double>(c.t[i + 1] - c.t[i]) * 1e-6;
  run.load_ms = static_cast<double>(run.t_loaded - c.t[5]) * 1e-6;
  run.insts = c.insts;
  run.specs = c.specs;
  run.chunks = c.chunks;
  run.out_insts = c.out_insts;
  if (spans != nullptr) {
    const std::int32_t parent =
        spans->add(spans->name_id("program"), -1, op_id, run.t_start, run.t_loaded);
    for (int i = 0; i < 5 && parent >= 0; ++i) {
      spans->add(spans->name_id(kStageNames[i]), parent, op_id, c.t[i], c.t[i + 1]);
    }
    if (parent >= 0) spans->add(spans->name_id("load"), parent, op_id, c.t[5], run.t_loaded);
  }

  const std::int64_t run0 = now_ns();
  auto res = m->call("f0", {p.arg});
  run.run_s = seconds_between(run0, now_ns());
  const auto stats = m->runtime_stats();
  run.entry_insts = m->instructions_executed();
  run.msgs = stats.messages_sent;
  run.batched = stats.batched_messages;
  run.flushes = stats.batch_flushes;
  run.enclave = enclave_bytes(*m, c);
  std::int64_t expected = p.expected;
  // Programs are few, so the self-test perturbs one in seven.
  if (inject_wrong && check_no % 7 == 0) expected ^= 1;
  run.ok = res.ok() && res.value() == expected;
  if (!res.ok()) std::fprintf(stderr, "perfbench: entry run: %s\n", res.message().c_str());
  return run;
}

}  // namespace

void run_compile(const Options& o, Report& r) {
  // Set-up: generate the run's programs and warm the pipeline on a
  // 100-function one, kSetups times over; the last set is measured.
  std::vector<GenProgram> programs;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetups; ++rep) {
    const std::int64_t t0 = now_ns();
    programs.clear();
    for (std::uint64_t i = 0; i < kLadders * kLadder.size(); ++i) {
      programs.push_back(generate(o.seed, i));
    }
    if (!compile_and_run(programs[3], 1, false, nullptr, 0).ok) {
      r.problems.push_back("warm-up program failed");
    }
    setup_s.push_back(seconds_between(t0, now_ns()));
  }

  // Whole passes over the programs until the time is up. Compiling is
  // deterministic single-threaded work, where noise only adds time, so each
  // program's latency is its fastest untraced compile (see NOTES.md). A
  // traced run compiles each program twice, untraced and traced in
  // alternating order, so the two rates cover the same programs.
  std::vector<double> best_us(programs.size(), std::numeric_limits<double>::infinity());
  double plain_s = 0.0;
  std::uint64_t passes = 0;
  double traced_s = 0.0, stage_ms[5] = {}, load_ms = 0.0, run_s = 0.0;
  std::uint64_t traced_programs = 0, entry_insts = 0, batched = 0, flushes = 0;
  std::map<std::string, double> first;
  struct rusage ru0 {}, ru1 {};
  getrusage(RUSAGE_SELF, &ru0);
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(o.seconds * 1e9);
  for (; passes < kMinPasses || now_ns() < end; ++passes) {
    std::map<std::string, double> counts;
    for (std::size_t n = 0; n < (o.trace ? 2 : 1) * programs.size(); ++n) {
      const std::size_t i = o.trace ? n / 2 : n;
      const bool traced = o.trace && (n + i) % 2 == 1;
      const ProgramRun run =
          compile_and_run(programs[i], r.attempted + 1, o.inject_wrong,
                          traced ? &r.spans : nullptr, static_cast<std::uint32_t>(r.attempted));
      ++r.attempted;
      if (!run.ok) ++r.failed;
      for (int s = 0; s < 5; ++s) stage_ms[s] += run.stage_ms[s];
      load_ms += run.load_ms;
      run_s += run.run_s;
      entry_insts += run.entry_insts;
      batched += run.batched;
      flushes += run.flushes;
      const double secs = seconds_between(run.t_start, run.t_loaded);
      if (traced) {
        traced_s += secs;
        ++traced_programs;
        continue;
      }
      best_us[i] = std::min(best_us[i], secs * 1e6);
      plain_s += secs;
      counts["ir.insts"] += static_cast<double>(run.insts);
      counts["sectype.specs"] += static_cast<double>(run.specs);
      counts["partition.chunks"] += static_cast<double>(run.chunks);
      counts["partition.out_insts"] += static_cast<double>(run.out_insts);
      counts["interp.insts_per_op"] += static_cast<double>(run.entry_insts);
      counts["runtime.msgs_per_op"] += static_cast<double>(run.msgs);
      counts["sgx.enclave_kib"] += static_cast<double>(run.enclave) / 1024.0;
    }
    if (passes == 0) {
      first = counts;
    } else if (counts != first) {
      r.problems.push_back("counts drift between passes over the same programs");
    }
  }
  getrusage(RUSAGE_SELF, &ru1);

  r.threads = 1;
  r.metric("setup_s", median(setup_s), "s");
  double best_total_us = 0.0;
  for (const double b : best_us) best_total_us += b;
  r.metric("ops_per_s", static_cast<double>(programs.size()) / (best_total_us * 1e-6), "1/s");
  r.metric("lat_p50_us", quantile(best_us, 0.50), "us");
  r.metric("lat_p99_us", quantile(best_us, 0.99), "us");
  for (const auto& [name, v] : first) {
    r.count(name, v / static_cast<double>(programs.size()),
            name == "sgx.enclave_kib" ? "KiB" : "count");
  }
  if (!o.trace) return;
  const auto compiles = static_cast<double>(r.attempted);
  for (int s = 0; s < 5; ++s) r.metric(kStageMetrics[s], stage_ms[s] / compiles, "ms");
  r.metric("interp.load_ms", load_ms / compiles, "ms");
  r.metric("interp.instr_per_s", static_cast<double>(entry_insts) / run_s, "1/s");
  r.metric("runtime.msgs_per_flush",
           flushes ? static_cast<double>(batched) / static_cast<double>(flushes) : 0.0,
           "count");
  r.metric("runtime.parks_per_op", static_cast<double>(ru1.ru_nvcsw - ru0.ru_nvcsw) / compiles,
           "count");
  r.metric("runtime.preempts_per_op",
           static_cast<double>(ru1.ru_nivcsw - ru0.ru_nivcsw) / compiles, "count");
  const auto plain_programs = static_cast<double>(passes * programs.size());
  r.metric("trace.overhead_frac",
           1.0 - (static_cast<double>(traced_programs) / traced_s) / (plain_programs / plain_s),
           "frac");
  if (r.spans.untiled("program") != 0) r.problems.push_back("program spans do not tile");
}

}  // namespace perfbench
