// perfbench: the Privagic benchmark binary.
//
//   perfbench --workload kv_1|kv_2|crawl|compile --seed N --seconds S
//             [--trace 0|1] [--spans FILE] [--inject-wrong]
//
// Runs one workload for S seconds of measurement and prints one JSON line:
// correct/attempted/failed, every metric it measured (name → value, unit),
// the deterministic counts, and the thread count. perfbench/run.py builds
// this binary, picks the metrics of the requested mode and prints the
// final result line. NOTES.md describes the workloads and metrics.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "analysis/pass_manager.hpp"
#include "analysis/placement.hpp"
#include "bench.hpp"
#include "ir/parser.hpp"
#include "runtime/workers.hpp"
#include "sgx/cost_model.hpp"
#include "sgx/memory.hpp"

namespace perfbench {

using namespace privagic;  // NOLINT(google-build-using-namespace)

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  const std::size_t k = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

double median(std::vector<double> v) { return quantile(v, 0.5); }

// ---- spans -------------------------------------------------------------------

std::uint16_t SpanLog::name_id(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint16_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<std::uint16_t>(names_.size() - 1);
}

std::int32_t SpanLog::add(std::uint16_t name, std::int32_t parent, std::uint32_t op,
                          std::int64_t start_ns, std::int64_t end_ns) {
  if (spans_.size() >= kMaxSpans) return -1;
  spans_.push_back(Span{name, parent, op, start_ns, end_ns});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void SpanLog::append(const SpanLog& other) {
  const auto base = static_cast<std::int32_t>(spans_.size());
  for (Span s : other.spans_) {
    if (spans_.size() >= kMaxSpans) return;
    s.name = name_id(other.names_[s.name]);
    if (s.parent >= 0) s.parent += base;
    spans_.push_back(s);
  }
}

double SpanLog::median_us(std::string_view name) const {
  std::vector<double> d;
  for (const Span& s : spans_) {
    if (names_[s.name] == name) d.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
  }
  return median(std::move(d));
}

std::uint64_t SpanLog::untiled(std::string_view parent_name) const {
  std::vector<std::int64_t> child_sum(spans_.size(), 0);
  std::vector<bool> bad(spans_.size(), false);
  for (const Span& s : spans_) {
    if (s.parent < 0) continue;
    const std::int64_t d = s.end_ns - s.start_ns;
    child_sum[static_cast<std::size_t>(s.parent)] += d;
    if (d < 0) bad[static_cast<std::size_t>(s.parent)] = true;
  }
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (names_[spans_[i].name] != parent_name) continue;
    const std::int64_t d = spans_[i].end_ns - spans_[i].start_ns;
    if (bad[i] || child_sum[i] != d) ++n;
  }
  return n;
}

bool SpanLog::write_csv(const std::string& path) const {
  std::vector<std::int64_t> covered(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) covered[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  std::ofstream out(path);
  if (!out) return false;
  out << "name,op,start_ns,end_ns,parent,self_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << names_[s.name] << ',' << s.op << ',' << s.start_ns << ',' << s.end_ns << ','
        << s.parent << ',' << (s.end_ns - s.start_ns - covered[i]) << '\n';
  }
  return static_cast<bool>(out);
}

// ---- compile pipeline ------------------------------------------------------------

Compiled compile_pir(std::string_view source, sectype::Mode mode) {
  Compiled c;
  c.t[0] = now_ns();
  auto parsed = ir::parse_module(source);
  c.t[1] = now_ns();
  if (!parsed.ok()) {
    c.error = "parse: " + parsed.message();
    return c;
  }
  c.module = std::move(parsed).value();
  c.insts = c.module->instruction_count();
  c.types = std::make_unique<sectype::TypeAnalysis>(*c.module, mode);
  const bool typed = c.types->run();
  c.t[2] = now_ns();
  if (!typed) {
    c.error = "type check: " + c.types->diagnostics().to_string();
    return c;
  }
  c.specs = c.types->reachable_specs().size();
  auto partitioned = partition::partition_module(*c.types);
  c.t[3] = now_ns();
  if (!partitioned.ok()) {
    c.error = "partition: " + partitioned.message();
    return c;
  }
  c.program = std::move(partitioned).value();
  c.chunks = c.program->chunks.size();
  c.out_insts = c.program->module->instruction_count();
  const auto graph = analysis::build_interaction_graph(*c.types);
  c.slots = analysis::search_placement(graph, sgx::CostParams::machine_a())
                .slot_table(c.program->color_table);
  c.t[4] = now_ns();
  auto lints = analysis::PassManager::with_default_passes(mode);
  const bool lint_errors = lints.run(*c.module).has_errors();
  c.t[5] = now_ns();
  if (lint_errors) c.error = "lint: type errors on a program the checker accepted";
  return c;
}

std::unique_ptr<interp::Machine> load_machine(const Compiled& c) {
  auto m = std::make_unique<interp::Machine>(*c.program);
  m->set_placement(c.slots);
  return m;
}

std::uint64_t enclave_bytes(interp::Machine& m, const Compiled& c) {
  std::uint64_t total = 0;
  for (std::size_t id = 1; id < c.program->color_table.size(); ++id) {
    total += m.memory().live_bytes(static_cast<sgx::ColorId>(id));
  }
  return total;
}

namespace {

// ---- layer probes (traced run only) ------------------------------------------------

/// Raw spawn+ack round trip through ThreadRuntime: to the caller's own color
/// (@p same, served inline) or to a worker of another color.
double rtt_ns(bool same, std::uint64_t rounds) {
  runtime::ThreadRuntime* rtp = nullptr;
  runtime::RecoveryOptions opt;
  opt.spawn_secret = 0x9E3779B97F4A7C15ull;
  runtime::ThreadRuntime rt(
      /*num_colors=*/2,
      [&rtp](std::size_t, std::uint64_t, std::int64_t tags, std::int64_t leader,
             std::int64_t) { rtp->ack(leader, tags + 1); },
      opt);
  rtp = &rt;
  const std::int64_t target = same ? 0 : 1;
  const std::int64_t start = now_ns();
  for (std::uint64_t i = 0; i < rounds; ++i) {
    const auto tags = static_cast<std::int64_t>(i) * 4;
    rt.spawn(target, /*chunk=*/1, tags, /*leader=*/0, /*flags=*/0);
    rt.wait_ack(/*me=*/0, tags + 1);
  }
  const std::int64_t end = now_ns();
  rt.shutdown();
  return static_cast<double>(end - start) / static_cast<double>(rounds);
}

/// One 8-byte SimMemory access from an enclave color, reads and writes
/// alternating over a small enclave region.
double sgx_rw_ns(std::uint64_t pairs) {
  sgx::SimMemory mem;
  constexpr sgx::ColorId kEnclave = 1;
  const std::uint64_t base = mem.allocate(256, kEnclave);
  std::uint64_t word = 0;
  const std::int64_t start = now_ns();
  for (std::uint64_t i = 0; i < pairs; ++i) {
    const std::uint64_t addr = base + 8 * (i & 31);
    mem.read(addr, std::as_writable_bytes(std::span{&word, 1}), kEnclave);
    ++word;
    mem.write(addr, std::as_bytes(std::span{&word, 1}), kEnclave);
  }
  const std::int64_t end = now_ns();
  return static_cast<double>(end - start) / static_cast<double>(2 * pairs);
}

void run_probes(Report& r) {
  constexpr int kReps = 5;
  std::vector<double> cross, same, rw;
  for (int i = 0; i < kReps; ++i) {
    cross.push_back(rtt_ns(false, 4'000));
    same.push_back(rtt_ns(true, 40'000));
    rw.push_back(sgx_rw_ns(100'000));
  }
  r.metric("runtime.rtt_cross_ns", median(cross), "ns");
  r.metric("runtime.rtt_same_ns", median(same), "ns");
  r.metric("sgx.rw_ns", median(rw), "ns");
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out;
}

void print_report(const Report& r) {
  const bool correct = r.failed == 0 && r.problems.empty() && r.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"threads\": %d",
              correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), r.threads);
  std::printf(", \"build_type\": \"%s\", \"problems\": [", PERFBENCH_BUILD_TYPE);
  for (std::size_t i = 0; i < r.problems.size(); ++i) {
    std::printf("%s\"%s\"", i ? ", " : "", json_escape(r.problems[i]).c_str());
  }
  std::printf("], \"metrics\": {");
  bool first = true;
  for (const auto& [name, vu] : r.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                name.c_str(), std::isfinite(vu.first) ? vu.first : 0.0, vu.second.c_str());
    first = false;
  }
  std::printf("}, \"counts\": {");
  first = true;
  for (const auto& [name, v] : r.counts) {
    std::printf("%s\"%s\": %.17g", first ? "" : ", ", name.c_str(), v);
    first = false;
  }
  std::printf("}}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload kv_1|kv_2|crawl|compile --seed N --seconds S"
               " [--trace 0|1] [--spans FILE] [--inject-wrong]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;  // NOLINT(google-build-using-namespace)
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      o.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--spans" && has_value) {
      o.spans_path = argv[++i];
    } else if (a == "--inject-wrong") {
      o.inject_wrong = true;
    } else {
      return usage();
    }
  }
  if (!(o.seconds > 0.0 && o.seconds <= 3600.0)) return usage();

  Report r;
  try {
    if (o.workload == "kv_1") {
      run_kv(o, 1, r);
    } else if (o.workload == "kv_2") {
      run_kv(o, 2, r);
    } else if (o.workload == "crawl") {
      run_crawl(o, r);
    } else if (o.workload == "compile") {
      run_compile(o, r);
    } else {
      return usage();
    }
    if (o.trace) {
      run_probes(r);
      if (o.workload == "crawl" || o.workload == "compile") kv_span_probe(o, 0.5, r);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (o.trace && !o.spans_path.empty() && !r.spans.write_csv(o.spans_path)) {
    r.problems.push_back("could not write " + o.spans_path);
  }
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  r.metric("peak_rss_mib", static_cast<double>(ru.ru_maxrss) / 1024.0, "MiB");
  r.metric("fail_frac",
           r.attempted == 0 ? 1.0
                            : static_cast<double>(r.failed) / static_cast<double>(r.attempted),
           "frac");
  print_report(r);
  return 0;
}
