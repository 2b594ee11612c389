// The kvcache workloads: kv_1 and kv_2 (closed-loop handle_request clients)
// and crawl (closed-loop background_tick), all on the hardened
// apps::kMinicachedCorePir program and the default engine.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "apps/kvcache/pir_program.hpp"
#include "bench.hpp"

namespace perfbench {

using namespace privagic;  // NOLINT(google-build-using-namespace)

namespace {

constexpr int kSlots = 256;  // the store map's direct-indexed slots
constexpr std::uint64_t kWarmupOps = 2'000;
constexpr std::uint64_t kOpGet = 0, kOpPut = 1, kOpStats = 2;

/// Where one traced request is, as the benchmark's own callbacks see it.
struct Stamps {
  std::int64_t recv = 0, classify = 0, decl_first = 0, decl_last = 0, send = 0;
};

/// One closed-loop client: its request stream, a shadow of its slots of the
/// store map, and what it measured.
struct KvClient {
  int id = 0;
  int clients = 1;
  std::uint64_t key_lo = 0, key_n = 0;  // the client's keys: [key_lo, key_lo + key_n)
  Rng rng{0};
  std::array<std::uint64_t, kSlots> keys{}, vals{};  // shadow of the map
  std::uint64_t gets = 0, puts = 0;                  // since the machine was built
  bool inject_wrong = false;
  std::uint64_t checks = 0;

  std::int64_t req = 0;   // what net_recv hands the program
  std::int64_t sent = 0;  // what the program gave net_send
  bool tracing = false;
  Stamps st;
  std::uint64_t misplaced = 0;  // callbacks that ran in an unexpected color

  std::vector<double> lat_us;  // untraced-phase latencies of this block
  std::uint64_t ops = 0, failed = 0, traced_ops = 0;
  std::int64_t plain_stop = 0, traced_stop = 0;  // when each phase's last request ended
  std::uint64_t warm_msgs = 0, warm_insts = 0;
  std::string first_error;
  SpanLog spans;
};

// The client a callback belongs to. A client thread binds itself; a store
// worker binds to the client whose serial warm-up it first serves.
thread_local KvClient* tl_client = nullptr;
std::atomic<KvClient*> g_binding{nullptr};

KvClient* client() {
  if (tl_client == nullptr) tl_client = g_binding.load(std::memory_order_acquire);
  return tl_client;
}

using Args = std::span<const std::int64_t>;
using Ctx = interp::Machine::ExternalCtx;

void bind_kv_externals(interp::Machine& m) {
  m.bind_external("net_recv", [](Ctx&, Args) -> std::int64_t {
    KvClient* c = client();
    if (c->tracing) c->st.recv = now_ns();
    return c->req;
  });
  m.bind_external("classify", [](Ctx& ctx, Args a) -> std::int64_t {
    KvClient* c = client();
    if (c != nullptr && c->tracing) {
      if (c->st.classify == 0) c->st.classify = now_ns();
      if (ctx.color != sgx::kUnsafe) ++c->misplaced;
    }
    return a.empty() ? 0 : a[0];
  });
  m.bind_external("declassify", [](Ctx& ctx, Args a) -> std::int64_t {
    KvClient* c = client();
    if (c != nullptr && c->tracing) {
      const std::int64_t t = now_ns();
      if (c->st.decl_first == 0) c->st.decl_first = t;
      c->st.decl_last = t;
      if (ctx.color == sgx::kUnsafe) ++c->misplaced;
    }
    return a.empty() ? 0 : a[0];
  });
  m.bind_external("net_send", [](Ctx& ctx, Args a) -> std::int64_t {
    KvClient* c = client();
    if (c->tracing) {
      c->st.send = now_ns();
      if (ctx.color != sgx::kUnsafe) ++c->misplaced;
    }
    c->sent = a.empty() ? 0 : a[0];
    return 0;
  });
  m.bind_external("log_line", [](Ctx&, Args) -> std::int64_t { return 0; });
}

std::int64_t encode(std::uint64_t op, std::uint64_t key, std::uint64_t value) {
  return static_cast<std::int64_t>((op << 62) | (key << 32) | (value & 0xFFFFFFFFull));
}

/// The seeded mix: 50% get, 40% put, 10% stats over the client's keys.
std::int64_t next_request(KvClient& c) {
  const std::uint64_t r = c.rng.next();
  const std::uint64_t pick = r % 10;
  const std::uint64_t op = pick < 5 ? kOpGet : pick < 9 ? kOpPut : kOpStats;
  return encode(op, c.key_lo + (r >> 8) % c.key_n, r >> 32);
}

/// Checks one response against the shadow map and advances the shadow.
bool check_response(KvClient& c, std::int64_t req, std::int64_t resp) {
  const auto ureq = static_cast<std::uint64_t>(req);
  const std::uint64_t op = ureq >> 62;
  const std::uint64_t key = (ureq >> 32) & 0x3FFFFFFFull;
  const std::uint64_t idx = key & (kSlots - 1);
  std::uint64_t expect = 0;
  bool exact = true;
  if (op == kOpGet) {
    expect = c.keys[idx] == key ? (1ull << 62) | c.vals[idx] : 0;
    ++c.gets;
  } else if (op == kOpPut) {
    c.keys[idx] = key;
    c.vals[idx] = ureq & 0xFFFFFFFFull;
    expect = 2ull << 62;
    ++c.puts;
  } else {
    // gets + puts + hits (never bumped). Exact with one client; with two,
    // the untrusted counters are shared and only the status is checked.
    expect = (3ull << 62) | (c.gets + c.puts);
    exact = c.clients == 1;
  }
  if (c.inject_wrong && ++c.checks % kWrongEvery == 0) expect ^= 1;
  const auto uresp = static_cast<std::uint64_t>(resp);
  const bool match = exact ? uresp == expect : (uresp >> 62) == (expect >> 62);
  return match && resp == c.sent;
}

/// Records one sampled request's spans: a get splits into six segments that
/// tile its call span; a put reports classify → net_send.
void record_spans(KvClient& c, std::uint32_t op_id, std::int64_t t0, std::int64_t t1) {
  const std::uint64_t op = static_cast<std::uint64_t>(c.req) >> 62;
  const Stamps& s = c.st;
  SpanLog& log = c.spans;
  if (op == kOpGet) {
    const std::int32_t p = log.add(log.name_id("get"), -1, op_id, t0, t1);
    if (p < 0) return;
    const std::int64_t cut[7] = {t0, s.recv, s.classify, s.decl_first, s.decl_last, s.send, t1};
    static constexpr const char* kSeg[6] = {"call_entry", "u_pre",     "cross_in",
                                            "enclave",    "cross_out", "call_exit"};
    for (int i = 0; i < 6; ++i) log.add(log.name_id(kSeg[i]), p, op_id, cut[i], cut[i + 1]);
  } else if (op == kOpPut) {
    const std::int32_t p = log.add(log.name_id("put"), -1, op_id, t0, t1);
    if (p >= 0) log.add(log.name_id("put_rt"), p, op_id, s.classify, s.send);
  }
}

/// One request: returns false on an error or a wrong answer.
bool one_request(interp::Machine& m, KvClient& c, std::int64_t* t0, std::int64_t* t1) {
  c.req = next_request(c);
  if (c.tracing) c.st = Stamps{};
  *t0 = now_ns();
  auto res = m.call("handle_request", {});
  *t1 = now_ns();
  if (!res.ok()) {
    if (c.first_error.empty()) c.first_error = res.message();
    return false;
  }
  return check_response(c, c.req, res.value());
}

/// Serial set-up of one client: fill every key, then kWarmupOps mixed
/// requests, counting instructions and messages over the mixed part.
void warm_up(interp::Machine& m, KvClient& c) {
  std::int64_t t0 = 0, t1 = 0;
  for (std::uint64_t k = 0; k < c.key_n; ++k) {
    c.req = encode(kOpPut, c.key_lo + k, c.rng.next());
    auto res = m.call("handle_request", {});
    if (!res.ok() || !check_response(c, c.req, res.value())) ++c.failed;
  }
  const std::uint64_t msgs0 = m.runtime_stats().messages_sent;
  const std::uint64_t insts0 = m.instructions_executed();
  for (std::uint64_t i = 0; i < kWarmupOps; ++i) {
    if (!one_request(m, c, &t0, &t1)) ++c.failed;
  }
  c.warm_msgs = m.runtime_stats().messages_sent - msgs0;
  c.warm_insts = m.instructions_executed() - insts0;
}

/// Closed loop until @p deadline; traced when the client's flag is set.
void measure(interp::Machine& m, KvClient& c, std::int64_t deadline) {
  std::int64_t t0 = 0, t1 = 0;
  do {
    const bool ok = one_request(m, c, &t0, &t1);
    if (!ok) ++c.failed;
    if (c.tracing) {
      const auto op_id = static_cast<std::uint32_t>(c.traced_ops * c.clients + c.id);
      if (ok && c.traced_ops % SpanLog::kSampleEvery == 0) record_spans(c, op_id, t0, t1);
      ++c.traced_ops;
    } else {
      c.lat_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
      ++c.ops;
    }
  } while (t1 < deadline);
  (c.tracing ? c.traced_stop : c.plain_stop) = t1;
}

/// One block's end-to-end figures.
struct Sample {
  double ops_per_s = 0.0, p50_us = 0.0, p99_us = 0.0;
};

// kv figures are medians over all blocks: their block-to-block spread is the
// system's own behaviour (thread placement, park and wake-up tails). crawl is
// deterministic single-threaded work, where noise only adds time, so its
// figures come from the fastest fifth of its blocks (see NOTES.md).
constexpr double kKvShare = 1.0;
constexpr double kCrawlShare = 0.2;

/// Reports ops_per_s, lat_p50_us and lat_p99_us: each the median over the
/// @p share of blocks with the highest ops_per_s (at least one).
void report_samples(std::vector<Sample> samples, double share, Report& r) {
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) { return a.ops_per_s > b.ops_per_s; });
  const auto keep = std::max<std::size_t>(
      1, static_cast<std::size_t>(share * static_cast<double>(samples.size()) + 0.5));
  samples.resize(std::min(keep, samples.size()));
  std::vector<double> ops, p50, p99;
  for (const Sample& s : samples) {
    ops.push_back(s.ops_per_s);
    p50.push_back(s.p50_us);
    p99.push_back(s.p99_us);
  }
  r.metric("ops_per_s", median(ops), "1/s");
  r.metric("lat_p50_us", median(p50), "us");
  r.metric("lat_p99_us", median(p99), "us");
}

struct BlockResult {
  double setup_s = 0.0;
  double load_ms = 0.0;
  double stage_ms[5] = {};
  double ops_per_s = 0.0, traced_ops_per_s = 0.0;
  double p50_us = 0.0, p99_us = 0.0;
  double instr_per_s = 0.0, msgs_per_flush = 0.0, parks_per_op = 0.0, preempts_per_op = 0.0;
  std::map<std::string, double> counts;
  std::uint64_t ops = 0;      // measured operations (untraced phase)
  std::uint64_t checked = 0;  // every checked operation, warm-up included
  std::uint64_t failed = 0, misplaced = 0;
  std::string first_error;
};

void fill_compile_stages(const Compiled& c, BlockResult& b) {
  for (int i = 0; i < 5; ++i) b.stage_ms[i] = static_cast<double>(c.t[i + 1] - c.t[i]) * 1e-6;
  b.counts["ir.insts"] = static_cast<double>(c.insts);
  b.counts["sectype.specs"] = static_cast<double>(c.specs);
  b.counts["partition.chunks"] = static_cast<double>(c.chunks);
  b.counts["partition.out_insts"] = static_cast<double>(c.out_insts);
}

Compiled compile_kvcache() {
  Compiled c = compile_pir(apps::kMinicachedCorePir, sectype::Mode::kHardened);
  if (!c.error.empty()) throw std::runtime_error("kvcache does not compile: " + c.error);
  return c;
}

/// One block of a kv workload: fresh compile, Machine and client threads;
/// serial warm-up; then @p plain_s seconds untraced and @p traced_s traced.
BlockResult kv_block(const Options& o, int nclients, double plain_s, double traced_s,
                     SpanLog& spans) {
  BlockResult b;
  const std::int64_t setup0 = now_ns();
  const Compiled c = compile_kvcache();
  const std::int64_t load0 = now_ns();
  auto m = load_machine(c);
  b.load_ms = static_cast<double>(now_ns() - load0) * 1e-6;
  bind_kv_externals(*m);
  fill_compile_stages(c, b);

  std::vector<KvClient> clients(static_cast<std::size_t>(nclients));
  for (int i = 0; i < nclients; ++i) {
    KvClient& k = clients[static_cast<std::size_t>(i)];
    k.id = i;
    k.clients = nclients;
    k.key_n = kSlots / static_cast<std::uint64_t>(nclients);
    k.key_lo = k.key_n * static_cast<std::uint64_t>(i);
    k.rng = Rng(o.seed * 0x100000001B3ull + static_cast<std::uint64_t>(i) + 1);
    k.inject_wrong = o.inject_wrong;
    k.lat_us.reserve(static_cast<std::size_t>(plain_s * 1e6 / nclients) + 1024);
  }

  // Client i warms up when turn == i; everyone measures once go is set.
  std::mutex mu;
  std::condition_variable cv;
  int turn = 0;
  bool go = false;
  std::int64_t plain_end = 0, traced_end = 0;
  std::vector<std::thread> threads;
  for (KvClient& k : clients) {
    threads.emplace_back([&, kp = &k] {
      KvClient& me = *kp;
      tl_client = &me;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return turn == me.id; });
      }
      g_binding.store(&me, std::memory_order_release);
      warm_up(*m, me);
      std::int64_t p_end = 0, t_end = 0;
      {
        std::unique_lock<std::mutex> lock(mu);
        ++turn;
        cv.notify_all();
        cv.wait(lock, [&] { return go; });
        p_end = plain_end;
        t_end = traced_end;
      }
      if (plain_s > 0) measure(*m, me, p_end);
      me.tracing = traced_s > 0;
      if (me.tracing) measure(*m, me, t_end);
      me.tracing = false;
    });
  }
  struct rusage ru0 {}, ru1 {};
  runtime::RuntimeStats::Snapshot rs0, rs1;
  std::uint64_t insts0 = 0;
  std::int64_t start = 0;
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return turn == nclients; });
    start = now_ns();
    b.setup_s = seconds_between(setup0, start);
    g_binding.store(nullptr, std::memory_order_release);
    for (const KvClient& k : clients) {
      b.counts["interp.insts_per_op"] += static_cast<double>(k.warm_insts);
      b.counts["runtime.msgs_per_op"] += static_cast<double>(k.warm_msgs);
    }
    b.counts["interp.insts_per_op"] /= static_cast<double>(kWarmupOps * nclients);
    b.counts["runtime.msgs_per_op"] /= static_cast<double>(kWarmupOps * nclients);
    b.counts["sgx.enclave_kib"] = static_cast<double>(enclave_bytes(*m, c)) / 1024.0;
    getrusage(RUSAGE_SELF, &ru0);
    rs0 = m->runtime_stats();
    insts0 = m->instructions_executed();
    plain_end = start + static_cast<std::int64_t>(plain_s * 1e9);
    traced_end = plain_end + static_cast<std::int64_t>(traced_s * 1e9);
    go = true;
    cv.notify_all();
  }
  for (std::thread& t : threads) t.join();
  const std::int64_t end = now_ns();
  getrusage(RUSAGE_SELF, &ru1);
  rs1 = m->runtime_stats();

  std::vector<double> lat;
  std::uint64_t traced = 0;
  std::int64_t plain_stop = start, traced_stop = start;
  for (KvClient& k : clients) {
    plain_stop = std::max(plain_stop, k.plain_stop);
    traced_stop = std::max(traced_stop, k.traced_stop);
    lat.insert(lat.end(), k.lat_us.begin(), k.lat_us.end());
    b.ops += k.ops;
    b.checked += k.key_n + kWarmupOps + k.ops + k.traced_ops;
    traced += k.traced_ops;
    b.failed += k.failed;
    b.misplaced += k.misplaced;
    if (b.first_error.empty()) b.first_error = k.first_error;
    spans.append(k.spans);
  }
  const double all_ops = static_cast<double>(b.ops + traced);
  if (plain_s > 0) {
    b.ops_per_s = static_cast<double>(b.ops) / seconds_between(start, plain_stop);
    b.p50_us = quantile(lat, 0.50);
    b.p99_us = quantile(lat, 0.99);
  }
  if (traced_s > 0) {
    b.traced_ops_per_s = static_cast<double>(traced) / seconds_between(plain_stop, traced_stop);
  }
  b.instr_per_s = static_cast<double>(m->instructions_executed() - insts0) /
                  seconds_between(start, end);
  const auto flushes = static_cast<double>(rs1.batch_flushes - rs0.batch_flushes);
  b.msgs_per_flush =
      flushes > 0 ? static_cast<double>(rs1.batched_messages - rs0.batched_messages) / flushes
                  : 0.0;
  b.parks_per_op = static_cast<double>(ru1.ru_nvcsw - ru0.ru_nvcsw) / all_ops;
  b.preempts_per_op = static_cast<double>(ru1.ru_nivcsw - ru0.ru_nivcsw) / all_ops;
  return b;
}

/// Median over blocks of one BlockResult field.
template <typename F>
double over_blocks(const std::vector<BlockResult>& blocks, F field) {
  std::vector<double> v;
  for (const BlockResult& b : blocks) v.push_back(field(b));
  return median(std::move(v));
}

/// Folds per-block results into the report: medians for times, the first
/// block's counts, and a problem for any count that differs between blocks.
void report_blocks(const Options& o, const std::vector<BlockResult>& blocks, double share,
                   Report& r) {
  std::vector<Sample> samples;
  for (const BlockResult& b : blocks) {
    r.attempted += b.checked;
    r.failed += b.failed;
    if (!b.first_error.empty()) std::fprintf(stderr, "perfbench: %s\n", b.first_error.c_str());
    if (b.misplaced != 0) r.problems.push_back("a traced callback ran in an unexpected color");
    if (b.counts != blocks.front().counts) r.problems.push_back("counts drift between blocks");
    samples.push_back(Sample{b.ops_per_s, b.p50_us, b.p99_us});
  }
  r.metric("setup_s", over_blocks(blocks, [](const BlockResult& b) { return b.setup_s; }), "s");
  report_samples(samples, share, r);
  for (const auto& [name, v] : blocks.front().counts) {
    const bool kib = name == "sgx.enclave_kib";
    r.count(name, v, kib ? "KiB" : "count");
  }
  if (!o.trace) return;
  for (int i = 0; i < 5; ++i) {
    r.metric(kStageMetrics[i],
             over_blocks(blocks, [i](const BlockResult& b) { return b.stage_ms[i]; }), "ms");
  }
  r.metric("interp.load_ms", over_blocks(blocks, [](const BlockResult& b) { return b.load_ms; }),
           "ms");
  r.metric("interp.instr_per_s",
           over_blocks(blocks, [](const BlockResult& b) { return b.instr_per_s; }), "1/s");
  r.metric("runtime.msgs_per_flush",
           over_blocks(blocks, [](const BlockResult& b) { return b.msgs_per_flush; }), "count");
  r.metric("runtime.parks_per_op",
           over_blocks(blocks, [](const BlockResult& b) { return b.parks_per_op; }), "count");
  r.metric("runtime.preempts_per_op",
           over_blocks(blocks, [](const BlockResult& b) { return b.preempts_per_op; }), "count");
  const double plain = over_blocks(blocks, [](const BlockResult& b) { return b.ops_per_s; });
  const double traced =
      over_blocks(blocks, [](const BlockResult& b) { return b.traced_ops_per_s; });
  r.metric("trace.overhead_frac", plain > 0 ? 1.0 - traced / plain : 0.0, "frac");
}

void span_metrics(const SpanLog& spans, Report& r) {
  static constexpr const char* kSeg[7] = {"call_entry", "u_pre",     "cross_in", "enclave",
                                          "cross_out",  "call_exit", "put_rt"};
  for (const char* seg : kSeg) r.metric(std::string("span.") + seg + "_us", spans.median_us(seg), "us");
  if (spans.median_us("get") <= 0.0) r.problems.push_back("no traced get requests");
  if (spans.untiled("get") != 0) {
    r.problems.push_back("traced get segments do not sum to their call span");
  }
}

// ---- crawl -----------------------------------------------------------------

std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= static_cast<std::uint64_t>(-49064778989728563LL);
  x ^= x >> 33;
  x *= static_cast<std::uint64_t>(-4265267296055464877LL);
  return x ^ (x >> 33);
}

struct CrawlState {
  std::array<std::uint64_t, 16> buckets{};  // host copy of @latency_histogram
  std::int64_t logged = 0;                  // what log_line last received
  std::int64_t log_ns = 0;
  bool tracing = false;
  Rng rng{0};
  std::uint64_t checks = 0;
  bool inject_wrong = false;
};

constexpr std::uint64_t kCrawlWarmupTicks = 10'000;

/// Rewrites one histogram bucket from the host, then runs one tick and
/// compares its result (and what it logged) with the host's checksum.
bool one_tick(interp::Machine& m, std::uint64_t hist, CrawlState& s, std::int64_t* t0,
              std::int64_t* t1) {
  const std::uint64_t j = s.rng.below(16);
  s.buckets[j] = s.rng.next() >> 1;
  m.memory().write(hist + 8 * j, std::as_bytes(std::span{&s.buckets[j], 1}), sgx::kUnsafe);
  std::uint64_t expect = 0;
  for (const std::uint64_t b : s.buckets) expect ^= mix(b);
  expect |= 1;
  if (s.inject_wrong && ++s.checks % kWrongEvery == 0) expect ^= 2;
  *t0 = now_ns();
  auto res = m.call("background_tick", {});
  *t1 = now_ns();
  return res.ok() && static_cast<std::uint64_t>(res.value()) == expect &&
         static_cast<std::uint64_t>(s.logged) == expect;
}

BlockResult crawl_block(const Options& o, double plain_s, double traced_s, SpanLog& spans) {
  BlockResult b;
  const std::int64_t setup0 = now_ns();
  const Compiled c = compile_kvcache();
  const std::int64_t load0 = now_ns();
  auto m = load_machine(c);
  b.load_ms = static_cast<double>(now_ns() - load0) * 1e-6;
  fill_compile_stages(c, b);
  CrawlState s;
  s.rng = Rng(o.seed * 0x100000001B3ull + 7);
  s.inject_wrong = o.inject_wrong;
  for (const char* boundary : {"classify", "declassify"}) {
    m->bind_external(boundary, [](Ctx&, Args a) { return a.empty() ? 0 : a[0]; });
  }
  for (const char* sink : {"net_recv", "net_send"}) {
    m->bind_external(sink, [](Ctx&, Args) -> std::int64_t { return 0; });
  }
  m->bind_external("log_line", [&s](Ctx&, Args a) -> std::int64_t {
    if (s.tracing) s.log_ns = now_ns();
    s.logged = a.size() > 1 ? a[1] : 0;
    return 0;
  });
  const std::uint64_t hist = m->global_address("latency_histogram");
  for (std::size_t j = 0; j < s.buckets.size(); ++j) {
    s.buckets[j] = s.rng.next() >> 1;
    m->memory().write(hist + 8 * j, std::as_bytes(std::span{&s.buckets[j], 1}), sgx::kUnsafe);
  }
  std::int64_t t0 = 0, t1 = 0;
  const std::uint64_t insts0 = m->instructions_executed();
  const std::uint64_t msgs0 = m->runtime_stats().messages_sent;
  for (std::uint64_t i = 0; i < kCrawlWarmupTicks; ++i) {
    if (!one_tick(*m, hist, s, &t0, &t1)) ++b.failed;
  }
  b.counts["interp.insts_per_op"] =
      static_cast<double>(m->instructions_executed() - insts0) / kCrawlWarmupTicks;
  b.counts["runtime.msgs_per_op"] =
      static_cast<double>(m->runtime_stats().messages_sent - msgs0) / kCrawlWarmupTicks;
  b.counts["sgx.enclave_kib"] = static_cast<double>(enclave_bytes(*m, c)) / 1024.0;

  struct rusage ru0 {}, ru1 {};
  getrusage(RUSAGE_SELF, &ru0);
  const std::int64_t start = now_ns();
  b.setup_s = seconds_between(setup0, start);
  const std::uint64_t run_insts0 = m->instructions_executed();
  std::vector<double> lat;
  lat.reserve(static_cast<std::size_t>(plain_s * 2e6) + 1024);
  std::uint64_t traced = 0;
  const std::int64_t plain_end = start + static_cast<std::int64_t>(plain_s * 1e9);
  const std::int64_t traced_end = plain_end + static_cast<std::int64_t>(traced_s * 1e9);
  const auto tick_name = spans.name_id("tick");
  const auto body_name = spans.name_id("tick_body");
  const auto tail_name = spans.name_id("tick_tail");
  while (plain_s > 0 && now_ns() < plain_end) {
    if (!one_tick(*m, hist, s, &t0, &t1)) ++b.failed;
    lat.push_back(static_cast<double>(t1 - t0) * 1e-3);
  }
  b.ops = lat.size();
  b.checked = kCrawlWarmupTicks + b.ops;
  const std::int64_t plain_stop = plain_s > 0 ? t1 : start;
  s.tracing = traced_s > 0;
  while (s.tracing && now_ns() < traced_end) {
    const bool ok = one_tick(*m, hist, s, &t0, &t1);
    if (!ok) ++b.failed;
    if (ok && traced % SpanLog::kSampleEvery == 0) {
      const auto op = static_cast<std::uint32_t>(traced);
      const std::int32_t p = spans.add(tick_name, -1, op, t0, t1);
      if (p >= 0) {
        spans.add(body_name, p, op, t0, s.log_ns);
        spans.add(tail_name, p, op, s.log_ns, t1);
      }
    }
    ++traced;
  }
  const std::int64_t end = now_ns();
  getrusage(RUSAGE_SELF, &ru1);
  b.checked += traced;
  if (plain_s > 0) {
    b.ops_per_s = static_cast<double>(lat.size()) / seconds_between(start, plain_stop);
    b.p50_us = quantile(lat, 0.50);
    b.p99_us = quantile(lat, 0.99);
  }
  if (traced_s > 0) b.traced_ops_per_s = static_cast<double>(traced) / seconds_between(plain_stop, t1);
  b.instr_per_s =
      static_cast<double>(m->instructions_executed() - run_insts0) / seconds_between(start, end);
  const auto all = static_cast<double>(b.ops + traced);
  b.parks_per_op = static_cast<double>(ru1.ru_nvcsw - ru0.ru_nvcsw) / all;
  b.preempts_per_op = static_cast<double>(ru1.ru_nivcsw - ru0.ru_nivcsw) / all;
  return b;
}

}  // namespace

void run_kv(const Options& o, int kv_clients, Report& r) {
  const int n = blocks_for(o.seconds, 1);
  const double block_s = o.seconds / n;
  std::vector<BlockResult> blocks;
  SpanLog spans;
  for (int i = 0; i < n; ++i) {
    blocks.push_back(o.trace ? kv_block(o, kv_clients, block_s / 2, block_s / 2, spans)
                             : kv_block(o, kv_clients, block_s, 0, spans));
  }
  r.threads = 2 * kv_clients;  // each client and its store worker
  report_blocks(o, blocks, kKvShare, r);
  if (o.trace) span_metrics(spans, r);
  r.spans.append(spans);
}

void kv_span_probe(const Options& o, double seconds, Report& r) {
  SpanLog spans;
  const BlockResult b = kv_block(o, 1, 0, seconds, spans);
  if (b.failed != 0 || b.misplaced != 0) r.problems.push_back("kv span probe failed");
  span_metrics(spans, r);
  r.spans.append(spans);
}

void run_crawl(const Options& o, Report& r) {
  // Short blocks, so the fastest fifth can come from brief quiet windows.
  const int n = blocks_for(o.seconds, 4);
  const double block_s = o.seconds / n;
  std::vector<BlockResult> blocks;
  SpanLog spans;
  for (int i = 0; i < n; ++i) {
    blocks.push_back(o.trace ? crawl_block(o, block_s / 2, block_s / 2, spans)
                             : crawl_block(o, block_s, 0, spans));
  }
  r.threads = 1;
  report_blocks(o, blocks, kCrawlShare, r);
  if (o.trace && spans.untiled("tick") != 0) r.problems.push_back("tick spans do not tile");
  r.spans.append(spans);
}

}  // namespace perfbench
