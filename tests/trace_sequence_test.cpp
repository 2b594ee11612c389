// Deterministic trace-sequence fixture: a two-color program must leave the
// canonical cross-enclave event chain in the drained trace — spawn send →
// chunk dispatch on the enclave → result cont send → the leader's wait
// completing with that cont — in non-decreasing timestamp order, under BOTH
// execution engines. This pins the hook placement: if an instrumentation
// point moves to the wrong side of its protocol step, the chain breaks even
// though the program still computes 42. The request rule is pinned too: a
// call is traced whole (U and enclave events under one id) or not at all.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "interp/machine.hpp"
#include "ir/parser.hpp"
#include "obs/hooks.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "partition/partitioner.hpp"
#include "runtime/workers.hpp"

namespace privagic::interp {
namespace {

using obs::EventKind;
using obs::TraceEvent;
using partition::PartitionResult;
using sectype::Mode;
using sectype::TypeAnalysis;

struct Compiled {
  std::unique_ptr<ir::Module> module;
  std::unique_ptr<TypeAnalysis> analysis;
  std::unique_ptr<PartitionResult> program;
};

Compiled compile(const char* text, Mode mode) {
  Compiled c;
  auto parsed = ir::parse_module(text);
  EXPECT_TRUE(parsed.ok()) << parsed.message();
  c.module = std::move(parsed).value();
  c.analysis = std::make_unique<TypeAnalysis>(*c.module, mode);
  EXPECT_TRUE(c.analysis->run()) << c.analysis->diagnostics().to_string();
  auto result = partition::partition_module(*c.analysis);
  EXPECT_TRUE(result.ok()) << result.message();
  c.program = std::move(result).value();
  return c;
}

// Exactly two protection domains: U (main) and blue (@f, which touches the
// blue global). main's call into @f is one spawn/cont round trip.
const char* kTwoColor = R"(
module "two_color"
global i32 @blue = 10 color(blue)
define i32 @main() entry {
entry:
  %b = load ptr<i32 color(blue)> @blue
  %x = call i32 @f(i32 %b)
  ret i32 %x
}
define i32 @f(i32 %y) {
entry:
  store i32 7, ptr<i32 color(blue)> @blue
  ret i32 42
}
)";

/// All drained events flattened and time-ordered (ticks come from one
/// monotonic clock, so cross-thread order is meaningful).
std::vector<TraceEvent> capture_run(ExecMode mode) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.clear();
  obs::MetricsRegistry::global().reset_all();
  obs::set_metrics_enabled(true);
  tracer.enable();  // the one call below is the first request: sampled

  Compiled c = compile(kTwoColor, Mode::kRelaxed);
  {
    Machine m(*c.program, /*epc_limit_bytes=*/0, mode);
    auto r = m.call("main", {});
    EXPECT_TRUE(r.ok()) << r.message();
    EXPECT_EQ(r.value(), 42);
  }  // ~Machine joins every worker: all trace writers are quiescent

  tracer.disable();
  obs::set_metrics_enabled(false);
  std::vector<TraceEvent> events;
  for (const auto& d : tracer.drain()) {
    events.insert(events.end(), d.events.begin(), d.events.end());
  }
  tracer.clear();
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& x, const TraceEvent& y) {
                     return x.tick_ns < y.tick_ns;
                   });
  return events;
}

/// Index of the first event at/after @p from satisfying @p pred, or npos.
template <typename Pred>
std::size_t find_from(const std::vector<TraceEvent>& events, std::size_t from,
                      Pred pred) {
  for (std::size_t i = from; i < events.size(); ++i) {
    if (pred(events[i])) return i;
  }
  return static_cast<std::size_t>(-1);
}

constexpr std::uint8_t kSpawnKind = 0;  // runtime::MsgKind::kSpawn
constexpr std::uint8_t kContKind = 1;   // runtime::MsgKind::kCont

void check_sequence(ExecMode mode) {
  const std::vector<TraceEvent> events = capture_run(mode);
  ASSERT_FALSE(events.empty());
  const auto npos = static_cast<std::size_t>(-1);

  // 1. The leader's spawn leaves for the blue enclave (color != 0).
  const std::size_t spawn = find_from(events, 0, [](const TraceEvent& e) {
    return e.kind == EventKind::kMsgSend && e.detail == kSpawnKind && e.color != 0;
  });
  ASSERT_NE(spawn, npos) << "no spawn send in the trace";

  // 2. The chunk starts executing on that enclave.
  const std::size_t dispatch = find_from(events, spawn + 1, [&](const TraceEvent& e) {
    return e.kind == EventKind::kChunkDispatch && e.color == events[spawn].color;
  });
  ASSERT_NE(dispatch, npos) << "no chunk dispatch after the spawn";

  // 3. The chunk sends its result cont back toward the leader (color U).
  const std::size_t cont = find_from(events, dispatch + 1, [](const TraceEvent& e) {
    return e.kind == EventKind::kMsgSend && e.detail == kContKind && e.color == 0;
  });
  ASSERT_NE(cont, npos) << "no result cont after the dispatch";

  // 4. The leader's wait completes by matching a cont (detail = kind + 1).
  const std::size_t wait = find_from(events, cont, [](const TraceEvent& e) {
    return e.kind == EventKind::kWait && e.color == 0 && e.detail == kContKind + 1;
  });
  ASSERT_NE(wait, npos) << "the leader's wait never matched the cont";

  // The chain is already index-ordered by construction; the ticks must be
  // non-decreasing too (stable_sort would hide a reversed pair only if the
  // ticks were equal, which still satisfies non-decreasing).
  EXPECT_LE(events[spawn].tick_ns, events[dispatch].tick_ns);
  EXPECT_LE(events[dispatch].tick_ns, events[cont].tick_ns);
  EXPECT_LE(events[cont].tick_ns, events[wait].tick_ns);

  // The interface call wrapped the whole exchange as a span.
  const std::size_t enter = find_from(events, 0, [](const TraceEvent& e) {
    return e.kind == EventKind::kCallEnter;
  });
  const std::size_t exit = find_from(events, 0, [](const TraceEvent& e) {
    return e.kind == EventKind::kCallExit;
  });
  ASSERT_NE(enter, npos);
  ASSERT_NE(exit, npos);
  EXPECT_EQ(events[exit].b, 42) << "call span must carry the interface result";

  // Metrics side of the same run: exactly one chunk dispatch on the enclave
  // color, none on U.
  auto& chunks = obs::MetricsRegistry::global().per_color("interp.chunks_dispatched");
  EXPECT_EQ(chunks.value(events[spawn].color), 1u);
  EXPECT_EQ(chunks.value(0), 0u);
}

TEST(TraceSequenceTest, TreeWalkerEmitsCanonicalTwoColorChain) {
  check_sequence(ExecMode::kTreeWalk);
}

TEST(TraceSequenceTest, FusedEngineEmitsCanonicalTwoColorChain) {
  check_sequence(ExecMode::kFused);
}

TEST(TraceSequenceTest, ElidedSameColorCallLeavesNoMessageEventsButReconciles) {
  // Same-color direct dispatch: the spawn is served inline on the sending
  // thread, so the trace must contain NO msg_send/msg_recv events — yet the
  // chunk dispatch still appears (the runner's hook fires as usual), which is
  // what keeps chunks_dispatched == msg-delivered spawns + calls_elided.
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.clear();
  obs::MetricsRegistry::global().reset_all();
  obs::set_metrics_enabled(true);
  tracer.enable();

  runtime::ThreadRuntime* rtp = nullptr;
  {
    // A raw runtime user opens its request like Machine::call does; as the
    // first request after enable() it is sampled.
    const obs::RequestScope request;
    runtime::ThreadRuntime rt(
        2,
        [&rtp](std::size_t me, std::uint64_t chunk, std::int64_t tags,
               std::int64_t leader, std::int64_t) {
          // A real runner (Machine's trampoline) records the dispatch; this
          // harness does the same so the reconciliation totals are honest.
          obs::on_chunk_dispatch(static_cast<std::int64_t>(me),
                                 static_cast<std::int64_t>(chunk), leader);
          rtp->ack(leader, tags + 200);
        },
        runtime::RecoveryOptions{});
    rtp = &rt;
    rt.spawn(/*target_color=*/0, /*chunk=*/7, /*tags=*/1000, /*leader=*/0, 0);
    rt.wait_ack(0, 1200);
    const auto s = rt.stats_snapshot();
    EXPECT_EQ(s.calls_elided, 1u);
    EXPECT_EQ(s.messages_sent, 0u);
    rt.shutdown();
  }

  tracer.disable();
  obs::set_metrics_enabled(false);
  std::vector<TraceEvent> events;
  for (const auto& d : tracer.drain()) {
    events.insert(events.end(), d.events.begin(), d.events.end());
  }
  tracer.clear();

  std::size_t msg_events = 0;
  std::size_t dispatches = 0;
  for (const TraceEvent& e : events) {
    if (e.kind == EventKind::kMsgSend || e.kind == EventKind::kMsgRecv) ++msg_events;
    if (e.kind == EventKind::kChunkDispatch) ++dispatches;
  }
  EXPECT_EQ(msg_events, 0u) << "an elided call must never touch the queues";
  EXPECT_EQ(dispatches, 1u);
  auto& chunks = obs::MetricsRegistry::global().per_color("interp.chunks_dispatched");
  EXPECT_EQ(chunks.value(0), 1u);
  auto& sends = obs::MetricsRegistry::global().per_color("runtime.msg_sends");
  EXPECT_EQ(sends.value(0), 0u);
  obs::MetricsRegistry::global().reset_all();
}

// main(n) calls the blue @f(n), which returns n + 1 through a result cont,
// so each call's span carries a result that names the call.
const char* kNumbered = R"(
module "numbered"
global i32 @blue = 10 color(blue)
define i32 @main(i32 %n) entry {
entry:
  %x = call i32 @f(i32 %n)
  ret i32 %x
}
define i32 @f(i32 %y) {
entry:
  store i32 7, ptr<i32 color(blue)> @blue
  %r = add i32 %y, i32 1
  ret i32 %r
}
)";

void check_whole_request_sampling(ExecMode mode) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.clear();
  Compiled c = compile(kNumbered, Mode::kRelaxed);
  {
    Machine m(*c.program, /*epc_limit_bytes=*/0, mode);
    // Only the calls are captured: region events of construction and
    // teardown belong to no request.
    tracer.enable();
    for (int n = 1; n <= 33; ++n) {
      auto r = m.call("main", {n});
      ASSERT_TRUE(r.ok()) << r.message();
      ASSERT_EQ(r.value(), n + 1);
    }
    tracer.disable();
  }  // ~Machine joins every worker: all trace writers are quiescent
  const std::vector<obs::TraceBuffer::Drained> drained = tracer.drain();
  tracer.clear();

  // The U thread is the one that recorded the call spans.
  std::uint32_t u_tid = 0;
  for (const auto& d : drained) {
    for (const TraceEvent& e : d.events) {
      if (e.kind == EventKind::kCallExit) u_tid = d.tid;
    }
  }
  // Per request id: the calls its spans name, and which threads recorded it.
  struct Seen {
    std::vector<std::int64_t> calls;
    bool on_u = false;
    bool on_enclave = false;
  };
  std::map<std::uint32_t, Seen> by_request;
  for (const auto& d : drained) {
    for (const TraceEvent& e : d.events) {
      ASSERT_NE(e.request, 0u) << "event outside a sampled request: "
                               << obs::event_kind_name(e.kind);
      Seen& s = by_request[e.request];
      if (e.kind == EventKind::kCallExit) s.calls.push_back(e.b - 1);
      (d.tid == u_tid ? s.on_u : s.on_enclave) = true;
    }
  }
  // Only calls 1 and 33 left events, each under its own id, and each id
  // covers both the U side and the enclave side of its call.
  ASSERT_EQ(by_request.size(), 2u);
  std::vector<std::int64_t> calls;
  for (const auto& [id, s] : by_request) {
    ASSERT_EQ(s.calls.size(), 1u) << "request " << id;
    calls.push_back(s.calls[0]);
    EXPECT_TRUE(s.on_u) << "request " << id;
    EXPECT_TRUE(s.on_enclave) << "request " << id;
  }
  std::sort(calls.begin(), calls.end());
  EXPECT_EQ(calls, (std::vector<std::int64_t>{1, 33}));
}

TEST(TraceSequenceTest, TreeWalkerTracesWholeSampledRequests) {
  check_whole_request_sampling(ExecMode::kTreeWalk);
}

TEST(TraceSequenceTest, FusedEngineTracesWholeSampledRequests) {
  check_whole_request_sampling(ExecMode::kFused);
}

TEST(TraceSequenceTest, FusedEngineRecordsBudgetFlushes) {
  obs::MetricsRegistry::global().reset_all();
  obs::set_metrics_enabled(true);
  {
    Compiled c = compile(kTwoColor, Mode::kRelaxed);
    Machine m(*c.program, 0, ExecMode::kFused);
    // 64 calls span two sampling periods: calls 1 and 33 are sampled, and a
    // sampled call records every one of its flushes.
    for (int i = 0; i < 64; ++i) ASSERT_TRUE(m.call("main", {}).ok());
  }
  obs::set_metrics_enabled(false);
  // Every mailbox intrinsic flushes the batched instruction counter, so a
  // cross-enclave round trip leaves a non-empty flush-size histogram.
  const auto s = obs::MetricsRegistry::global()
                     .histogram("interp.instructions_per_flush")
                     .snapshot();
  EXPECT_GT(s.count, 0u);
  obs::MetricsRegistry::global().reset_all();
}

}  // namespace
}  // namespace privagic::interp
