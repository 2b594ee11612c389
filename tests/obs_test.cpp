// Unit tests for the observability layer (src/obs): the TraceBuffer ring,
// the metrics instruments, the Chrome JSON writer and the gate semantics of
// the hooks. The suite is part of the TSan CI label.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "obs/hooks.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_writer.hpp"
#include "support/bench_json.hpp"

namespace privagic::obs {
namespace {

/// Every test starts and ends with observability fully off and empty — the
/// tracer and registry are process globals.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override { reset(); }
  void TearDown() override { reset(); }

  static void reset() {
    Tracer::instance().disable();
    Tracer::instance().clear();
    set_metrics_enabled(false);
    MetricsRegistry::global().reset_all();
  }
};

// ---------------------------------------------------------------------------
// TraceBuffer / Tracer
// ---------------------------------------------------------------------------

TEST_F(ObsTest, TraceBufferRetainsNewestAndCountsDropped) {
  TraceBuffer buf(7, 8);
  for (int i = 0; i < 20; ++i) {
    TraceEvent e;
    e.tick_ns = static_cast<std::uint64_t>(i);
    e.a = i;
    buf.record(e);
  }
  const TraceBuffer::Drained d = buf.drain();
  EXPECT_EQ(d.tid, 7u);
  EXPECT_EQ(d.dropped, 12u);
  ASSERT_EQ(d.events.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(d.events[static_cast<std::size_t>(i)].a, 12 + i);  // oldest 12 overwritten
  }
}

TEST_F(ObsTest, TracerCollectsPerThreadBuffersAndClearResets) {
  Tracer& tracer = Tracer::instance();
  tracer.enable(/*per_thread_capacity=*/64);
  ASSERT_TRUE(tracing_enabled());

  emit(EventKind::kChunkDispatch, /*color=*/1, /*a=*/11);
  std::thread other([] { emit(EventKind::kChunkDispatch, /*color=*/2, /*a=*/22); });
  other.join();
  tracer.disable();

  EXPECT_EQ(tracer.event_count(), 2u);
  const auto drained = tracer.drain();
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_NE(drained[0].tid, drained[1].tid);

  tracer.clear();
  EXPECT_EQ(tracer.event_count(), 0u);
  EXPECT_TRUE(tracer.drain().empty());
}

TEST_F(ObsTest, EmitWhileDisabledIsInvisible) {
  // Hooks gate on tracing_enabled(); with the capture off nothing may land.
  obs::on_chunk_dispatch(0, 1, 2);
  EXPECT_EQ(Tracer::instance().event_count(), 0u);
}

// ---------------------------------------------------------------------------
// Metrics instruments
// ---------------------------------------------------------------------------

TEST_F(ObsTest, HistogramSnapshotTracksCountSumMaxAndQuantiles) {
  Histogram h;
  for (int i = 0; i < 99; ++i) h.record(3);
  h.record(1000);
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.sum, 99u * 3 + 1000);
  EXPECT_EQ(s.max, 1000u);
  EXPECT_DOUBLE_EQ(s.mean, (99.0 * 3 + 1000) / 100.0);
  EXPECT_EQ(s.p50, 3u);      // bucket for bit_width(3)=2 has upper bound 2^2-1
  EXPECT_EQ(s.p99, 1023u);   // 1000 lands in the 2^10-1 bucket
}

TEST_F(ObsTest, PerColorCounterFansOutAndOverflows) {
  PerColorCounter pc;
  pc.add(0);
  pc.add(3, 5);
  pc.add(PerColorCounter::kMaxColors + 4, 7);  // beyond the slots
  pc.add(-1, 2);                               // negative folds into overflow too
  EXPECT_EQ(pc.value(0), 1u);
  EXPECT_EQ(pc.value(3), 5u);
  EXPECT_EQ(pc.value(1), 0u);
  EXPECT_EQ(pc.overflow(), 9u);
}

TEST_F(ObsTest, RegistrySnapshotFlattensAllInstrumentKinds) {
  MetricsRegistry reg;
  reg.counter("sends").add(4);
  reg.per_color("chunks").add(1, 6);
  reg.histogram("depth").record(2);

  const auto rows = reg.snapshot();
  const auto find = [&rows](const std::string& name) -> const MetricsRegistry::Row* {
    for (const auto& r : rows) {
      if (r.name == name) return &r;
    }
    return nullptr;
  };
  ASSERT_NE(find("sends"), nullptr);
  EXPECT_EQ(find("sends")->value, 4.0);
  ASSERT_NE(find("chunks.color1"), nullptr);
  EXPECT_EQ(find("chunks.color1")->value, 6.0);
  EXPECT_EQ(find("chunks.color0"), nullptr);  // zero colors are skipped
  ASSERT_NE(find("depth.count"), nullptr);
  ASSERT_NE(find("depth.p99"), nullptr);

  reg.reset_all();
  EXPECT_EQ(reg.counter("sends").value(), 0u);
}

TEST_F(ObsTest, EmbedMetricsWritesMetricsObjectIntoBenchJson) {
  MetricsRegistry reg;
  reg.counter("runtime.msgs").add(12);
  support::BenchJsonWriter json("obs_unit");
  json.meta("reps", 1);
  json.add_row().set("ns", 5);
  embed_metrics(json, reg);
  const std::string doc = json.to_string();
  EXPECT_NE(doc.find("\"metrics\": {"), std::string::npos);
  EXPECT_NE(doc.find("\"runtime.msgs\": 12"), std::string::npos);
  // Without metric() calls the section is absent entirely.
  EXPECT_EQ(support::BenchJsonWriter("bare").to_string().find("metrics"),
            std::string::npos);
}

TEST_F(ObsTest, MetricsHooksAreGatedByTheRuntimeSwitch) {
  // The depth histogram records pushes of sampled requests only (a nonzero
  // request id), and only while the switch is on.
  auto& h = MetricsRegistry::global().histogram("mailbox.depth_at_push");
  for (int i = 0; i < 8; ++i) obs::on_mailbox_depth(5, /*request=*/7);  // switch off
  EXPECT_EQ(h.snapshot().count, 0u);
  set_metrics_enabled(true);
  for (int i = 0; i < 8; ++i) obs::on_mailbox_depth(5, /*request=*/0);  // unsampled
  obs::on_mailbox_depth(5, /*request=*/7);
  EXPECT_EQ(h.snapshot().count, 1u);
}

TEST_F(ObsTest, RequestScopeSamplesTheFirstRequestAndEveryPeriodAfter) {
  set_metrics_enabled(true);  // restarts sampling: the next request is sampled
  std::vector<std::uint32_t> ids;
  for (std::uint32_t n = 0; n < 2 * kRequestSamplePeriod + 1; ++n) {
    const RequestScope request;
    ids.push_back(current_request());
    {
      const RequestScope served(99);  // a worker serving another request's spawn
      EXPECT_EQ(current_request(), 99u);
    }
    EXPECT_EQ(current_request(), ids.back());  // restored on scope exit
  }
  EXPECT_EQ(current_request(), 0u);
  for (std::size_t n = 0; n < ids.size(); ++n) {
    EXPECT_EQ(ids[n] != 0, n % kRequestSamplePeriod == 0) << "request " << n;
  }
  EXPECT_NE(ids[0], ids[kRequestSamplePeriod]);

  set_metrics_enabled(false);  // not observing: nothing is sampled
  const RequestScope request;
  EXPECT_EQ(current_request(), 0u);
}

TEST_F(ObsTest, DrainPublishesRecordedDroppedAndSampledCounts) {
  Tracer& tracer = Tracer::instance();
  tracer.enable(/*per_thread_capacity=*/4);
  {
    const RequestScope request;  // sampled: first after enable()
    for (int i = 0; i < 6; ++i) obs::on_chunk_dispatch(1, i, 0);
  }
  {
    const RequestScope request;  // unsampled: records nothing
    obs::on_chunk_dispatch(1, 9, 0);
  }
  tracer.disable();
  const auto drained = tracer.drain();
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0].events.size(), 4u);
  auto& reg = MetricsRegistry::global();
  EXPECT_EQ(reg.counter("trace.events_recorded").value(), 6u);
  EXPECT_EQ(reg.counter("trace.events_dropped").value(), 2u);
  EXPECT_EQ(reg.counter("obs.requests_sampled").value(), 1u);
}

// ---------------------------------------------------------------------------
// Chrome trace JSON
// ---------------------------------------------------------------------------

TEST_F(ObsTest, TraceWriterEmitsLoadableChromeJson) {
  TraceBuffer buf(0, 64);
  const auto put = [&buf](EventKind kind, std::uint64_t t, std::int64_t a,
                          std::int64_t b, std::int32_t color, std::uint8_t detail) {
    TraceEvent e;
    e.tick_ns = t;
    e.a = a;
    e.b = b;
    e.color = color;
    e.kind = kind;
    e.detail = detail;
    e.request = 5;
    buf.record(e);
  };
  put(EventKind::kCallEnter, 1000, /*token=*/3, 0, 0, 0);
  put(EventKind::kMsgSend, 2000, /*tag=*/9, /*chunk=*/1, 1, /*spawn=*/0);
  put(EventKind::kChunkDispatch, 3000, /*chunk=*/1, /*leader=*/0, 1, 0);
  put(EventKind::kWait, 9000, /*tag=*/9, /*blocked=*/4000, 0, /*cont+1=*/2);
  put(EventKind::kFaultVerdict, 9500, 0, 0, -1, /*drop=*/1);
  // Exit events pack the span duration above the function token.
  put(EventKind::kCallExit, 10000, /*dur<<12|token=*/(9000ll << 12) | 3,
      /*result=*/42, 0, 0);

  const std::string doc = TraceWriter::to_chrome_json({buf.drain()});
  EXPECT_NE(doc.find("\"traceEvents\": ["), std::string::npos);
  // The interface call renders as one complete slice spanning enter→exit...
  EXPECT_NE(doc.find("\"Machine::call\""), std::string::npos);
  EXPECT_NE(doc.find("\"ts\":1.000,\"dur\":9.000"), std::string::npos);
  EXPECT_NE(doc.find("\"fn_token\":3"), std::string::npos);
  // ...the enter edge as an instant marker...
  EXPECT_NE(doc.find("\"call_enter\""), std::string::npos);
  // ...every event names its request...
  EXPECT_NE(doc.find("\"req\":5"), std::string::npos);
  // ...and the wait as a complete slice starting blocked_ns earlier.
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(doc.find("\"ts\":5.000,\"dur\":4.000"), std::string::npos);
  EXPECT_NE(doc.find("\"msg\":\"spawn\""), std::string::npos);
  EXPECT_NE(doc.find("\"outcome\":\"cont\""), std::string::npos);
  EXPECT_NE(doc.find("\"verdict\":\"drop\""), std::string::npos);
  EXPECT_NE(doc.find("\"droppedEventCount\": 0"), std::string::npos);

  // Structural sanity a JSON loader would enforce: balanced braces/brackets.
  std::int64_t braces = 0;
  std::int64_t brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < doc.size(); ++i) {
    const char c = doc[i];
    if (c == '"' && (i == 0 || doc[i - 1] != '\\')) in_string = !in_string;
    if (in_string) continue;
    braces += c == '{' ? 1 : c == '}' ? -1 : 0;
    brackets += c == '[' ? 1 : c == ']' ? -1 : 0;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_FALSE(in_string);
}

}  // namespace
}  // namespace privagic::obs
