// Tests for the support utilities: strings, RNG determinism/quality, the
// simulated clock, and Result/Status semantics.
#include <gtest/gtest.h>

#include <map>

#include "support/bench_check.hpp"
#include "support/bench_json.hpp"
#include "support/json_mini.hpp"
#include "support/rng.hpp"
#include "support/sim_clock.hpp"
#include "support/status.hpp"
#include "support/strings.hpp"

namespace privagic {
namespace {

// ---------------------------------------------------------------------------
// strings
// ---------------------------------------------------------------------------

TEST(StringsTest, Trim) {
  EXPECT_EQ(trim("  hello "), "hello");
  EXPECT_EQ(trim("\t\n x \r"), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("nospace"), "nospace");
}

TEST(StringsTest, Split) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");  // empty fields kept
  EXPECT_EQ(parts[3], "c");
  EXPECT_EQ(split("", ',').size(), 1u);
  EXPECT_EQ(split("xyz", ',').size(), 1u);
}

TEST(StringsTest, StartsWithAndIdentifiers) {
  EXPECT_TRUE(starts_with("privagic", "priv"));
  EXPECT_FALSE(starts_with("pri", "priv"));
  EXPECT_TRUE(is_identifier("main.blue_2"));
  EXPECT_FALSE(is_identifier(""));
  EXPECT_FALSE(is_identifier("has space"));
}

TEST(StringsTest, Format) {
  EXPECT_EQ(str_format("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(str_format("%.1f", 2.5), "2.5");
  EXPECT_EQ(str_format("empty"), "empty");
}

// ---------------------------------------------------------------------------
// RNG
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicUnderSeed) {
  Xoshiro256 a(7);
  Xoshiro256 b(7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
  Xoshiro256 c(8);
  int differs = 0;
  Xoshiro256 a2(7);
  for (int i = 0; i < 100; ++i) differs += a2.next() != c.next() ? 1 : 0;
  EXPECT_GT(differs, 90);
}

TEST(RngTest, NextBelowStaysInRange) {
  Xoshiro256 rng(1);
  std::map<std::uint64_t, int> histogram;
  for (int i = 0; i < 60'000; ++i) {
    const std::uint64_t v = rng.next_below(6);
    ASSERT_LT(v, 6u);
    ++histogram[v];
  }
  // Roughly uniform: every bucket within 10 % of the mean.
  for (const auto& [bucket, count] : histogram) {
    (void)bucket;
    EXPECT_NEAR(count, 10'000, 1'000);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Xoshiro256 rng(3);
  double sum = 0.0;
  for (int i = 0; i < 10'000; ++i) {
    const double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10'000, 0.5, 0.02);
}

TEST(RngTest, Fmix64IsABijectionOnSamples) {
  // No collisions over a large sample (fmix64 is invertible).
  std::map<std::uint64_t, std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 50'000; ++i) {
    const std::uint64_t h = fmix64(i);
    EXPECT_TRUE(seen.emplace(h, i).second) << "collision at " << i;
  }
}

// ---------------------------------------------------------------------------
// SimClock
// ---------------------------------------------------------------------------

TEST(SimClockTest, AccumulatesAndJoins) {
  SimClock a;
  a.advance_ns(100.0);
  a.advance_ns(50.5);
  EXPECT_DOUBLE_EQ(a.now_ns(), 150.5);
  SimClock b;
  b.advance_ns(10.0);
  b.join_at_least(a.now_ns());
  EXPECT_DOUBLE_EQ(b.now_ns(), 150.5);
  b.join_at_least(5.0);  // time never flows backwards
  EXPECT_DOUBLE_EQ(b.now_ns(), 150.5);
  b.reset();
  EXPECT_DOUBLE_EQ(b.now_ns(), 0.0);
}

TEST(SimDeadlineTest, ExpiresWithSimulatedTimeOnly) {
  SimClock clock;
  clock.advance_ns(1000.0);
  SimDeadline d(clock, 500.0);
  EXPECT_FALSE(d.expired());
  EXPECT_DOUBLE_EQ(d.remaining_ns(), 500.0);
  clock.advance_ns(499.0);
  EXPECT_FALSE(d.expired());
  clock.advance_ns(1.0);
  EXPECT_TRUE(d.expired());
  EXPECT_DOUBLE_EQ(d.remaining_ns(), 0.0);  // clamped, never negative
}

TEST(DeadlineTest, AfterExpiresAndNeverDoesNot) {
  const Deadline past = Deadline::after(std::chrono::milliseconds(0));
  EXPECT_TRUE(past.expired());
  const Deadline future = Deadline::after(std::chrono::milliseconds(60000));
  EXPECT_FALSE(future.expired());
  EXPECT_FALSE(Deadline::never().expired());
  EXPECT_LT(past.time_point(), future.time_point());
}

// ---------------------------------------------------------------------------
// Status / Result
// ---------------------------------------------------------------------------

TEST(StatusTest, OkAndError) {
  Status ok;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.message(), "ok");
  Status err = Status::error("boom");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.message(), "boom");
}

TEST(ResultTest, ValueAndErrorAccess) {
  Result<int> good(42);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 42);

  Result<int> bad = Result<int>::error("nope");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.message(), "nope");
  EXPECT_THROW((void)bad.value(), std::runtime_error);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(9));
  auto owned = std::move(r).value();
  EXPECT_EQ(*owned, 9);
}

// ---------------------------------------------------------------------------
// json_mini
// ---------------------------------------------------------------------------

TEST(JsonMiniTest, ParsesScalarsAndNesting) {
  const auto r = support::json::parse(
      R"({"name": "trace\nx", "n": -12, "pi": 3.5, "on": true, "off": false,
          "nothing": null, "list": [1, 2, 3], "inner": {"k": 7}})");
  ASSERT_TRUE(r.ok) << r.error;
  const auto& v = r.value;
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.find("name")->string, "trace\nx");
  EXPECT_EQ(v.find("n")->number, -12.0);
  EXPECT_EQ(v.find("pi")->number, 3.5);
  EXPECT_TRUE(v.find("on")->boolean);
  EXPECT_FALSE(v.find("off")->boolean);
  EXPECT_EQ(v.find("nothing")->kind, support::json::Value::Kind::kNull);
  ASSERT_EQ(v.find("list")->array.size(), 3u);
  EXPECT_EQ(v.find("list")->array[2].number, 3.0);
  EXPECT_EQ(v.find("inner")->find("k")->number, 7.0);
  EXPECT_EQ(v.find("absent"), nullptr);
}

TEST(JsonMiniTest, PreservesKeyOrderAndRoundTripsCounters) {
  const auto r = support::json::parse(R"({"b": 1, "a": 2, "big": 9007199254740992})");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.value.object[0].first, "b");
  EXPECT_EQ(r.value.object[1].first, "a");
  // 2^53: the largest contiguous integer a double holds exactly — every
  // deterministic counter the baselines pin is far below this.
  EXPECT_EQ(r.value.find("big")->number, 9007199254740992.0);
}

TEST(JsonMiniTest, RejectsMalformedInput) {
  EXPECT_FALSE(support::json::parse("{").ok);
  EXPECT_FALSE(support::json::parse(R"({"a" 1})").ok);
  EXPECT_FALSE(support::json::parse(R"({"a": 1} trailing)").ok);
  EXPECT_FALSE(support::json::parse(R"({"a": 00x})").ok);
  EXPECT_FALSE(support::json::parse("").ok);
}

TEST(JsonMiniTest, ParsesBenchWriterOutput) {
  // The writer's own rendering must be readable by the checker's parser.
  support::BenchJsonWriter w("roundtrip");
  w.meta("threads", 4);
  w.add_row().set("name", "a\"b").set("ops", std::int64_t{123});
  w.metric("runtime.msg_sends.color0", std::uint64_t{42});
  const auto r = support::json::parse(w.to_string());
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.value.find("benchmark")->string, "roundtrip");
  EXPECT_EQ(r.value.find("rows")->array[0].find("name")->string, "a\"b");
  EXPECT_EQ(r.value.find("metrics")->find("runtime.msg_sends.color0")->number, 42.0);
  // Every document records where it ran.
  const auto* meta = r.value.find("meta");
  EXPECT_GE(meta->find("nproc")->number, 1.0);
#if defined(__linux__)
  EXPECT_EQ(meta->find("affinity_mask")->string.rfind("0x", 0), 0u);
#endif
}

// ---------------------------------------------------------------------------
// bench_check
// ---------------------------------------------------------------------------

namespace {

support::json::Value parse_or_die_json(const char* text) {
  auto r = support::json::parse(text);
  EXPECT_TRUE(r.ok) << r.error;
  return std::move(r.value);
}

}  // namespace

TEST(BenchCheckTest, PassesWithinTolerance) {
  const auto baselines = parse_or_die_json(
      R"({"bench": {"msgs": {"value": 1000, "tol_pct": 1.0}, "bytes": {"value": 64, "tol_pct": 0.0}}})");
  const auto snapshot = parse_or_die_json(
      R"({"benchmark": "bench", "metrics": {"msgs": 1009, "bytes": 64, "wait_ns": 123456}})");
  const auto report = support::check_bench(baselines, snapshot);
  EXPECT_FALSE(report.skipped);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(report.findings.size(), 2u);  // unpinned wait_ns is ignored
}

TEST(BenchCheckTest, FailsOnDrift) {
  const auto baselines =
      parse_or_die_json(R"({"bench": {"msgs": {"value": 1000, "tol_pct": 0.5}}})");
  const auto snapshot =
      parse_or_die_json(R"({"benchmark": "bench", "metrics": {"msgs": 1006}})");
  const auto report = support::check_bench(baselines, snapshot);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("FAIL"), std::string::npos);
  EXPECT_NE(report.to_string().find("drift"), std::string::npos);
}

TEST(BenchCheckTest, FailsOnMissingPinnedKey) {
  const auto baselines =
      parse_or_die_json(R"({"bench": {"msgs": {"value": 1000, "tol_pct": 0}}})");
  const auto snapshot = parse_or_die_json(R"({"benchmark": "bench", "metrics": {}})");
  const auto report = support::check_bench(baselines, snapshot);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("missing from snapshot"), std::string::npos);
}

TEST(BenchCheckTest, FloorPassesAtOrAboveAndNeverCapsImprovement) {
  const auto baselines =
      parse_or_die_json(R"({"bench": {"ratio": {"min": 1.3}}})");
  for (const char* actual : {"1.3", "1.31", "97.0"}) {
    const auto snapshot = parse_or_die_json(
        (R"({"benchmark": "bench", "metrics": {"ratio": )" + std::string(actual) + "}}")
            .c_str());
    const auto report = support::check_bench(baselines, snapshot);
    EXPECT_TRUE(report.ok()) << actual << "\n" << report.to_string();
    ASSERT_EQ(report.findings.size(), 1u);
    EXPECT_TRUE(report.findings[0].is_floor);
  }
}

TEST(BenchCheckTest, FloorFailsBelow) {
  const auto baselines =
      parse_or_die_json(R"({"bench": {"ratio": {"min": 1.3}}})");
  const auto snapshot =
      parse_or_die_json(R"({"benchmark": "bench", "metrics": {"ratio": 1.25}})");
  const auto report = support::check_bench(baselines, snapshot);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("below floor"), std::string::npos);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_TRUE(report.findings[0].is_floor);
  EXPECT_EQ(report.findings[0].baseline, 1.3);
}

TEST(BenchCheckTest, FloorMissingFromSnapshotFails) {
  const auto baselines =
      parse_or_die_json(R"({"bench": {"ratio": {"min": 1.3}}})");
  const auto snapshot = parse_or_die_json(R"({"benchmark": "bench", "metrics": {}})");
  const auto report = support::check_bench(baselines, snapshot);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("missing from snapshot"), std::string::npos);
}

TEST(BenchCheckTest, ValueWinsWhenEntryAlsoCarriesBounds) {
  // A {"value"} pin stays two-sided even if a stray min rides along: 100
  // would fail a floor of 1000, and the pin passes it.
  const auto baselines = parse_or_die_json(
      R"({"bench": {"msgs": {"value": 100, "tol_pct": 0, "min": 1000}}})");
  const auto snapshot =
      parse_or_die_json(R"({"benchmark": "bench", "metrics": {"msgs": 100}})");
  const auto report = support::check_bench(baselines, snapshot);
  EXPECT_TRUE(report.ok()) << report.to_string();
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_FALSE(report.findings[0].is_floor);
}

TEST(BenchCheckTest, SkipsUnknownBenchmark) {
  const auto baselines = parse_or_die_json(R"({"other": {}})");
  const auto snapshot = parse_or_die_json(R"({"benchmark": "bench", "metrics": {"x": 1}})");
  const auto report = support::check_bench(baselines, snapshot);
  EXPECT_TRUE(report.skipped);
  EXPECT_TRUE(report.ok());
}

}  // namespace
}  // namespace privagic
