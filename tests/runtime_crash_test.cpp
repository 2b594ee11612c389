// Crash-recovery tests (DESIGN.md §12): enclave workers die mid-protocol and
// the runtime recovers via sealed checkpoints + journal replay, with either a
// cold restart or a warm-standby failover. The pins here are the ones the
// protocol is built around:
//
//   * exactly-once completion no matter which protocol point the crash hits
//     (wait entry, pre-send, mid-batched-flush, post-checkpoint) — the echo
//     sum and the interpreter's memory image are byte-exact either way;
//   * re-attestation rejects rolled-back (stale) and bit-flipped (tampered)
//     checkpoints with the typed kAttestationFailed status, never by
//     executing from attacker-controlled state;
//   * a crash with recovery disabled degrades exactly like the pre-§12
//     runtime: the color is poisoned, waiters drain with a typed fault.
//
// Both execution engines (kTreeWalk and kFused) run the crash points.
// No test sleeps or waits longer than 2 seconds of wall clock.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>

#include "interp/machine.hpp"
#include "ir/parser.hpp"
#include "partition/partitioner.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/fault_injector.hpp"
#include "runtime/workers.hpp"
#include "support/status.hpp"

namespace privagic::runtime {
namespace {

using namespace std::chrono_literals;

/// Spin until @p cond holds or ~2s elapse. The genesis checkpoint seals on
/// the worker's own schedule, so a crash armed at kPostCheckpoint can fire
/// at a seal that happens after the driver's traffic already completed —
/// the counters are reached, just not synchronously with the last reply.
template <typename Cond>
bool eventually(Cond&& cond) {
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (!cond()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(2ms);
  }
  return true;
}

// ---------------------------------------------------------------------------
// checkpoint.hpp data model: seal, verify, and the two attack classes
// ---------------------------------------------------------------------------

TEST(CheckpointModelTest, VerifyAcceptsSealedAndRejectsForgedOrStale) {
  constexpr std::uint64_t kSecret = 0x1234'5678'9ABC'DEF0ull;
  const std::uint64_t meas = enclave_measurement(7, 1, kSecret);

  SealedCheckpoint cp;
  cp.epoch = 3;
  cp.measurement = meas;
  cp.payload = {std::byte{0xAA}, std::byte{0xBB}, std::byte{0xCC}};
  cp.mac = checkpoint_mac(cp, kSecret);

  std::vector<JournalEntry> journal;
  JournalEntry e;
  e.op = JournalOp::kSend;
  e.target = 0;
  e.msg = Message::cont(100, 42);
  e.msg.seq = 9;
  e.auth = journal_entry_mac(e.op, e.target, e.msg, cp.mac, kSecret);
  journal.push_back(e);

  EXPECT_EQ(verify_checkpoint(cp, journal, meas, 3, kSecret), AttestVerdict::kOk);

  // Rollback: an older epoch than the trusted counter remembers.
  EXPECT_EQ(verify_checkpoint(cp, journal, meas, 4, kSecret), AttestVerdict::kStale);

  // Forgery: payload bit flip, wrong measurement, spliced journal.
  SealedCheckpoint bad = cp;
  bad.payload[1] ^= std::byte{0x01};
  EXPECT_EQ(verify_checkpoint(bad, journal, meas, 3, kSecret),
            AttestVerdict::kTampered);
  EXPECT_EQ(verify_checkpoint(cp, journal, meas ^ 2, 3, kSecret),
            AttestVerdict::kTampered);
  auto spliced = journal;
  spliced[0].msg.payload = 43;  // edit without re-MACing
  EXPECT_EQ(verify_checkpoint(cp, spliced, meas, 3, kSecret),
            AttestVerdict::kTampered);

  // The measurement is bound to (runtime, color, secret): a different color
  // of the same runtime cannot present this checkpoint.
  EXPECT_NE(meas, enclave_measurement(7, 2, kSecret));
  EXPECT_NE(meas, enclave_measurement(8, 1, kSecret));
}

// ---------------------------------------------------------------------------
// Echo workload (same protocol as runtime_fault_test.cpp): one worker chunk
// answers `rounds` conts; the driver's sum is the exactly-once pin — a lost
// reply shows up as a short sum, a doubled one as a long sum.
// ---------------------------------------------------------------------------

struct EchoHarness {
  explicit EchoHarness(RecoveryOptions options) {
    rt = std::make_unique<ThreadRuntime>(
        2,
        [this](std::size_t me, std::uint64_t rounds, std::int64_t tags,
               std::int64_t leader, std::int64_t) {
          for (std::uint64_t i = 0; i < rounds; ++i) {
            const std::int64_t v = rt->wait(me, tags + 0);
            rt->cont(leader, tags + 100, v + 1);
          }
          rt->ack(leader, tags + 200);
        },
        options);
  }

  std::int64_t drive(std::uint64_t rounds) {
    rt->spawn(/*target_color=*/1, /*chunk=*/rounds, /*tags=*/0, /*leader=*/0, 0);
    std::int64_t sum = 0;
    for (std::uint64_t i = 0; i < rounds; ++i) {
      rt->cont(1, 0, static_cast<std::int64_t>(i));
      sum += rt->wait(0, 100);
    }
    rt->wait_ack(0, 200);
    return sum;
  }

  static std::int64_t expected(std::uint64_t rounds) {
    return static_cast<std::int64_t>(rounds * (rounds + 1) / 2);
  }

  std::unique_ptr<ThreadRuntime> rt;
};

/// Recovery options every crash test starts from: timed waits with a healthy
/// retry budget (crash recovery rides on §6 retransmission for lost
/// in-flight messages) and instant simulated restarts (the cost-model pins
/// live in sgx_test; wall-clock sleeps belong in the bench, not here).
RecoveryOptions crash_options(bool hot_failover) {
  RecoveryOptions options;
  options.spawn_secret = 0xFEED'F00D'BEEF'CAFEull;
  options.wait_deadline = 30ms;
  options.app_wait_deadline = 45ms;
  options.max_retries = 6;
  options.checkpoint.enabled = true;
  options.checkpoint.hot_failover = hot_failover;
  options.checkpoint.sleep_on_restart = false;
  options.checkpoint.checkpoint_interval = 8;
  return options;
}

TEST(CrashRecoveryTest, ColdRestartAtWaitEntryCompletesExactlyOnce) {
  EchoHarness echo(crash_options(/*hot_failover=*/false));
  // Third time worker 1 blocks, its enclave dies (mid-chunk, rounds pending).
  echo.rt->arm_crash(1, CrashPoint::kWaitEntry, /*nth=*/2);
  constexpr std::uint64_t kRounds = 12;
  EXPECT_EQ(echo.drive(kRounds), EchoHarness::expected(kRounds));

  const auto s = echo.rt->stats_snapshot();
  EXPECT_EQ(s.worker_crashes, 1u);
  EXPECT_EQ(s.cold_restarts, 1u);
  EXPECT_EQ(s.failovers, 0u);
  EXPECT_GE(s.checkpoints_taken, 1u);  // at least the genesis seal
  EXPECT_GE(s.journal_entries, 1u);
  EXPECT_GE(s.replay_entries, 1u);
  EXPECT_EQ(s.poisoned_workers, 0u) << "recovery must not degrade the group";
}

TEST(CrashRecoveryTest, HotFailoverStandbyTakesOverTheMailbox) {
  EchoHarness echo(crash_options(/*hot_failover=*/true));
  echo.rt->arm_crash(1, CrashPoint::kWaitEntry, /*nth=*/2);
  constexpr std::uint64_t kRounds = 12;
  EXPECT_EQ(echo.drive(kRounds), EchoHarness::expected(kRounds));

  const auto s = echo.rt->stats_snapshot();
  EXPECT_EQ(s.worker_crashes, 1u);
  EXPECT_EQ(s.failovers, 1u);
  EXPECT_EQ(s.cold_restarts, 0u) << "warm takeover must not restart cold";
  EXPECT_EQ(s.poisoned_workers, 0u);
}

TEST(CrashRecoveryTest, HotFailoverStandbyDeliversADrainedUnmatchedMessageOnce) {
  // The §12 handoff is where a mailbox changes consumer. The active worker
  // dies while its pending list holds a message it drained but did not match
  // (tag 1 arrived while it waited for tag 0); the standby takes over the
  // mailbox and must deliver that message exactly once.
  RecoveryOptions options = crash_options(/*hot_failover=*/true);
  // Untimed worker waits and a driver that never retransmits: a message lost
  // in the handoff cannot come back through §6 retransmission, so it shows
  // up as the driver's timeout.
  options.wait_deadline = std::chrono::microseconds{0};
  options.app_wait_deadline = 2s;
  options.max_retries = 0;
  ThreadRuntime* rtp = nullptr;
  ThreadRuntime rt(
      2,
      [&rtp](std::size_t me, std::uint64_t, std::int64_t tags, std::int64_t leader,
             std::int64_t) {
        const std::int64_t a = rtp->wait(me, tags + 0);
        const std::int64_t b = rtp->wait(me, tags + 1);
        rtp->cont(leader, tags + 100, 10 * a + b);
        rtp->ack(leader, tags + 200);
      },
      options);
  rtp = &rt;
  rt.spawn(/*target_color=*/1, /*chunk=*/0, /*tags=*/0, /*leader=*/0, 0);
  rt.cont(1, 1, 2);    // drained while the worker waits for tag 0
  rt.flush_current();  // both cross before the kill switch
  rt.inject_crash(1);  // behind them in the ring: wins the tag-0 wait as control
  rt.cont(1, 0, 4);
  EXPECT_EQ(rt.wait(0, 100), 42);
  rt.wait_ack(0, 200);

  const auto s = rt.stats_snapshot();
  EXPECT_EQ(s.worker_crashes, 1u);
  EXPECT_EQ(s.failovers, 1u);
  EXPECT_EQ(s.duplicates_discarded, 0u);
  EXPECT_EQ(s.poisoned_workers, 0u);
}

TEST(CrashRecoveryTest, CrashAtPreSendReplaysWithoutDoubleDelivery) {
  EchoHarness echo(crash_options(/*hot_failover=*/false));
  // Worker 1's third send (a mid-run reply cont) never happens: the enclave
  // dies the instant before it. Replay re-issues it under the original seq.
  echo.rt->arm_crash(1, CrashPoint::kPreSend, /*nth=*/2);
  constexpr std::uint64_t kRounds = 10;
  EXPECT_EQ(echo.drive(kRounds), EchoHarness::expected(kRounds));
  const auto s = echo.rt->stats_snapshot();
  EXPECT_EQ(s.worker_crashes, 1u);
  EXPECT_EQ(s.poisoned_workers, 0u);
}

TEST(CrashRecoveryTest, CrashDuringBatchedFlushIsExactlyOnce) {
  // Satellite pin: the nastiest interleaving — the slab has crossed the
  // mailbox (push_batch done) but the enclave dies before the flush is
  // accounted. The crashed copy is live at the receiver AND in the journal;
  // the replayed re-push must dedup to nothing, the discarded slab must not
  // leak slots (a leak shows up as a short sum or a wedged second run).
  RecoveryOptions options = crash_options(/*hot_failover=*/false);
  EchoHarness echo(options);
  echo.rt->arm_crash(1, CrashPoint::kMidBatch, /*nth=*/1);
  constexpr std::uint64_t kRounds = 10;
  EXPECT_EQ(echo.drive(kRounds), EchoHarness::expected(kRounds));
  const auto s1 = echo.rt->stats_snapshot();
  EXPECT_EQ(s1.worker_crashes, 1u);
  EXPECT_EQ(s1.poisoned_workers, 0u);

  // The slab survives the crash intact: a second exchange on the same
  // runtime reuses every slot.
  EXPECT_EQ(echo.drive(kRounds), EchoHarness::expected(kRounds));
  const auto s2 = echo.rt->stats_snapshot();
  EXPECT_EQ(s2.worker_crashes, 1u) << "the arming is one-shot";
  EXPECT_EQ(s2.poisoned_workers, 0u);
}

TEST(CrashRecoveryTest, CrashRightAfterCheckpointReplaysEmptyJournal) {
  RecoveryOptions options = crash_options(/*hot_failover=*/false);
  options.checkpoint.checkpoint_interval = 4;  // compact often
  EchoHarness echo(options);
  // Fires inside seal_checkpoint: the freshest possible state, zero journal
  // suffix to replay. (nth=1 skips the genesis seal so traffic exists.)
  echo.rt->arm_crash(1, CrashPoint::kPostCheckpoint, /*nth=*/1);
  constexpr std::uint64_t kRounds = 12;
  EXPECT_EQ(echo.drive(kRounds), EchoHarness::expected(kRounds));
  // Which seal is the armed one depends on whether the genesis seal raced
  // ahead of arm_crash; drive a second exchange so at least two post-arm
  // seals exist, then wait for the crash + cold restart to be counted (the
  // armed seal can close AFTER the ack was already flushed to the driver).
  EXPECT_EQ(echo.drive(kRounds), EchoHarness::expected(kRounds));
  EXPECT_TRUE(eventually([&] {
    return echo.rt->stats_snapshot().cold_restarts >= 1;
  })) << "the armed post-checkpoint crash never fired";
  const auto s = echo.rt->stats_snapshot();
  EXPECT_EQ(s.worker_crashes, 1u);
  EXPECT_EQ(s.cold_restarts, 1u);
  EXPECT_GE(s.checkpoints_taken, 2u);
  EXPECT_EQ(s.poisoned_workers, 0u);
}

TEST(CrashRecoveryTest, RepeatedCrashesUnderInjectedFaultsStillComplete) {
  // Crash recovery composes with the §6 wire faults it rides on: a crash on
  // every 6th wait entry plus scripted message drops, and the sum is still
  // exact. (Sustained-rate behavior is the bench's floor gate; this pins
  // correctness under the combination.)
  FaultInjector injector(FaultConfig{});
  injector.script(5, FaultKind::kDrop);
  injector.script(11, FaultKind::kDrop);

  RecoveryOptions options = crash_options(/*hot_failover=*/true);
  options.injector = &injector;
  EchoHarness echo(options);
  echo.rt->arm_crash(1, CrashPoint::kWaitEntry, /*nth=*/5);
  constexpr std::uint64_t kRounds = 16;
  EXPECT_EQ(echo.drive(kRounds), EchoHarness::expected(kRounds));
  const auto s = echo.rt->stats_snapshot();
  EXPECT_EQ(s.worker_crashes, 1u);
  EXPECT_EQ(s.failovers, 1u);
  EXPECT_EQ(s.poisoned_workers, 0u);
}

TEST(CrashRecoveryTest, InjectedCrashMessageKillsTheWorker) {
  // The kill switch travels as a kCrash control message: it bypasses the
  // injector (runtime-internal, not wire traffic) and is consumed at the
  // worker's next blocking point.
  EchoHarness echo(crash_options(/*hot_failover=*/false));
  echo.rt->inject_crash(1);
  constexpr std::uint64_t kRounds = 6;
  EXPECT_EQ(echo.drive(kRounds), EchoHarness::expected(kRounds));
  const auto s = echo.rt->stats_snapshot();
  EXPECT_EQ(s.worker_crashes, 1u);
  EXPECT_EQ(s.poisoned_workers, 0u);
}

// ---------------------------------------------------------------------------
// Degradation and re-attestation rejection
// ---------------------------------------------------------------------------

TEST(CrashRecoveryTest, CrashWithoutRecoveryPoisonsTheColor) {
  RecoveryOptions options;
  options.spawn_secret = 0xFEED'F00D'BEEF'CAFEull;
  options.wait_deadline = 25ms;
  options.max_retries = 2;
  // checkpoint.enabled stays false: pre-§12 semantics.
  EchoHarness echo(options);
  echo.rt->arm_crash(1, CrashPoint::kWaitEntry, /*nth=*/1);
  try {
    echo.drive(6);
    FAIL() << "the driver's wait must fail: the worker is gone for good";
  } catch (const RuntimeFault& f) {
    EXPECT_TRUE(f.code() == StatusCode::kWorkerPoisoned ||
                f.code() == StatusCode::kTimeout ||
                f.code() == StatusCode::kRetransmitExhausted)
        << status_code_name(f.code());
  }
  for (int i = 0; i < 100 && !echo.rt->poisoned(1); ++i) {
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_TRUE(echo.rt->poisoned(1));
  EXPECT_EQ(echo.rt->stats_snapshot().worker_crashes, 1u);
}

TEST(CrashRecoveryTest, RolledBackCheckpointIsRejectedAsStale) {
  RecoveryOptions options = crash_options(/*hot_failover=*/false);
  options.checkpoint.checkpoint_interval = 4;  // several epochs during the run
  options.max_retries = 2;                     // fail fast once poisoned
  EchoHarness echo(options);

  // Let the worker seal a few epochs, then present it the oldest one again.
  EXPECT_EQ(echo.drive(8), EchoHarness::expected(8));
  const SealedCheckpoint old_cp = echo.rt->checkpoint_copy(1);
  EXPECT_EQ(echo.drive(8), EchoHarness::expected(8));
  ASSERT_GT(echo.rt->checkpoint_epoch(1), old_cp.epoch) << "no epoch advanced";

  echo.rt->substitute_checkpoint(1, old_cp);  // the rollback attack
  echo.rt->inject_crash(1);
  try {
    echo.drive(4);
    FAIL() << "re-attestation must reject the rollback";
  } catch (const RuntimeFault& f) {
    EXPECT_EQ(f.code(), StatusCode::kAttestationFailed)
        << status_code_name(f.code());
  }
  const auto s = echo.rt->stats_snapshot();
  EXPECT_GE(s.checkpoint_rejects_stale, 1u);
  EXPECT_EQ(s.checkpoint_rejects_tampered, 0u);
  EXPECT_TRUE(echo.rt->poisoned(1));
}

TEST(CrashRecoveryTest, TamperedCheckpointIsRejectedAsForged) {
  RecoveryOptions options = crash_options(/*hot_failover=*/false);
  options.max_retries = 2;
  EchoHarness echo(options);
  EXPECT_EQ(echo.drive(4), EchoHarness::expected(4));

  echo.rt->tamper_checkpoint(1);  // flip one sealed byte
  echo.rt->inject_crash(1);
  try {
    echo.drive(4);
    FAIL() << "re-attestation must reject the forgery";
  } catch (const RuntimeFault& f) {
    EXPECT_EQ(f.code(), StatusCode::kAttestationFailed)
        << status_code_name(f.code());
  }
  const auto s = echo.rt->stats_snapshot();
  EXPECT_GE(s.checkpoint_rejects_tampered, 1u);
  EXPECT_TRUE(echo.rt->poisoned(1));
}

// ---------------------------------------------------------------------------
// Interpreter surface: crash at every protocol point, on BOTH engines, and
// the call still completes exactly once — return value and the partitioned
// memory image are byte-identical to a crash-free run.
// ---------------------------------------------------------------------------

const char* kTwoColorProgram = R"(
module "fig6"
global i32 @unsafe = 0 color(U)
global i32 @blue = 10 color(blue)
global i32 @red = 0 color(red)
declare void @printf(i32)
define i32 @main() entry {
entry:
  store i32 1, ptr<i32 color(U)> @unsafe
  %b = load ptr<i32 color(blue)> @blue
  %x = call i32 @f(i32 %b)
  ret i32 %x
}
define i32 @f(i32 %y) {
entry:
  call void @g(i32 21)
  ret i32 42
}
define void @g(i32 %n) {
entry:
  store i32 %n, ptr<i32 color(blue)> @blue
  store i32 %n, ptr<i32 color(red)> @red
  call void @printf(i32 0)
  ret void
}
)";

struct CompiledProgram {
  std::unique_ptr<ir::Module> module;
  std::unique_ptr<sectype::TypeAnalysis> analysis;
  std::unique_ptr<partition::PartitionResult> program;
};

CompiledProgram compile_two_color() {
  CompiledProgram c;
  auto parsed = ir::parse_module(kTwoColorProgram);
  EXPECT_TRUE(parsed.ok()) << parsed.message();
  c.module = std::move(parsed).value();
  c.analysis = std::make_unique<sectype::TypeAnalysis>(*c.module, sectype::Mode::kRelaxed);
  EXPECT_TRUE(c.analysis->run()) << c.analysis->diagnostics().to_string();
  auto result = partition::partition_module(*c.analysis);
  EXPECT_TRUE(result.ok()) << result.message();
  c.program = std::move(result).value();
  return c;
}

std::int64_t read_global(interp::Machine& m, const std::string& name,
                         sgx::ColorId color) {
  std::byte bytes[4] = {};
  m.memory().read(m.global_address(name), bytes, color);
  std::int32_t v = 0;
  std::memcpy(&v, bytes, 4);
  return v;
}

TEST(MachineCrashTest, ExactlyOnceAtEveryCrashPointOnEveryEngine) {
  for (const interp::ExecMode mode :
       {interp::ExecMode::kTreeWalk, interp::ExecMode::kFused}) {
    for (const CrashPoint point :
         {CrashPoint::kWaitEntry, CrashPoint::kPreSend, CrashPoint::kMidBatch,
          CrashPoint::kPostCheckpoint}) {
      const char* engine = mode == interp::ExecMode::kTreeWalk ? "treewalk" : "fused";
      SCOPED_TRACE(std::string(engine) + "/" + crash_point_name(point));
      CompiledProgram c = compile_two_color();
      interp::Machine m(*c.program, /*epc_limit_bytes=*/0, mode);
      m.enable_fault_recovery(/*wait_deadline=*/30ms, /*max_retries=*/6);
      CheckpointOptions ckpt;
      ckpt.enabled = true;
      ckpt.hot_failover = true;
      ckpt.sleep_on_restart = false;
      // Compact at every chunk boundary so kPostCheckpoint has a seal to
      // fire at during the call's traffic even when the genesis seal beat
      // arm_worker_crash to the punch (the workers start inside the first
      // arm call, so that race is real).
      ckpt.checkpoint_interval = 2;
      m.enable_crash_recovery(ckpt);
      // Arm every enclave color: whichever reaches the point first dies
      // there (kPostCheckpoint at a seal, the others during the call's
      // protocol traffic).
      m.arm_worker_crash(1, point);
      m.arm_worker_crash(2, point);

      auto r = m.call("main", {});
      ASSERT_TRUE(r.ok()) << r.message();
      EXPECT_EQ(r.value(), 42);
      // g's cross-color stores landed exactly once each.
      const sgx::ColorId blue = c.program->color_id(sectype::Color::named("blue"));
      const sgx::ColorId red = c.program->color_id(sectype::Color::named("red"));
      EXPECT_EQ(read_global(m, "blue", blue), 21);
      EXPECT_EQ(read_global(m, "red", red), 21);
      EXPECT_TRUE(eventually([&] { return m.runtime_stats().worker_crashes >= 1; }))
          << "the armed point was never reached";
      EXPECT_EQ(m.runtime_stats().poisoned_workers, 0u);
      // The checkpoint restore re-derives EPC accounting from live regions;
      // pre-fix the crashed enclave's stale `epc_used_` survived the restore
      // and drifted from the regions actually resident.
      for (const sgx::ColorId color : {blue, red}) {
        EXPECT_EQ(m.memory().epc_used(color), m.memory().live_bytes(color))
            << "EPC accounting drifted for color " << color;
      }
    }
  }
}

TEST(MachineCrashTest, HostileSealedImageAbortsRestoreWithoutCorruption) {
  // Regression for the restore_color bounds check. Pre-fix the per-region
  // length check was `off + size > image.size()`, which an attacker-chosen
  // size near UINT64_MAX wraps past: the check passes, `off += size` wraps
  // the cursor to ~2^64, and the next header memcpy reads from a wild
  // pointer. The fixed checks are written subtraction-side, so a corrupted
  // sealed image aborts the restore at the damage — no bytes rewritten, and
  // the color's EPC accounting re-derived from its live regions.
  CompiledProgram c = compile_two_color();
  interp::Machine m(*c.program);
  ASSERT_TRUE(m.call("main", {}).ok());
  const sgx::ColorId blue = c.program->color_id(sectype::Color::named("blue"));
  ASSERT_EQ(read_global(m, "blue", blue), 21);
  const std::uint64_t used_before = m.memory().epc_used(blue);
  ASSERT_GT(used_before, 0u);

  auto put_u64 = [](std::vector<std::byte>& img, std::uint64_t v) {
    const auto* p = reinterpret_cast<const std::byte*>(&v);
    img.insert(img.end(), p, p + sizeof v);
  };

  // Two regions claimed; the first header's size wraps the cursor so the
  // second header would be read from out-of-bounds memory.
  std::vector<std::byte> wrap;
  put_u64(wrap, /*count=*/2);
  put_u64(wrap, /*base=*/m.global_address("blue"));
  put_u64(wrap, /*size=*/UINT64_MAX - 31);  // off 24 + size wraps to 2^64-8
  m.memory().restore_color(blue, wrap);

  // One region whose claimed size exceeds the bytes actually present.
  std::vector<std::byte> truncated;
  put_u64(truncated, /*count=*/1);
  put_u64(truncated, /*base=*/m.global_address("blue"));
  put_u64(truncated, /*size=*/4096);  // image ends right after the header
  m.memory().restore_color(blue, truncated);

  EXPECT_EQ(read_global(m, "blue", blue), 21) << "hostile restore wrote bytes";
  EXPECT_EQ(m.memory().epc_used(blue), used_before);
  EXPECT_EQ(m.memory().epc_used(blue), m.memory().live_bytes(blue));
}

TEST(MachineCrashTest, TamperedCheckpointSurfacesAsTypedAttestationFailure) {
  CompiledProgram c = compile_two_color();
  interp::Machine m(*c.program);
  m.enable_fault_recovery(/*wait_deadline=*/25ms, /*max_retries=*/2);
  CheckpointOptions ckpt;
  ckpt.enabled = true;
  ckpt.sleep_on_restart = false;
  m.enable_crash_recovery(ckpt);

  auto warm = m.call("main", {});
  ASSERT_TRUE(warm.ok()) << warm.message();

  m.tamper_worker_checkpoint(1);
  m.inject_worker_crash(1);
  const auto start = std::chrono::steady_clock::now();
  auto r = m.call("main", {});
  ASSERT_FALSE(r.ok()) << "executing from forged sealed state";
  EXPECT_EQ(r.status().code(), StatusCode::kAttestationFailed)
      << status_code_name(r.status().code()) << ": " << r.message();
  EXPECT_LT(std::chrono::steady_clock::now() - start, 2000ms);
  EXPECT_GE(m.runtime_stats().checkpoint_rejects_tampered, 1u);
}

}  // namespace
}  // namespace privagic::runtime
