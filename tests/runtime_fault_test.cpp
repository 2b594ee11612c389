// Adversarial fault-injection tests for the cross-enclave message runtime.
//
// The queues live in unsafe memory (§7.3.2), so the hardened threat model
// lets an attacker drop, duplicate, reorder, corrupt, delay, or forge any
// message. These tests script that attacker deterministically
// (runtime/fault_injector.hpp) and check the recovery protocol of
// runtime/workers.hpp: the seed runtime *hangs* on a single lost message
// (demonstrated by the timed regression below); the recovery runtime
// retransmits, deduplicates, quarantines, and — when truly unrecoverable —
// fails fast with a typed Status instead of deadlocking.
//
// No test here sleeps or waits longer than 2 seconds of wall clock.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "interp/machine.hpp"
#include "ir/parser.hpp"
#include "partition/partitioner.hpp"
#include "runtime/fault_injector.hpp"
#include "runtime/mailbox.hpp"
#include "runtime/switchless.hpp"
#include "runtime/workers.hpp"
#include "support/status.hpp"

namespace privagic::runtime {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// Echo workload: one worker chunk answers `rounds` conts on a fixed tag base.
//
// Tags are deliberately REUSED across rounds (T+0 request, T+100 reply,
// T+200 final ack): a late duplicate or released delayed copy is matched by
// a later round's wait and discarded by its sequence number, which is what
// makes the idempotence counters exact.
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

  /// Drives `rounds` request/response pairs; returns the sum of replies.
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
    // sum of (i + 1) for i in [0, rounds)
    return static_cast<std::int64_t>(rounds * (rounds + 1) / 2);
  }

  std::unique_ptr<ThreadRuntime> rt;
};

// ---------------------------------------------------------------------------
// The motivating regression: the seed runtime (untimed waits, no recovery)
// hangs forever the moment one cont goes missing.
// ---------------------------------------------------------------------------

TEST(FaultRegressionTest, SeedRuntimeHangsWhenOneContIsDropped) {
  FaultInjector injector(FaultConfig{});  // no probabilistic faults
  // Crossing 0 is the spawn, crossing 1 the first request cont: drop it.
  injector.script(1, FaultKind::kDrop);

  RecoveryOptions seed_semantics;  // untimed waits — the seed behavior
  seed_semantics.injector = &injector;
  EchoHarness echo(seed_semantics);

  std::atomic<bool> done{false};
  std::thread driver([&] {
    EXPECT_EQ(echo.drive(1), 1);
    done = true;
  });
  // The whole application is wedged: worker 1 waits for the dropped cont,
  // the driver waits for the reply. 300ms is eons for a 1-round echo.
  std::this_thread::sleep_for(300ms);
  EXPECT_FALSE(done.load()) << "seed semantics should hang on a dropped cont";

  // Unwedge by re-delivering the lost message the way the attacker saw it
  // (raw, unsequenced), then join cleanly.
  echo.rt->inject_raw(1, Message::cont(0, 0));
  driver.join();
  EXPECT_TRUE(done.load());
  EXPECT_EQ(injector.counts().drops, 1u);
}

// ---------------------------------------------------------------------------
// Timed waits + typed failures
// ---------------------------------------------------------------------------

TEST(RecoveryTest, WaitTimesOutWithStatusInsteadOfHanging) {
  RecoveryOptions options;
  options.wait_deadline = 20ms;
  options.max_retries = 2;
  ThreadRuntime timed(2, [](std::size_t, std::uint64_t, std::int64_t, std::int64_t,
                            std::int64_t) {}, options);
  const auto start = std::chrono::steady_clock::now();
  try {
    timed.wait(0, 42);  // nobody will ever send this
    FAIL() << "wait must not return";
  } catch (const RuntimeFault& f) {
    EXPECT_EQ(f.code(), StatusCode::kTimeout);
    EXPECT_EQ(f.status().code(), StatusCode::kTimeout);
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  // Backoff ladder: 20 + 40 + 80 = 140ms, far under the 2s budget.
  EXPECT_LT(elapsed, 1500ms);
  EXPECT_EQ(timed.stats_snapshot().wait_timeouts, 3u);  // initial + 2 retries
  EXPECT_EQ(timed.stats_snapshot().retries, 2u);
}

TEST(RecoveryTest, DroppedRequestContIsRecoveredByRetransmission) {
  FaultInjector injector(FaultConfig{});
  injector.script(1, FaultKind::kDrop);  // the first request cont

  RecoveryOptions options;
  options.wait_deadline = 50ms;
  // Both ends of the lost exchange are blocked; the longer app deadline
  // guarantees the *worker* (who holds the lost request in its sent log)
  // is the one that times out and recovers, making the counters exact.
  options.app_wait_deadline = 400ms;
  options.max_retries = 4;
  options.injector = &injector;
  EchoHarness echo(options);
  EXPECT_EQ(echo.drive(3), EchoHarness::expected(3));

  const auto s = echo.rt->stats_snapshot();
  EXPECT_EQ(s.wait_timeouts, 1u);
  EXPECT_EQ(s.retries, 1u);
  EXPECT_EQ(s.retransmits, 1u);
  EXPECT_EQ(s.poisoned_workers, 0u);
  EXPECT_EQ(injector.counts().drops, 1u);
}

TEST(RecoveryTest, DroppedReplyAndAckAreRecovered) {
  FaultInjector injector(FaultConfig{});
  // Crossings: 0 spawn, 1 req0, 2 reply0, [3 retransmit], 4 req1, 5 reply1,
  // 6 req2, 7 reply2, 8 ack, [9 retransmit].
  injector.script(2, FaultKind::kDrop);  // the first reply cont
  injector.script(8, FaultKind::kDrop);  // the final ack

  RecoveryOptions options;
  // Reply and ack losses are recovered by the *driver* (they sit in its
  // sent log), so here the app side gets the short deadline.
  options.wait_deadline = 400ms;
  options.app_wait_deadline = 50ms;
  options.max_retries = 4;
  options.injector = &injector;
  EchoHarness echo(options);
  EXPECT_EQ(echo.drive(3), EchoHarness::expected(3));

  const auto s = echo.rt->stats_snapshot();
  EXPECT_EQ(s.wait_timeouts, 2u);
  EXPECT_EQ(s.retries, 2u);
  EXPECT_EQ(s.retransmits, 2u);
  EXPECT_EQ(s.duplicates_discarded, 0u);
  EXPECT_EQ(s.poisoned_workers, 0u);
  EXPECT_EQ(injector.counts().drops, 2u);
}

TEST(RecoveryTest, DuplicatedContIsDiscardedIdempotently) {
  FaultInjector injector(FaultConfig{});
  injector.script(2, FaultKind::kDuplicate);  // round-0 reply delivered twice

  RecoveryOptions options;
  options.wait_deadline = 100ms;
  options.max_retries = 4;
  options.injector = &injector;
  EchoHarness echo(options);
  // The stale copy is matched (and discarded by seq) by round 1's wait.
  EXPECT_EQ(echo.drive(3), EchoHarness::expected(3));

  const auto s = echo.rt->stats_snapshot();
  EXPECT_EQ(s.duplicates_discarded, 1u);
  EXPECT_EQ(s.wait_timeouts, 0u);
  EXPECT_EQ(injector.counts().duplicates, 1u);
}

TEST(RecoveryTest, CorruptedContIsQuarantinedAndRetransmitted) {
  FaultInjector injector(FaultConfig{});
  injector.script(2, FaultKind::kCorrupt);  // round-0 reply payload flipped

  RecoveryOptions options;
  options.spawn_secret = 0xFEEDFACE;  // the MAC is what detects corruption
  options.wait_deadline = 400ms;      // the driver quarantines + recovers
  options.app_wait_deadline = 50ms;
  options.max_retries = 4;
  options.injector = &injector;
  EchoHarness echo(options);
  EXPECT_EQ(echo.drive(3), EchoHarness::expected(3));

  const auto s = echo.rt->stats_snapshot();
  EXPECT_EQ(s.corrupt_dropped, 1u);
  EXPECT_EQ(s.wait_timeouts, 1u);
  EXPECT_EQ(s.retries, 1u);
  EXPECT_EQ(s.retransmits, 1u);
  EXPECT_EQ(injector.counts().corrupts, 1u);
}

TEST(RecoveryTest, ReorderedContIsAbsorbed) {
  FaultInjector injector(FaultConfig{});
  injector.script(1, FaultKind::kReorder);  // hold the round-0 request back

  RecoveryOptions options;
  options.wait_deadline = 50ms;
  options.app_wait_deadline = 400ms;
  options.max_retries = 4;
  options.injector = &injector;
  EchoHarness echo(options);
  // With no other traffic on the channel, the held request behaves like a
  // drop until the worker's retransmission releases it: the retransmit copy
  // is consumed and the late original discarded as a duplicate.
  EXPECT_EQ(echo.drive(3), EchoHarness::expected(3));
  EXPECT_EQ(injector.counts().reorders, 1u);

  const auto s = echo.rt->stats_snapshot();
  EXPECT_EQ(s.wait_timeouts, 1u);
  EXPECT_EQ(s.retransmits, 1u);
  EXPECT_EQ(s.duplicates_discarded, 1u);
  EXPECT_EQ(s.poisoned_workers, 0u);
}

TEST(RecoveryTest, GoBackResendsTheMostRecentSendsAcrossTargets) {
  // U sends 20 spawns to color 1, then 3 to color 2, and the attacker drops
  // every one of them. U then times out on a cont nobody logged for it, so
  // retransmit() falls back to go-back: it re-pushes the kGoBackWindow (8)
  // most recent sends over all targets. Those are the 3 spawns to color 2
  // and the last 5 to color 1. Seqs count per target (1..20 and 1..3), so
  // ordering the candidates by seq would pick color 1's last 8 instead.
  //
  // The sends cross in batches, in send order: color 1's slot flushes at
  // its 9th and 17th spawn (8 each); the wait flushes its last 4, then color
  // 2's 3. So crossings 0..22 are exactly the 23 sends, and the go-back
  // re-pushes (crossings 23..30) pass.
  FaultInjector injector(FaultConfig{});
  for (std::uint64_t i = 0; i < 23; ++i) injector.script(i, FaultKind::kDrop);

  RecoveryOptions options;
  options.wait_deadline = 20ms;
  options.max_retries = 1;  // exactly one retransmit round, then give up
  options.injector = &injector;
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::uint64_t>> ran;  // (color, chunk)
  ThreadRuntime rt(
      3,
      [&](std::size_t me, std::uint64_t chunk, std::int64_t, std::int64_t, std::int64_t) {
        const std::lock_guard<std::mutex> lock(mu);
        ran.emplace_back(me, chunk);
      },
      options);
  for (std::uint64_t i = 0; i < 20; ++i) rt.spawn(1, 100 + i, 0, 0, 0);
  for (std::uint64_t i = 0; i < 3; ++i) rt.spawn(2, 200 + i, 0, 0, 0);
  try {
    rt.wait(0, 7);  // nothing will ever send this
    FAIL() << "wait must not return";
  } catch (const RuntimeFault& f) {
    EXPECT_EQ(f.code(), StatusCode::kRetransmitExhausted);
  }
  rt.shutdown();  // workers serve every queued spawn before the sticky stop

  std::sort(ran.begin(), ran.end());
  const std::vector<std::pair<std::size_t, std::uint64_t>> expected = {
      {1, 115}, {1, 116}, {1, 117}, {1, 118}, {1, 119}, {2, 200}, {2, 201}, {2, 202}};
  EXPECT_EQ(ran, expected);
  EXPECT_EQ(injector.counts().drops, 23u);
  EXPECT_EQ(rt.stats_snapshot().retransmits, 1u);
}

// ---------------------------------------------------------------------------
// Graceful degradation: poisoning instead of hanging
// ---------------------------------------------------------------------------

TEST(RecoveryTest, UnrecoverableLossPoisonsTheWorkerAndFailsTheWaiters) {
  FaultInjector injector(FaultConfig{});
  // Drop the request cont AND every retransmission of it: unrecoverable.
  for (std::uint64_t i = 1; i < 32; ++i) injector.script(i, FaultKind::kDrop);

  RecoveryOptions options;
  options.wait_deadline = 20ms;
  options.max_retries = 2;
  options.injector = &injector;
  EchoHarness echo(options);

  try {
    echo.drive(1);
    FAIL() << "the driver's wait must fail";
  } catch (const RuntimeFault& f) {
    // Either side may give up first. A wait that actually burned
    // retransmissions reports kRetransmitExhausted; one that never had a
    // logged copy to resend reports kTimeout; a waiter arriving after a peer
    // already died inherits the root cause.
    EXPECT_TRUE(f.code() == StatusCode::kTimeout ||
                f.code() == StatusCode::kRetransmitExhausted ||
                f.code() == StatusCode::kWorkerPoisoned)
        << status_code_name(f.code());
  }
  // Worker 1's own wait also gave up: it must end up poisoned, not hung.
  for (int i = 0; i < 100 && !echo.rt->poisoned(1); ++i) {
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_TRUE(echo.rt->poisoned(1));
  EXPECT_TRUE(echo.rt->any_poisoned());
  EXPECT_GE(echo.rt->stats_snapshot().poisoned_workers, 1u);
  // Destructor shutdown still joins cleanly (no deadlock) — implicit here.
}

TEST(RecoveryTest, CorruptMacStormPoisonsInsteadOfLoopingForever) {
  // Regression pin for bench/fault_sweep's poisoned_workers column: at the
  // swept rates every run recovers and every row reports poisoned_workers
  // == 0. This test is the other side of that coin — a MAC-corruption STORM
  // (every crossing after the spawn flipped, including every retransmitted
  // copy) can never deliver a valid message, so the bounded retries must
  // exhaust and poison the color instead of re-requesting copies forever.
  FaultInjector injector(FaultConfig{});
  for (std::uint64_t i = 1; i < 64; ++i) injector.script(i, FaultKind::kCorrupt);

  RecoveryOptions options;
  options.spawn_secret = 0xFEEDFACE;  // corruption is detected by the MAC
  options.wait_deadline = 20ms;
  options.max_retries = 2;
  options.injector = &injector;
  EchoHarness echo(options);

  try {
    echo.drive(1);
    FAIL() << "the driver's wait must fail";
  } catch (const RuntimeFault& f) {
    EXPECT_TRUE(f.code() == StatusCode::kTimeout ||
                f.code() == StatusCode::kRetransmitExhausted ||
                f.code() == StatusCode::kWorkerPoisoned)
        << status_code_name(f.code());
  }
  for (int i = 0; i < 100 && !echo.rt->poisoned(1); ++i) {
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_TRUE(echo.rt->poisoned(1));
  EXPECT_GE(echo.rt->stats_snapshot().poisoned_workers, 1u);
  // The MAC caught the corruption every time; nothing corrupt was delivered.
  EXPECT_GE(echo.rt->stats_snapshot().corrupt_dropped, 1u);
  EXPECT_GE(injector.counts().corrupts, 1u);
}

// ---------------------------------------------------------------------------
// Spawn authentication (§8 guard) under hardened and relaxed configurations
// ---------------------------------------------------------------------------

TEST(SpawnAuthFaultTest, ForgedAndBitFlippedSpawnsAreDroppedAndCountedUnderGuard) {
  constexpr std::uint64_t kSecret = 0xDEADBEEFCAFEF00Dull;
  std::atomic<int> runs{0};
  ThreadRuntime* rtp = nullptr;
  ThreadRuntime rt(2, [&](std::size_t, std::uint64_t, std::int64_t tags,
                          std::int64_t leader, std::int64_t) {
    ++runs;
    rtp->ack(leader, tags + 200);
  }, RecoveryOptions{.spawn_secret = kSecret});
  rtp = &rt;

  // Forged: the attacker does not know the secret at all.
  Message forged = Message::spawn(3, 0, 0, 0);
  rt.inject_raw(1, forged);
  // Bit-flipped: the attacker captured a correctly MAC'd spawn in the unsafe
  // queue and flipped one MAC bit (or one field bit — same failure).
  Message flipped = Message::spawn(3, 0, 0, 0);
  flipped.auth = message_mac(flipped, kSecret) ^ (1ull << 17);
  rt.inject_raw(1, flipped);
  Message field_flipped = Message::spawn(3, 0, 0, 0);
  field_flipped.auth = message_mac(field_flipped, kSecret);
  field_flipped.chunk ^= 1;  // retarget the chunk, keep the old MAC
  rt.inject_raw(1, field_flipped);

  // A legitimate spawn still runs afterwards.
  rt.spawn(1, 3, 1000, 0, 0);
  rt.wait_ack(0, 1200);
  EXPECT_EQ(runs.load(), 1);
  EXPECT_EQ(rt.stats_snapshot().forged_spawn_rejects, 3u);

  // The MAC covers the request id too: a captured cont whose id is flipped
  // in the queue is dropped as corrupt, and the genuine copy behind it is
  // the one delivered.
  Message genuine = Message::cont(1300, 77);
  genuine.request = 5;
  genuine.auth = message_mac(genuine, kSecret);
  Message request_flipped = genuine;
  request_flipped.request ^= 1;
  rt.inject_raw(0, request_flipped);
  rt.inject_raw(0, genuine);
  EXPECT_EQ(rt.wait(0, 1300), 77);
  EXPECT_EQ(rt.stats_snapshot().corrupt_dropped, 1u);
}

TEST(SpawnAuthFaultTest, RelaxedModeWithoutSecretAcceptsAndCountsNothing) {
  // Relaxed mode (the paper's prototype, §8): no spawn secret, so the guard
  // is off — injected spawns run and nothing is counted. This pins the
  // hardened/relaxed divergence of the authentication path.
  std::atomic<int> runs{0};
  ThreadRuntime* rtp = nullptr;
  ThreadRuntime rt(2, [&](std::size_t, std::uint64_t, std::int64_t tags,
                          std::int64_t leader, std::int64_t) {
    ++runs;
    rtp->ack(leader, tags + 200);
  }, RecoveryOptions{});
  rtp = &rt;

  Message unsigned_spawn = Message::spawn(3, 500, 0, 0);
  rt.inject_raw(1, unsigned_spawn);
  Message garbage_auth = Message::spawn(3, 600, 0, 0);
  garbage_auth.auth = 0x12345;
  rt.inject_raw(1, garbage_auth);
  rt.wait_ack(0, 700);
  rt.wait_ack(0, 800);
  EXPECT_EQ(runs.load(), 2);
  EXPECT_EQ(rt.stats_snapshot().forged_spawn_rejects, 0u);
}

// ---------------------------------------------------------------------------
// Mailbox satellite: timed next_for and sticky stop
// ---------------------------------------------------------------------------

TEST(MailboxFaultTest, NextForTimesOutThenDelivers) {
  Mailbox box;
  EXPECT_EQ(box.next_for(MsgKind::kCont, 5, 30ms), std::nullopt);
  box.push(Message::cont(5, 55));
  const auto m = box.next_for(MsgKind::kCont, 5, 30ms);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->payload, 55);
}

TEST(MailboxFaultTest, StopWakesTheParkedWaiterAndStaysSticky) {
  // Seed regression: stop was a queue entry a wait consumed, so the next
  // wait blocked forever. The mailbox's one consumer, parked on an
  // unmatched tag, must wake on stop — and every later wait sees it too.
  Mailbox box;
  std::atomic<bool> stopped{false};
  std::thread consumer([&] {
    stopped = box.next(MsgKind::kCont, 1000).kind == MsgKind::kStop;
    // The consumer's next waits, timed or not, are answered at once.
    const std::optional<Message> late = box.next_for(MsgKind::kAck, 7, 2s);
    ASSERT_TRUE(late.has_value());
    EXPECT_EQ(late->kind, MsgKind::kStop);
    EXPECT_EQ(box.next_control().kind, MsgKind::kStop);
  });
  while (box.parked() == 0) std::this_thread::yield();
  box.push(Message::stop());
  consumer.join();
  EXPECT_TRUE(stopped.load());
  // Stop stays observable once the consumer has moved to this thread.
  EXPECT_EQ(box.next(MsgKind::kCont, 9999).kind, MsgKind::kStop);
}

TEST(MailboxFaultTest, StopYieldsToQueuedMatchesAndControl) {
  // Drain semantics: messages already queued when the stop lands are still
  // served first (the seed's arrival-order contract), stop only answers an
  // otherwise-empty wait.
  Mailbox box;
  box.push(Message::cont(5, 50));
  box.push(Message::spawn(9, 0, 0, 0));
  box.push(Message::stop());
  EXPECT_EQ(box.next(MsgKind::kCont, 5).payload, 50);
  EXPECT_EQ(box.next(MsgKind::kCont, 5).kind, MsgKind::kSpawn);
  EXPECT_EQ(box.next(MsgKind::kCont, 5).kind, MsgKind::kStop);
}

// ---------------------------------------------------------------------------
// Batched call path: faults land on batched slots exactly as on singles, and
// the sender-side flush accounting stays exact.
// ---------------------------------------------------------------------------

TEST(BatchedFaultTest, DropDuplicateReorderOnBatchedSlotsConverge) {
  // Crossings under the lock-step echo (push_batch advances the injector per
  // message, so a batch crosses as its messages would one by one): 0 spawn,
  // 1 req0 (drop,
  // +1 shift for the retransmit), 3 reply0 (duplicate: the stale copy is
  // discarded by the driver's round-1 wait), 4 req1 (held back until the
  // worker's retransmit releases it, +1 shift; the late original is
  // discarded by the worker's round-2 wait), 6 reply1, 7 req2, 8 reply2,
  // 9 ack.
  FaultInjector injector(FaultConfig{});
  injector.script(1, FaultKind::kDrop);
  injector.script(3, FaultKind::kDuplicate);
  injector.script(4, FaultKind::kReorder);

  RecoveryOptions options;
  options.wait_deadline = 50ms;       // the worker recovers lost requests
  options.app_wait_deadline = 400ms;
  options.max_retries = 4;
  options.injector = &injector;
  EchoHarness echo(options);
  EXPECT_EQ(echo.drive(3), EchoHarness::expected(3));

  const auto s = echo.rt->stats_snapshot();
  EXPECT_EQ(s.wait_timeouts, 2u);           // drop + held-back request
  EXPECT_EQ(s.retransmits, 2u);
  EXPECT_EQ(s.duplicates_discarded, 2u);    // scripted dup + released original
  EXPECT_EQ(s.poisoned_workers, 0u);
  // Flush accounting: every cross-color message left through the outbox slab.
  EXPECT_GT(s.batch_flushes, 0u);
  EXPECT_GE(s.batched_messages, s.batch_flushes);
  EXPECT_GE(s.slab_highwater, 1u);
  EXPECT_GT(s.messages_sent, 0u);
}

TEST(BatchedFaultTest, CorruptedBatchedSlotIsQuarantinedAndRecovered) {
  // MAC quarantine on a message that crossed inside a batch: the same
  // recovery as RecoveryTest's corrupted-reply case.
  FaultInjector injector(FaultConfig{});
  injector.script(2, FaultKind::kCorrupt);  // round-0 reply payload flipped

  RecoveryOptions options;
  options.spawn_secret = 0xFEEDFACE;
  options.wait_deadline = 400ms;
  options.app_wait_deadline = 50ms;
  options.max_retries = 4;
  options.injector = &injector;
  EchoHarness echo(options);
  EXPECT_EQ(echo.drive(3), EchoHarness::expected(3));

  const auto s = echo.rt->stats_snapshot();
  EXPECT_EQ(s.corrupt_dropped, 1u);
  EXPECT_EQ(s.retransmits, 1u);
  EXPECT_GT(s.batch_flushes, 0u);
}

// ---------------------------------------------------------------------------
// Same-color direct dispatch: spawns served inline, nothing crosses a queue
// ---------------------------------------------------------------------------

TEST(DirectDispatchTest, SameColorSpawnIsServedInlineWithoutMessages) {
  std::atomic<int> runs{0};
  ThreadRuntime* rtp = nullptr;
  ThreadRuntime rt(2, [&](std::size_t, std::uint64_t, std::int64_t tags,
                          std::int64_t leader, std::int64_t) {
    ++runs;
    rtp->ack(leader, tags + 200);
  }, RecoveryOptions{});
  rtp = &rt;

  // Target color 0 == the calling thread's own color: the spawn, its inline
  // serve, and the ack all stay on this thread's self-queue.
  rt.spawn(/*target_color=*/0, /*chunk=*/7, /*tags=*/1000, /*leader=*/0, 0);
  rt.wait_ack(0, 1200);
  EXPECT_EQ(runs.load(), 1);
  const auto s = rt.stats_snapshot();
  EXPECT_EQ(s.calls_elided, 1u);
  EXPECT_EQ(s.messages_sent, 0u) << "elided calls must not touch unsafe memory";
  EXPECT_EQ(s.batch_flushes, 0u);
}

// ---------------------------------------------------------------------------
// Mailbox push_batch: one crossing, per-message injector filtering
// ---------------------------------------------------------------------------

TEST(MailboxFaultTest, PushBatchDeliversInOrderAndFiltersPerMessage) {
  FaultInjector injector(FaultConfig{});
  injector.script(1, FaultKind::kDrop);  // second message of the batch

  Mailbox box;
  box.set_injector(&injector, /*channel=*/0);
  const Message batch[4] = {Message::cont(1, 11), Message::cont(2, 22),
                            Message::cont(3, 33), Message::cont(4, 44)};
  box.push_batch(batch, 4);
  EXPECT_EQ(box.next(MsgKind::kCont, 1).payload, 11);
  EXPECT_EQ(box.next(MsgKind::kCont, 3).payload, 33);  // tag 2 was dropped
  EXPECT_EQ(box.next(MsgKind::kCont, 4).payload, 44);
  EXPECT_EQ(box.next_for(MsgKind::kCont, 2, 30ms), std::nullopt);
  EXPECT_EQ(injector.counts().drops, 1u);
}

TEST(MailboxFaultTest, PushBatchWakesABlockedWaiter) {
  Mailbox box;
  std::atomic<std::int64_t> got{0};
  std::thread waiter([&] { got = box.next(MsgKind::kCont, 9).payload; });
  std::this_thread::sleep_for(50ms);  // let the waiter reach the parked tier
  const Message batch[2] = {Message::cont(8, 80), Message::cont(9, 90)};
  box.push_batch(batch, 2);
  waiter.join();
  EXPECT_EQ(got.load(), 90);
  EXPECT_EQ(box.next(MsgKind::kCont, 8).payload, 80);
}

// ---------------------------------------------------------------------------
// LockChannel sticky stop (the switchless benchmark channel)
// ---------------------------------------------------------------------------

TEST(LockChannelTest, StickyStopWakesBlockedAndFuturePoppers) {
  LockChannel<int> ch;
  std::atomic<int> woken{0};
  std::vector<std::thread> poppers;
  for (int i = 0; i < 2; ++i) {
    poppers.emplace_back([&] {
      if (ch.pop() == std::nullopt) ++woken;
    });
  }
  std::this_thread::sleep_for(50ms);
  ch.stop();
  for (auto& t : poppers) t.join();
  EXPECT_EQ(woken.load(), 2);
  // Stop is sticky: a popper arriving after shutdown returns immediately.
  EXPECT_EQ(ch.pop(), std::nullopt);
  // But queued values still drain before the stop is reported.
  ch.push(5);
  EXPECT_EQ(ch.pop(), std::optional<int>(5));
  EXPECT_EQ(ch.pop(), std::nullopt);
}

// ---------------------------------------------------------------------------
// The acceptance sweeps
// ---------------------------------------------------------------------------

TEST(FaultSweepTest, ScriptedSweepCountersMatchInjectedFaultsExactly) {
  // >= 1000 sequenced messages with scripted drop+duplicate+corrupt faults,
  // all on request conts (plus the final ack), whose recovery paths are
  // deterministic under the asymmetric deadlines — every counter is exactly
  // predictable.
  //
  // Crossing bookkeeping: without faults, crossing 0 is the spawn, request_i
  // is 1+2i, reply_i is 2+2i, and the ack is 1201 (600 rounds). Every
  // drop/corrupt recovery inserts ONE retransmit push, shifting later
  // crossings by +1 (duplicates/holds release inside the faulted push and
  // shift nothing). The indices below bake those shifts in.
  FaultInjector injector(FaultConfig{});
  const std::vector<std::uint64_t> drops = {101, 302, 503, 1206};  // req 50/150/250, ack
  const std::vector<std::uint64_t> dups = {202, 403};              // req 100/200
  const std::vector<std::uint64_t> corrupts = {604, 705};          // req 300/350
  for (auto i : drops) injector.script(i, FaultKind::kDrop);
  for (auto i : dups) injector.script(i, FaultKind::kDuplicate);
  for (auto i : corrupts) injector.script(i, FaultKind::kCorrupt);

  RecoveryOptions options;
  options.spawn_secret = 0x5EC12E7;  // corruption detection needs the MAC
  options.wait_deadline = 50ms;      // workers recover lost/corrupt requests
  options.app_wait_deadline = 200ms; // the driver recovers only the ack
  options.max_retries = 4;
  options.injector = &injector;
  EchoHarness echo(options);
  constexpr std::uint64_t kRounds = 600;  // 1 spawn + 1200 conts + 1 ack
  EXPECT_EQ(echo.drive(kRounds), EchoHarness::expected(kRounds));

  const auto s = echo.rt->stats_snapshot();
  const auto c = injector.counts();
  EXPECT_EQ(c.drops, drops.size());
  EXPECT_EQ(c.duplicates, dups.size());
  EXPECT_EQ(c.corrupts, corrupts.size());
  EXPECT_EQ(s.messages_sent, 1202u);
  // Exact correspondence in deterministic mode:
  EXPECT_EQ(s.duplicates_discarded, dups.size());
  EXPECT_EQ(s.corrupt_dropped, corrupts.size());
  EXPECT_EQ(s.wait_timeouts, drops.size() + corrupts.size());
  EXPECT_EQ(s.retries, drops.size() + corrupts.size());
  EXPECT_EQ(s.retransmits, drops.size() + corrupts.size());
  EXPECT_EQ(s.forged_spawn_rejects, 0u);
  EXPECT_EQ(s.poisoned_workers, 0u);
}

TEST(FaultSweepTest, RandomizedSweepCompletesWithoutDeadlock) {
  FaultConfig config;
  config.seed = 42;  // fixed seed: the fault sequence is reproducible
  config.drop = 0.01;
  config.duplicate = 0.01;
  config.corrupt = 0.01;
  FaultInjector injector(config);
  // The single spawn has no retransmission path (nobody is yet waiting on
  // the worker side); pin its crossing clean so the random sweep exercises
  // the recoverable message kinds.
  injector.script(0, FaultKind::kNone);

  RecoveryOptions options;
  options.spawn_secret = 0xABCDEF;
  options.wait_deadline = 25ms;
  options.max_retries = 8;  // ample budget: repeated faults on one message
  options.injector = &injector;
  EchoHarness echo(options);
  constexpr std::uint64_t kRounds = 600;  // >= 1000 sequenced messages
  EXPECT_EQ(echo.drive(kRounds), EchoHarness::expected(kRounds));

  const auto s = echo.rt->stats_snapshot();
  const auto c = injector.counts();
  EXPECT_GE(s.messages_sent, 1000u);
  EXPECT_GT(c.drops + c.duplicates + c.corrupts, 0u) << "the sweep injected nothing";
  EXPECT_EQ(s.poisoned_workers, 0u) << "recovery exhausted its retry budget";
  // Each corruption event is detected at most once (quarantine precedes the
  // seq marking, so a retransmitted replacement is still accepted).
  EXPECT_LE(s.corrupt_dropped, c.corrupts);
  EXPECT_GE(s.retransmits, 1u);
}

// ---------------------------------------------------------------------------
// Interpreter surface: a lost message becomes a typed runtime trap (or a
// transparent recovery), never a deadlock.
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

TEST(MachineFaultTest, SingleDroppedMessageIsRecoveredTransparently) {
  CompiledProgram c = compile_two_color();
  FaultInjector injector(FaultConfig{});
  injector.script(1, FaultKind::kDrop);  // one protocol message, lost

  interp::Machine m(*c.program);
  m.set_fault_injector(&injector);
  m.enable_fault_recovery(/*wait_deadline=*/50ms, /*max_retries=*/4);
  auto r = m.call("main", {});
  ASSERT_TRUE(r.ok()) << r.message();
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(injector.counts().drops, 1u);
  EXPECT_GE(m.runtime_stats().retransmits, 1u);
}

TEST(MachineFaultTest, UnrecoverableLossSurfacesAsTypedTrapNotDeadlock) {
  CompiledProgram c = compile_two_color();
  FaultInjector injector(FaultConfig{});
  // Drop every message and every retransmission: nothing can get through.
  for (std::uint64_t i = 0; i < 256; ++i) injector.script(i, FaultKind::kDrop);

  interp::Machine m(*c.program);
  m.set_fault_injector(&injector);
  m.enable_fault_recovery(/*wait_deadline=*/25ms, /*max_retries=*/2);
  const auto start = std::chrono::steady_clock::now();
  auto r = m.call("main", {});
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(r.ok()) << "the seed runtime would deadlock here";
  const StatusCode code = r.status().code();
  EXPECT_TRUE(code == StatusCode::kTimeout ||
              code == StatusCode::kRetransmitExhausted ||
              code == StatusCode::kWorkerPoisoned)
      << status_code_name(code) << ": " << r.message();
  EXPECT_LT(elapsed, 2000ms);
}

// ---------------------------------------------------------------------------
// Status satellite
// ---------------------------------------------------------------------------

TEST(StatusCodeTest, CodesAndLegacyPathCoexist) {
  EXPECT_EQ(Status().code(), StatusCode::kOk);
  EXPECT_TRUE(Status().ok());
  const Status legacy = Status::error("something broke");
  EXPECT_FALSE(legacy.ok());
  EXPECT_EQ(legacy.code(), StatusCode::kGeneric);
  EXPECT_EQ(legacy.message(), "something broke");
  const Status typed = Status::error(StatusCode::kTimeout, "wait expired");
  EXPECT_EQ(typed.code(), StatusCode::kTimeout);
  EXPECT_STREQ(status_code_name(typed.code()), "timeout");
  const Result<int> failed(Status::error(StatusCode::kWorkerPoisoned, "w1 down"));
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kWorkerPoisoned);
  const Result<int> fine(7);
  EXPECT_EQ(fine.status().code(), StatusCode::kOk);
}

}  // namespace
}  // namespace privagic::runtime
