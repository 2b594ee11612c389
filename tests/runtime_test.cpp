// Tests for the runtime substrate: mailboxes with kind/tag matching and their
// ring/overflow transport under concurrent producers, the lock-based
// switchless channel, and the worker group's re-entrant spawn service.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/mailbox.hpp"
#include "runtime/switchless.hpp"
#include "runtime/workers.hpp"

namespace privagic::runtime {
namespace {

// ---------------------------------------------------------------------------
// Mailbox
// ---------------------------------------------------------------------------

TEST(MailboxTest, MatchesKindAndTag) {
  Mailbox box;
  box.push(Message::ack(7));
  box.push(Message::cont(5, 111));
  box.push(Message::cont(6, 222));
  // Asking for tag 6 skips the buffered tag-5 cont and the ack.
  Message m = box.next(MsgKind::kCont, 6);
  EXPECT_EQ(m.payload, 222);
  m = box.next(MsgKind::kCont, 5);
  EXPECT_EQ(m.payload, 111);
  m = box.next(MsgKind::kAck, 7);
  EXPECT_EQ(m.kind, MsgKind::kAck);
  EXPECT_EQ(box.size(), 0u);
}

TEST(MailboxTest, SpawnPreemptsWaiters) {
  Mailbox box;
  box.push(Message::cont(1, 42));
  box.push(Message::spawn(9, 100, 0, 0));
  // Waiting for the cont still returns the spawn first if it is queued —
  // the worker must serve it re-entrantly.
  Message m = box.next(MsgKind::kCont, 1);
  // The cont was queued before the spawn, so the cont comes first here...
  EXPECT_EQ(m.kind, MsgKind::kCont);
  // ...but with the cont consumed, a second wait returns the spawn even
  // though the tag never matches.
  m = box.next(MsgKind::kCont, 999);
  EXPECT_EQ(m.kind, MsgKind::kSpawn);
  EXPECT_EQ(m.chunk, 9u);
}

TEST(MailboxTest, BlocksUntilMessageArrives) {
  Mailbox box;
  std::atomic<bool> got{false};
  std::thread consumer([&] {
    Message m = box.next(MsgKind::kCont, 3);
    EXPECT_EQ(m.payload, 33);
    got = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(got.load());
  box.push(Message::cont(3, 33));
  consumer.join();
  EXPECT_TRUE(got.load());
}

// One message of producer p's i-th send: every third is a spawn, the rest are
// conts. All conts share tag 0, so next(kCont, 0) returns every message in
// arrival order.
Message stamped(std::uint64_t p, std::uint64_t i) {
  if (i % 3 == 0) return Message::spawn(p, static_cast<std::int64_t>(i), 0, 0);
  return Message::cont(0, static_cast<std::int64_t>(p << 32 | i));
}

std::pair<std::uint64_t, std::uint64_t> unstamp(const Message& m) {
  if (m.kind == MsgKind::kSpawn) return {m.chunk, static_cast<std::uint64_t>(m.tags)};
  const auto v = static_cast<std::uint64_t>(m.payload);
  return {v >> 32, v & 0xffffffffu};
}

TEST(MailboxTransportTest, ManyProducersKeepPerSenderFifoAndExactlyOnce) {
  constexpr std::uint64_t kProducers = 3;
  constexpr std::uint64_t kPerProducer = 100'000;
  Mailbox box;
  std::vector<std::thread> producers;
  for (std::uint64_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&box, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) box.push(stamped(p, i));
    });
  }
  std::vector<std::uint64_t> next(kProducers, 0);
  bool in_order = true;
  for (std::uint64_t n = 0; n < kProducers * kPerProducer; ++n) {
    const auto [p, i] = unstamp(box.next(MsgKind::kCont, 0));
    ASSERT_LT(p, kProducers);
    in_order = in_order && i == next[p];
    next[p] = i + 1;
  }
  for (auto& t : producers) t.join();
  EXPECT_TRUE(in_order);  // per-producer FIFO, no loss, no duplicate
  for (std::uint64_t p = 0; p < kProducers; ++p) EXPECT_EQ(next[p], kPerProducer);
  EXPECT_EQ(box.size(), 0u);
}

TEST(MailboxTransportTest, PushesPastTheRingOverflowInOrder) {
  // No consumer runs while the producer fills the ring and spills over: the
  // push must not block, and everything comes back in push order.
  constexpr std::uint64_t kCount = Mailbox::kRingSlots * 3 + 7;
  Mailbox box;
  for (std::uint64_t i = 0; i < kCount; ++i) box.push(stamped(0, i));
  EXPECT_EQ(box.size(), kCount);
  for (std::uint64_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(unstamp(box.next(MsgKind::kCont, 0)).second, i);
  }
  // With the overflow drained, pushes take the ring again.
  box.push(Message::cont(4, 44));
  EXPECT_EQ(box.next(MsgKind::kCont, 4).payload, 44);
  EXPECT_EQ(box.size(), 0u);
}

TEST(MailboxTransportTest, StickyStopDrainsRingAndOverflowFirst) {
  constexpr std::uint64_t kCount = Mailbox::kRingSlots + 40;
  Mailbox box;
  for (std::uint64_t i = 0; i < kCount; ++i) box.push(stamped(0, i));
  box.push(Message::stop());
  for (std::uint64_t i = 0; i < kCount; ++i) {
    const Message m = box.next(MsgKind::kCont, 0);
    ASSERT_NE(m.kind, MsgKind::kStop) << "stop reported with message " << i << " queued";
    EXPECT_EQ(unstamp(m).second, i);
  }
  EXPECT_EQ(box.next(MsgKind::kCont, 0).kind, MsgKind::kStop);
  EXPECT_EQ(box.next_control().kind, MsgKind::kStop);  // sticky
}

// Takes @p n messages (all on tag 0) and checks them against the per-producer
// counters in @p next: FIFO per producer, nothing lost, nothing twice.
void take_in_order(Mailbox& box, std::uint64_t n, std::vector<std::uint64_t>& next) {
  for (std::uint64_t k = 0; k < n; ++k) {
    const auto [p, i] = unstamp(box.next(MsgKind::kCont, 0));
    ASSERT_LT(p, next.size());
    ASSERT_EQ(i, next[p]) << "producer " << p << " out of order or overwritten";
    next[p] = i + 1;
  }
}

TEST(MailboxTransportTest, LappingProducersNeverOverwriteAnUndrainedSlot) {
  // Two producers fill the ring exactly, lap after lap, and the consumer
  // drains only once each lap is full: every push after the first lap lands
  // on a slot that held the previous lap's message, claimed against a cached
  // head that is a lap stale. The overflow list must stay unused until
  // tail - head reaches kRingSlots, and engage on the very next push.
  constexpr std::uint64_t kHalf = Mailbox::kRingSlots / 2;
  constexpr int kLaps = 4;
  Mailbox box;
  std::vector<std::uint64_t> sent(2, 0);
  std::vector<std::uint64_t> next(2, 0);
  auto push_concurrently = [&](std::uint64_t per_producer) {
    std::vector<std::thread> producers;
    for (std::uint64_t p = 0; p < 2; ++p) {
      producers.emplace_back([&box, &sent, p, per_producer] {
        for (std::uint64_t k = 0; k < per_producer; ++k) {
          box.push(Message::cont(0, static_cast<std::int64_t>(p << 32 | sent[p]++)));
        }
      });
    }
    for (auto& t : producers) t.join();
  };
  for (int lap = 0; lap < kLaps; ++lap) {
    push_concurrently(kHalf);
    EXPECT_EQ(box.size(), Mailbox::kRingSlots) << "lap " << lap;
    EXPECT_EQ(box.overflowed(), 0u) << "lap " << lap << ": a full ring is not an overflow";
    take_in_order(box, Mailbox::kRingSlots, next);
  }
  push_concurrently(kHalf);
  EXPECT_EQ(box.overflowed(), 0u);
  box.push(Message::cont(0, static_cast<std::int64_t>(sent[0]++)));
  EXPECT_EQ(box.overflowed(), 1u) << "push " << Mailbox::kRingSlots + 1 << " must overflow";
  take_in_order(box, Mailbox::kRingSlots + 1, next);
  EXPECT_EQ(next, sent);
  EXPECT_EQ(box.size(), 0u);
  EXPECT_EQ(box.overflowed(), 0u);
}

TEST(MailboxTransportTest, LateConsumerDrainsLappingProducersExactlyOnce) {
  // The consumer starts only once the ring is full, then drains while both
  // producers keep pushing for several more laps: the ring spills into the
  // overflow list and returns to the ring while slots are being reused.
  constexpr std::uint64_t kPerProducer = Mailbox::kRingSlots * 4;
  Mailbox box;
  std::vector<std::thread> producers;
  for (std::uint64_t p = 0; p < 2; ++p) {
    producers.emplace_back([&box, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        box.push(Message::cont(0, static_cast<std::int64_t>(p << 32 | i)));
      }
    });
  }
  while (box.size() < Mailbox::kRingSlots) std::this_thread::yield();
  std::vector<std::uint64_t> next(2, 0);
  take_in_order(box, 2 * kPerProducer, next);
  for (auto& t : producers) t.join();
  EXPECT_EQ(next, std::vector<std::uint64_t>(2, kPerProducer));
  EXPECT_EQ(box.size(), 0u);
}

TEST(MailboxTransportTest, ParkedWaiterIgnoresThePreviousLapsPublishWord) {
  // After one full lap the head slot still holds the publish word of the
  // message it carried a lap ago. A waiter on the now-empty mailbox must
  // not mistake it for a fresh message: it parks (and times out), and then
  // wakes for the next push.
  Mailbox box;
  for (std::uint64_t i = 0; i < Mailbox::kRingSlots; ++i) box.push(stamped(0, i));
  for (std::uint64_t i = 0; i < Mailbox::kRingSlots; ++i) {
    ASSERT_EQ(unstamp(box.next(MsgKind::kCont, 0)).second, i);
  }
  ASSERT_EQ(box.size(), 0u);

  std::atomic<bool> returned{false};
  std::optional<Message> got;
  std::thread timed([&] {
    got = box.next_for(MsgKind::kCont, 0, std::chrono::milliseconds(50));
    returned = true;
  });
  // A waiter that takes the stale word for a message polls forever, never
  // parks and never checks its deadline; a push after 2 s ends that loop so
  // the test fails instead of hanging.
  bool saw_parked = false;
  const auto rescue_at = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (!returned.load() && std::chrono::steady_clock::now() < rescue_at) {
    saw_parked = saw_parked || box.parked() != 0;
    std::this_thread::yield();
  }
  if (!returned.load()) box.push(Message::cont(0, 1));
  timed.join();
  EXPECT_FALSE(got.has_value());
  ASSERT_TRUE(saw_parked) << "the waiter spun on a stale publish word instead of parking";

  std::thread waiter([&] {
    const Message m = box.next(MsgKind::kCont, 0);
    EXPECT_EQ(m.payload, 77);
  });
  while (box.parked() == 0) std::this_thread::yield();
  box.push(Message::cont(0, 77));
  waiter.join();
  EXPECT_EQ(box.size(), 0u);
}

// ---------------------------------------------------------------------------
// Lock channel (Intel SDK baseline)
// ---------------------------------------------------------------------------

TEST(LockChannelTest, FifoAcrossThreads) {
  LockChannel<int> ch;
  std::thread producer([&] {
    for (int i = 0; i < 10'000; ++i) ch.push(i);
  });
  for (int i = 0; i < 10'000; ++i) {
    ASSERT_EQ(ch.pop(), i);
  }
  producer.join();
  EXPECT_EQ(ch.size(), 0u);
}

// ---------------------------------------------------------------------------
// Worker group
// ---------------------------------------------------------------------------

TEST(ThreadRuntimeTest, SpawnRunsOnTheTargetWorker) {
  std::atomic<int> runs{0};
  std::atomic<std::size_t> worker_seen{0};
  ThreadRuntime rt(3, [&](std::size_t me, std::uint64_t chunk, std::int64_t tags,
                          std::int64_t leader, std::int64_t /*flags*/) {
    worker_seen = me;
    EXPECT_EQ(chunk, 7u);
    EXPECT_EQ(tags, 1000);
    ++runs;
    rt.ack(leader, tags + 200);
  });
  rt.spawn(/*target_color=*/2, /*chunk=*/7, /*tags=*/1000, /*leader=*/0, /*flags=*/0);
  rt.wait_ack(/*me=*/0, 1200);
  EXPECT_EQ(runs.load(), 1);
  EXPECT_EQ(worker_seen.load(), 2u);
}

TEST(ThreadRuntimeTest, ContDeliversPayloadsByTag) {
  ThreadRuntime rt(2, [&](std::size_t me, std::uint64_t, std::int64_t tags, std::int64_t leader,
                          std::int64_t) {
    // Worker 1: receive two values out of order, reply with their sum.
    const std::int64_t b = rt.wait(me, tags + 1);
    const std::int64_t a = rt.wait(me, tags + 0);
    rt.cont(leader, tags + 100, a + b);
    rt.ack(leader, tags + 200);
  });
  rt.spawn(1, 0, 0, 0, 0);
  rt.cont(1, 0, 40);  // tag 0 arrives first, consumed second
  rt.cont(1, 1, 2);
  EXPECT_EQ(rt.wait(0, 100), 42);
  rt.wait_ack(0, 200);
}

TEST(ThreadRuntimeTest, NestedSpawnIsServedWhileWaiting) {
  // Worker 1 runs chunk A which spawns chunk B *back onto worker 0* while
  // worker 0 is blocked waiting for A's ack: worker 0 must serve B
  // re-entrantly or the system deadlocks.
  std::atomic<int> b_runs{0};
  ThreadRuntime* rtp = nullptr;
  ThreadRuntime rt(2, [&](std::size_t me, std::uint64_t chunk, std::int64_t tags,
                          std::int64_t leader, std::int64_t) {
    if (chunk == 0) {  // chunk A on worker 1
      rtp->spawn(0, 1, tags + 500, 1, 0);  // chunk B on worker 0
      rtp->wait_ack(me, tags + 500 + 200);
      rtp->ack(leader, tags + 200);
    } else {  // chunk B on worker 0 (re-entrant)
      ++b_runs;
      rtp->ack(leader, tags + 200);
    }
  });
  rtp = &rt;
  rt.spawn(1, 0, 0, 0, 0);
  rt.wait_ack(0, 200);
  EXPECT_EQ(b_runs.load(), 1);
}

TEST(ThreadRuntimeTest, OutboxSlotFlushesAtEightMessages) {
  // Nine sends to one worker with no wait between them: the ninth finds the
  // slot full and flushes the first eight, and the wait flushes the ninth.
  // The awaited ack is pushed straight into U's mailbox, and the chunks send
  // nothing, so no other outbox flush is counted.
  std::atomic<int> runs{0};
  ThreadRuntime rt(2, [&](std::size_t, std::uint64_t, std::int64_t, std::int64_t,
                          std::int64_t) { ++runs; });
  for (std::uint64_t i = 0; i < 9; ++i) rt.spawn(1, i, 0, 0, 0);
  rt.inject_raw(0, Message::ack(42));
  rt.wait_ack(0, 42);
  const auto s = rt.stats_snapshot();
  EXPECT_EQ(s.batch_flushes, 2u);
  EXPECT_EQ(s.batched_messages, 9u);
  EXPECT_EQ(s.slab_highwater, 8u);
  rt.shutdown();  // the worker serves every queued spawn before the stop
  EXPECT_EQ(runs.load(), 9);
}

// ---------------------------------------------------------------------------
// Spawn guard (the §8 extension: authenticated spawn messages)
// ---------------------------------------------------------------------------

TEST(SpawnGuardTest, LegitimateSpawnsRun) {
  std::atomic<int> runs{0};
  ThreadRuntime rt(2, [&](std::size_t, std::uint64_t, std::int64_t tags, std::int64_t leader,
                          std::int64_t) {
    ++runs;
    rt.ack(leader, tags + 200);
  }, /*spawn_secret=*/0xDEADBEEF);
  rt.spawn(1, 5, 0, 0, 0);
  rt.wait_ack(0, 200);
  EXPECT_EQ(runs.load(), 1);
  EXPECT_EQ(rt.rejected_spawns(), 0u);
}

TEST(SpawnGuardTest, ForgedSpawnsAreDropped) {
  std::atomic<int> runs{0};
  ThreadRuntime rt(2, [&](std::size_t, std::uint64_t, std::int64_t tags, std::int64_t leader,
                          std::int64_t) {
    ++runs;
    rt.ack(leader, tags + 200);
  }, /*spawn_secret=*/0xDEADBEEF);

  // The attacker forges spawns with no / wrong MACs.
  Message forged = Message::spawn(5, 0, 0, 0);
  rt.inject_raw(1, forged);
  forged.auth = 12345;
  rt.inject_raw(1, forged);
  // A legitimate spawn afterwards still runs (and flushes the queue order).
  rt.spawn(1, 5, 0, 0, 0);
  rt.wait_ack(0, 200);
  EXPECT_EQ(runs.load(), 1);
  EXPECT_EQ(rt.rejected_spawns(), 2u);
}

TEST(SpawnGuardTest, ReplayOfFieldsWithWrongMacFails) {
  // Changing any spawn field invalidates the MAC: the attacker cannot take a
  // signed spawn for chunk A and retarget it to chunk B.
  std::atomic<std::uint64_t> last_chunk{~0ull};
  ThreadRuntime rt(2, [&](std::size_t, std::uint64_t chunk, std::int64_t tags,
                          std::int64_t leader, std::int64_t) {
    last_chunk = chunk;
    rt.ack(leader, tags + 200);
  }, /*spawn_secret=*/7);
  // Capture a legit message by signing chunk 1, then tamper the chunk id.
  rt.spawn(1, 1, 1000, 0, 0);
  rt.wait_ack(0, 1200);
  ASSERT_EQ(last_chunk.load(), 1u);
  Message tampered = Message::spawn(2, 1000, 0, 0);
  // (the attacker reuses the observed auth value of the chunk-1 spawn —
  //  approximate it by signing chunk 1 through a second runtime with the
  //  same secret, then swapping the chunk id)
  ThreadRuntime oracle(1, [](std::size_t, std::uint64_t, std::int64_t, std::int64_t,
                             std::int64_t) {}, 7);
  // No public signer API: inject with a stale auth (any value not matching
  // chunk 2's MAC).
  tampered.auth = 0x1234567;
  rt.inject_raw(1, tampered);
  rt.spawn(1, 3, 2000, 0, 0);
  rt.wait_ack(0, 2200);
  EXPECT_EQ(last_chunk.load(), 3u);  // the tampered spawn never ran
  EXPECT_EQ(rt.rejected_spawns(), 1u);
}

TEST(SpawnGuardTest, DisabledGuardAcceptsEverything) {
  std::atomic<int> runs{0};
  ThreadRuntime rt(2, [&](std::size_t, std::uint64_t, std::int64_t tags, std::int64_t leader,
                          std::int64_t) {
    ++runs;
    rt.ack(leader, tags + 200);
  });  // secret = 0: unguarded (the paper's prototype behavior, §8)
  rt.inject_raw(1, Message::spawn(5, 0, 0, 0));
  rt.spawn(1, 5, 100, 0, 0);
  rt.wait_ack(0, 100 + 200);
  rt.wait_ack(0, 0 + 200);
  EXPECT_EQ(runs.load(), 2);
  EXPECT_EQ(rt.rejected_spawns(), 0u);
}

}  // namespace
}  // namespace privagic::runtime
