#include "src/runtime/channel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace sdaf::runtime {
namespace {

TEST(Channel, FifoOrder) {
  BoundedChannel ch(4);
  ASSERT_EQ(ch.try_push(Message::data(0, Value(1))), PushResult::Ok);
  ASSERT_EQ(ch.try_push(Message::dummy(1)), PushResult::Ok);
  ASSERT_EQ(ch.try_push(Message::data(2, Value(3))), PushResult::Ok);
  auto m = ch.peek_head_wait();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->seq, 0u);
  (void)ch.pop();
  m = ch.peek_head_wait();
  EXPECT_EQ(m->kind, MessageKind::Dummy);
  (void)ch.pop();
  m = ch.peek_head_wait();
  EXPECT_EQ(m->seq, 2u);
}

TEST(Channel, PeekDoesNotConsume) {
  BoundedChannel ch(2);
  ASSERT_EQ(ch.try_push(Message::data(7, Value(0))), PushResult::Ok);
  EXPECT_EQ(ch.peek_head_wait()->seq, 7u);
  EXPECT_EQ(ch.peek_head_wait()->seq, 7u);
  EXPECT_EQ(ch.try_peek()->seq, 7u);  // full-message peek agrees
}

TEST(Channel, StatsCountKinds) {
  BoundedChannel ch(8);
  ASSERT_EQ(ch.try_push(Message::data(0, Value(0))), PushResult::Ok);
  ASSERT_EQ(ch.try_push(Message::data(1, Value(0))), PushResult::Ok);
  ASSERT_EQ(ch.try_push(Message::dummy(2)), PushResult::Ok);
  ASSERT_EQ(ch.try_push(Message::eos()), PushResult::Ok);
  const auto s = ch.stats();
  EXPECT_EQ(s.data_pushed, 2u);
  EXPECT_EQ(s.dummies_pushed, 1u);
  EXPECT_EQ(s.max_occupancy, 4);
}

TEST(Channel, PopHeadMovesPayloadInOneCall) {
  BoundedChannel ch(2);
  ASSERT_EQ(ch.try_push(Message::data(3, Value(std::int64_t{42}))),
            PushResult::Ok);
  bool was_full = true;
  const Message m = ch.pop_head(&was_full);
  EXPECT_EQ(m.seq, 3u);
  EXPECT_EQ(m.kind, MessageKind::Data);
  EXPECT_EQ(m.payload.as<std::int64_t>(), 42);
  EXPECT_FALSE(was_full);
  EXPECT_TRUE(ch.empty());
}

// --- dummy run coalescing ---------------------------------------------

TEST(Channel, ConsecutiveDummiesCoalesceButCountFully) {
  // A run of k consecutive dummies is one physical segment but k logical
  // messages: occupancy, capacity and the stats all see k.
  BoundedChannel ch(4);
  for (std::uint64_t s = 0; s < 4; ++s)
    ASSERT_EQ(ch.try_push(Message::dummy(s)), PushResult::Ok);
  EXPECT_EQ(ch.size(), 4u);
  EXPECT_TRUE(ch.full());
  EXPECT_EQ(ch.stats().dummies_pushed, 4u);
  EXPECT_EQ(ch.stats().max_occupancy, 4);
  const auto head = ch.try_peek_head();
  ASSERT_TRUE(head.has_value());
  EXPECT_EQ(head->seq, 0u);
  EXPECT_EQ(head->kind, MessageKind::Dummy);
  EXPECT_EQ(head->run, 4u);
  // A fifth dummy does not fit: coalescing does not create buffer space.
  EXPECT_EQ(ch.try_push(Message::dummy(4)), PushResult::Full);
}

TEST(Channel, BatchPushAcceptsExactlyFreeSpace) {
  BoundedChannel ch(4);
  ASSERT_EQ(ch.try_push(Message::data(0, Value(1))), PushResult::Ok);
  bool was_empty = true;
  bool aborted = true;
  EXPECT_EQ(ch.try_push_dummies(1, 10, &was_empty, &aborted), 3u);
  EXPECT_FALSE(was_empty);
  EXPECT_FALSE(aborted);
  EXPECT_TRUE(ch.full());
  EXPECT_EQ(ch.stats().dummies_pushed, 3u);
  EXPECT_EQ(ch.try_push_dummies(4, 5), 0u);  // full: nothing accepted
}

TEST(Channel, InterleavedDataDummyDataPopsInOrder) {
  BoundedChannel ch(8);
  ASSERT_EQ(ch.try_push(Message::data(0, Value(std::int64_t{10}))),
            PushResult::Ok);
  ASSERT_EQ(ch.try_push(Message::dummy(1)), PushResult::Ok);
  ASSERT_EQ(ch.try_push(Message::dummy(2)), PushResult::Ok);
  ASSERT_EQ(ch.try_push(Message::data(3, Value(std::int64_t{30}))),
            PushResult::Ok);
  ASSERT_EQ(ch.try_push(Message::dummy(4)), PushResult::Ok);
  EXPECT_EQ(ch.size(), 5u);

  EXPECT_EQ(ch.pop_head().payload.as<std::int64_t>(), 10);
  auto head = ch.try_peek_head();
  EXPECT_EQ(head->seq, 1u);
  EXPECT_EQ(head->run, 2u);  // the 1,2 run coalesced behind the data
  const auto run = ch.pop_dummies(2);
  EXPECT_EQ(run.popped, 2u);
  EXPECT_EQ(ch.pop_head().payload.as<std::int64_t>(), 30);
  head = ch.try_peek_head();
  EXPECT_EQ(head->seq, 4u);
  EXPECT_EQ(head->run, 1u);  // seq 4 did not merge across the data message
}

TEST(Channel, NonConsecutiveDummiesStaySeparate) {
  BoundedChannel ch(4);
  ASSERT_EQ(ch.try_push(Message::dummy(1)), PushResult::Ok);
  // Gap: upstream filtered 2..4.
  ASSERT_EQ(ch.try_push(Message::dummy(5)), PushResult::Ok);
  auto head = ch.try_peek_head();
  EXPECT_EQ(head->seq, 1u);
  EXPECT_EQ(head->run, 1u);
  // pop_dummies never crosses into the next segment.
  EXPECT_EQ(ch.pop_dummies(2).popped, 1u);
  head = ch.try_peek_head();
  EXPECT_EQ(head->seq, 5u);
}

TEST(Channel, EosArrivingMidRunStaysOrdered) {
  BoundedChannel ch(8);
  EXPECT_EQ(ch.try_push_dummies(7, 3), 3u);
  ASSERT_EQ(ch.try_push(Message::eos()), PushResult::Ok);
  EXPECT_EQ(ch.size(), 4u);
  auto head = ch.try_peek_head();
  EXPECT_EQ(head->kind, MessageKind::Dummy);
  EXPECT_EQ(head->run, 3u);
  EXPECT_EQ(ch.pop_dummies(3).popped, 3u);
  head = ch.try_peek_head();
  EXPECT_EQ(head->kind, MessageKind::Eos);
  EXPECT_EQ(head->run, 1u);  // EOS never merges into a run
  EXPECT_EQ(ch.pop_head().kind, MessageKind::Eos);
  EXPECT_TRUE(ch.empty());
}

TEST(Channel, PartialRunPopKeepsSequenceNumbers) {
  BoundedChannel ch(8);
  EXPECT_EQ(ch.try_push_dummies(10, 5), 5u);
  EXPECT_EQ(ch.pop_dummies(2).popped, 2u);
  auto head = ch.try_peek_head();
  EXPECT_EQ(head->seq, 12u);
  EXPECT_EQ(head->run, 3u);
  // pop_head materializes one dummy of the run at a time.
  const Message m = ch.pop_head();
  EXPECT_EQ(m.kind, MessageKind::Dummy);
  EXPECT_EQ(m.seq, 12u);
  EXPECT_EQ(ch.try_peek_head()->seq, 13u);
  EXPECT_EQ(ch.size(), 2u);
}

TEST(Channel, CoalescedRunRefillsAtCapacityBoundary) {
  // full()/occupancy around the boundary when a run partially drains and
  // the producer tops the same run back up.
  BoundedChannel ch(3);
  EXPECT_EQ(ch.try_push_dummies(0, 3), 3u);
  EXPECT_TRUE(ch.full());
  EXPECT_EQ(ch.pop_dummies(2).popped, 2u);
  EXPECT_FALSE(ch.full());
  EXPECT_EQ(ch.size(), 1u);
  // Continue the same run: coalesces onto the surviving segment.
  EXPECT_EQ(ch.try_push_dummies(3, 4), 2u);
  EXPECT_TRUE(ch.full());
  const auto head = ch.try_peek_head();
  EXPECT_EQ(head->seq, 2u);
  EXPECT_EQ(head->run, 3u);
  EXPECT_EQ(ch.stats().dummies_pushed, 5u);
  EXPECT_EQ(ch.stats().max_occupancy, 3);
}

TEST(Channel, AbortWithCoalescedRunInFlight) {
  BoundedChannel ch(8);
  EXPECT_EQ(ch.try_push_dummies(0, 4), 4u);
  ch.abort();
  // Heads stay observable after abort: the consumer drains while
  // unwinding.
  auto head = ch.try_peek_head();
  ASSERT_TRUE(head.has_value());
  EXPECT_EQ(head->run, 4u);
  EXPECT_EQ(ch.pop_dummies(4).popped, 4u);
  EXPECT_TRUE(ch.empty());
  // But no new traffic enters an aborted channel.
  bool aborted = false;
  EXPECT_EQ(ch.try_push_dummies(4, 2, nullptr, &aborted), 0u);
  EXPECT_TRUE(aborted);
  EXPECT_EQ(ch.try_push(Message::dummy(4)), PushResult::Aborted);
}

// --- blocking consumer / abort ----------------------------------------

TEST(Channel, BlocksWhenEmptyUntilPush) {
  BoundedChannel ch(1);
  std::uint64_t got = 99;
  std::thread consumer([&] {
    const auto m = ch.peek_head_wait();
    ASSERT_TRUE(m.has_value());
    got = m->seq;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_EQ(ch.try_push(Message::data(5, Value(0))), PushResult::Ok);
  consumer.join();
  EXPECT_EQ(got, 5u);
}

TEST(Channel, AbortReleasesBlockedConsumer) {
  BoundedChannel ch(1);
  std::thread consumer([&] {
    EXPECT_FALSE(ch.peek_head_wait().has_value());  // aborted while empty
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ch.abort();
  consumer.join();
}

// --- the coalesced bulk-ingest path (try_push_batch) --------------------

std::vector<Message> data_batch(std::uint64_t first_seq, std::size_t count) {
  std::vector<Message> msgs;
  msgs.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    msgs.push_back(Message::data(first_seq + i,
                                 Value(static_cast<std::int64_t>(i))));
  return msgs;
}

TEST(Channel, TryPushBatchAcceptsRoomLimitedPrefix) {
  BoundedChannel ch(4);
  auto msgs = data_batch(0, 6);
  bool was_empty = false;
  bool aborted = true;
  EXPECT_EQ(ch.try_push_batch(msgs.data(), msgs.size(), &was_empty, &aborted),
            4u);
  EXPECT_TRUE(was_empty);  // the empty -> non-empty wake edge
  EXPECT_FALSE(aborted);
  // FIFO intact: exactly the accepted prefix, in order.
  for (std::uint64_t seq = 0; seq < 4; ++seq) {
    const auto m = ch.peek_head_wait();
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->seq, seq);
    EXPECT_EQ(m->kind, MessageKind::Data);
    (void)ch.pop();
  }
  // A second batch on the now non-empty channel reports no wake edge.
  ASSERT_EQ(ch.try_push(Message::data(10, Value(0))), PushResult::Ok);
  auto more = data_batch(11, 2);
  was_empty = true;
  EXPECT_EQ(ch.try_push_batch(more.data(), more.size(), &was_empty, &aborted),
            2u);
  EXPECT_FALSE(was_empty);
}

TEST(Channel, TryPushBatchCountsEveryMessageInStats) {
  BoundedChannel ch(8);
  auto msgs = data_batch(0, 5);
  EXPECT_EQ(ch.try_push_batch(msgs.data(), msgs.size()), 5u);
  const auto s = ch.stats();
  EXPECT_EQ(s.data_pushed, 5u);
  EXPECT_EQ(s.max_occupancy, 5);
}

TEST(Channel, TryPushBatchDistinguishesAbortFromFull) {
  BoundedChannel full_ch(2);
  auto fill = data_batch(0, 2);
  ASSERT_EQ(full_ch.try_push_batch(fill.data(), fill.size()), 2u);
  auto extra = data_batch(2, 1);
  bool aborted = true;
  EXPECT_EQ(full_ch.try_push_batch(extra.data(), 1, nullptr, &aborted), 0u);
  EXPECT_FALSE(aborted);  // just full

  BoundedChannel dead_ch(4);
  dead_ch.abort();
  auto msgs = data_batch(0, 2);
  aborted = false;
  EXPECT_EQ(dead_ch.try_push_batch(msgs.data(), 2, nullptr, &aborted), 0u);
  EXPECT_TRUE(aborted);
}

// Differential: a batch push drains to exactly the same consumer-visible
// stream as the same messages pushed one at a time.
TEST(Channel, TryPushBatchEquivalentToSinglePushes) {
  BoundedChannel one(16);
  BoundedChannel bulk(16);
  std::uint64_t seq = 0;
  for (int round = 0; round < 8; ++round) {
    const std::size_t n = 1 + (round * 3) % 7;
    auto msgs = data_batch(seq, n);
    for (std::size_t i = 0; i < n; ++i) {
      auto copy = Message::data(msgs[i].seq, Value(std::int64_t(i)));
      ASSERT_EQ(one.try_push(std::move(copy)), PushResult::Ok);
    }
    ASSERT_EQ(bulk.try_push_batch(msgs.data(), n), n);
    seq += n;
    // Drain a few from both to exercise wraparound.
    for (int d = 0; d < 3 && !one.empty(); ++d) {
      const auto a = one.peek_head_wait();
      const auto b = bulk.peek_head_wait();
      ASSERT_TRUE(a.has_value());
      ASSERT_TRUE(b.has_value());
      EXPECT_EQ(a->seq, b->seq);
      EXPECT_EQ(a->kind, b->kind);
      (void)one.pop();
      (void)bulk.pop();
    }
  }
  while (!one.empty()) {
    EXPECT_EQ(one.peek_head_wait()->seq, bulk.peek_head_wait()->seq);
    (void)one.pop();
    (void)bulk.pop();
  }
  EXPECT_TRUE(bulk.empty());
}

// --- the producer signal's low-water wake-up (exec::Stream feeds) ------
// Single-threaded: the "waiter" only registers, so every version move is a
// wake a parked pusher would have received.

TEST(Channel, ProducerSignalWakesOnlyAtLowWaterMark) {
  BoundedChannel ch(8);
  ProducerSignal sig;
  ch.set_producer_signal(&sig);
  EXPECT_EQ(ch.try_push_dummies(0, 4), 4u);
  for (std::uint64_t s = 4; s < 8; ++s)
    ASSERT_EQ(ch.try_push(Message::data(s, Value(0))), PushResult::Ok);
  sig.wake_at.store(3);
  sig.event.register_waiter();
  const std::uint32_t v0 = sig.event.capture();
  // Occupancy 8 -> 7 -> 5 -> 4: still above the mark, no pop signals.
  EXPECT_EQ(ch.pop_dummies(1).popped, 1u);
  EXPECT_EQ(ch.pop_dummies(2).popped, 2u);
  EXPECT_EQ(ch.pop_dummies(4).popped, 1u);
  EXPECT_EQ(sig.event.capture(), v0);
  // The pop that reaches the mark wakes. That wake is claimed: a pop below
  // the mark skips while it is in flight, and the next pop signals again
  // once the woken pusher has unregistered and parked anew.
  EXPECT_EQ(ch.pop_head().seq, 4u);  // occupancy 3
  EXPECT_EQ(sig.event.capture(), v0 + 1);
  EXPECT_FALSE(ch.pop());  // occupancy 2
  EXPECT_EQ(sig.event.capture(), v0 + 1);
  sig.event.unregister_waiter();
  sig.event.register_waiter();
  EXPECT_FALSE(ch.pop());  // occupancy 1
  EXPECT_EQ(sig.event.capture(), v0 + 2);
  sig.event.unregister_waiter();
  EXPECT_FALSE(sig.aborted.load());
}

TEST(Channel, ProducerSignalUntouchedWithoutWaiter) {
  BoundedChannel ch(4);
  ProducerSignal sig;
  ch.set_producer_signal(&sig);
  sig.wake_at.store(4);  // every pop would qualify, but no one is parked
  EXPECT_EQ(ch.try_push_dummies(0, 2), 2u);
  ASSERT_EQ(ch.try_push(Message::data(2, Value(0))), PushResult::Ok);
  ASSERT_EQ(ch.try_push(Message::data(3, Value(0))), PushResult::Ok);
  const std::uint32_t v0 = sig.event.capture();
  EXPECT_EQ(ch.pop_dummies(2).popped, 2u);
  (void)ch.pop_head();
  (void)ch.pop();
  EXPECT_TRUE(ch.empty());
  EXPECT_EQ(sig.event.capture(), v0);
}

TEST(Channel, ProducerSignalMarkIgnoresMarkers) {
  // A snapshot marker is occupancy-neutral, so it must not hold the
  // occupancy a pop reports above the mark.
  BoundedChannel ch(3);
  ProducerSignal sig;
  ch.set_producer_signal(&sig);
  for (std::uint64_t s = 0; s < 3; ++s)
    ASSERT_EQ(ch.try_push(Message::data(s, Value(0))), PushResult::Ok);
  ASSERT_EQ(ch.try_push_marker(3), PushResult::Ok);
  sig.wake_at.store(1);
  sig.event.register_waiter();
  const std::uint32_t v0 = sig.event.capture();
  (void)ch.pop_head();  // 2 data + the marker left
  EXPECT_EQ(sig.event.capture(), v0);
  (void)ch.pop_head();  // 1 data + the marker: at the mark
  EXPECT_EQ(sig.event.capture(), v0 + 1);
  sig.event.unregister_waiter();
}

// --- the batched feed pop (pop_data) ------------------------------------

struct CountingDrainHook final : BoundedChannel::DrainHook {
  std::vector<std::size_t> calls;
  void on_data_drained(std::size_t n) override { calls.push_back(n); }
};

TEST(Channel, PopDataDrainsOnceWithItsLength) {
  BoundedChannel ch(8);
  CountingDrainHook hook;
  ch.set_drain_hook(&hook);
  for (std::uint64_t s = 0; s < 5; ++s)
    ASSERT_EQ(ch.try_push(Message::data(s, Value(static_cast<int>(s)))),
              PushResult::Ok);
  ASSERT_EQ(ch.try_push(Message::eos()), PushResult::Ok);
  std::vector<Message> out(8);
  EXPECT_EQ(ch.pop_data(out.data(), 3), 3u);
  EXPECT_EQ(hook.calls, (std::vector<std::size_t>{3}));
  EXPECT_EQ(ch.pop_data(out.data(), 8), 2u);  // stops at EOS
  EXPECT_EQ(out[1].payload.as<int>(), 4);
  EXPECT_EQ(hook.calls, (std::vector<std::size_t>{3, 2}));
  EXPECT_EQ(ch.pop_data(out.data(), 8), 0u);  // EOS head: nothing, no call
  EXPECT_EQ(hook.calls.size(), 2u);
  EXPECT_EQ(ch.try_peek_head()->kind, MessageKind::Eos);
}

TEST(Channel, PopDataWakesOnlyAtLowWaterMark) {
  // Single-threaded, as above: a batch that stays above the mark does not
  // signal; the batch that crosses it signals exactly once.
  BoundedChannel ch(8);
  ProducerSignal sig;
  ch.set_producer_signal(&sig);
  for (std::uint64_t s = 0; s < 8; ++s)
    ASSERT_EQ(ch.try_push(Message::data(s, Value(0))), PushResult::Ok);
  sig.wake_at.store(3);
  sig.event.register_waiter();
  const std::uint32_t v0 = sig.event.capture();
  std::vector<Message> out(8);
  bool was_full = false;
  EXPECT_EQ(ch.pop_data(out.data(), 4, &was_full), 4u);  // occupancy 4
  EXPECT_TRUE(was_full);
  EXPECT_EQ(sig.event.capture(), v0);
  EXPECT_EQ(ch.pop_data(out.data(), 3, &was_full), 3u);  // occupancy 1
  EXPECT_FALSE(was_full);
  EXPECT_EQ(sig.event.capture(), v0 + 1);
  sig.event.unregister_waiter();
}

TEST(Channel, ParkedPusherWakesWhenBatchedPopsReachLowWater) {
  // Two threads: a pusher keeps the feed topped up, parking (with the
  // stream's wake-elision protocol) until its whole next batch fits; the
  // consumer drains through pop_data batches only. Every item must arrive
  // once, in order -- a lost wake-up would hang the pusher.
  constexpr std::size_t kCap = 16;
  constexpr std::size_t kBatch = 6;
  constexpr std::uint64_t kTotal = 20000;
  BoundedChannel ch(kCap);
  ProducerSignal sig;
  ch.set_producer_signal(&sig);
  std::thread pusher([&] {
    std::vector<Message> msgs;
    std::uint64_t seq = 0;
    while (seq < kTotal) {
      msgs.clear();
      for (std::uint64_t s = seq; s < seq + kBatch && s < kTotal; ++s)
        msgs.push_back(Message::data(s, Value(static_cast<std::int64_t>(s))));
      std::size_t done = 0;
      while (done < msgs.size()) {
        const std::size_t need = msgs.size() - done;
        if (kCap - ch.size() >= need) {
          done += ch.try_push_batch(msgs.data() + done, need);
          continue;
        }
        sig.wake_at.store(kCap - need, std::memory_order_relaxed);
        const std::uint32_t version = sig.event.capture();
        sig.event.register_waiter();
        std::atomic_thread_fence(std::memory_order_seq_cst);
        if (ch.size() > kCap - need)
          ParkingLot::park(sig.event.version, version);
        sig.event.unregister_waiter();
      }
      seq += msgs.size();
    }
  });
  std::vector<Message> out(5);
  std::uint64_t expect = 0;
  while (expect < kTotal) {
    if (!ch.try_peek_head().has_value()) {
      std::this_thread::yield();
      continue;
    }
    const std::size_t n = ch.pop_data(out.data(), out.size());
    ASSERT_GE(n, 1u);
    for (std::size_t i = 0; i < n; ++i, ++expect) {
      ASSERT_EQ(out[i].seq, expect);
      ASSERT_EQ(out[i].payload.as<std::int64_t>(),
                static_cast<std::int64_t>(expect));
    }
  }
  pusher.join();
  EXPECT_TRUE(ch.empty());
}

TEST(Channel, AbortAlwaysBumpsProducerSignal) {
  BoundedChannel ch(2);
  ProducerSignal sig;
  ch.set_producer_signal(&sig);
  const std::uint32_t v0 = sig.event.capture();
  ch.abort();  // no waiter registered, no mark reached: bumps anyway
  EXPECT_NE(sig.event.capture(), v0);
  EXPECT_TRUE(sig.aborted.load());
}

}  // namespace
}  // namespace sdaf::runtime
