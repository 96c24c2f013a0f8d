#include "src/runtime/spsc_ring.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <thread>
#include <vector>

#include "src/runtime/message_ring.h"
#include "src/support/prng.h"

namespace sdaf::runtime {
namespace {

// ---------------------------------------------------------------------
// Model-based property tests: SpscRing driven single-threaded against the
// mutex-era MessageRing, which defines the coalescing semantics (it still
// backs the simulator's channels). Every observable -- sizes, head views,
// popped messages, acceptance counts -- must agree op for op, including
// the dummy-run coalescing boundaries, wraparound, and capacity-1 rings.
// ---------------------------------------------------------------------

void expect_same_head(MessageRing& model, SpscRing& ring,
                      const std::string& label) {
  ASSERT_EQ(model.empty(), !ring.peek_head().has_value()) << label;
  if (model.empty()) return;
  const HeadView expected = model.head();
  const auto actual = ring.peek_head();
  ASSERT_TRUE(actual.has_value()) << label;
  EXPECT_EQ(expected.seq, actual->seq) << label;
  EXPECT_EQ(expected.kind, actual->kind) << label;
  EXPECT_EQ(expected.run, actual->run) << label;
  const Message em = model.head_message();
  const auto am = ring.peek_message();
  ASSERT_TRUE(am.has_value()) << label;
  EXPECT_EQ(em.seq, am->seq) << label;
  EXPECT_EQ(em.kind, am->kind) << label;
}

// One randomized op sequence on a ring of the given capacity. The
// sequence-number stream mixes data, dummy runs, gaps (filtered ranges)
// and an occasional EOS, mirroring what a wrapper emits.
void run_model_check(std::size_t capacity, std::uint64_t seed, int ops) {
  MessageRing model(capacity);
  SpscRing ring(capacity);
  Prng rng(seed);
  std::uint64_t next_seq = 0;
  const std::string label =
      "cap=" + std::to_string(capacity) + " seed=" + std::to_string(seed);

  for (int op = 0; op < ops; ++op) {
    const std::string step = label + " op=" + std::to_string(op);
    ASSERT_EQ(model.size(), ring.size()) << step;
    ASSERT_EQ(model.full(), ring.full()) << step;
    switch (rng.next_below(6)) {
      case 0: {  // push one data message
        if (model.full()) break;
        const auto payload = static_cast<std::int64_t>(next_seq);
        model.push(Message::data(next_seq, Value(payload)));
        ASSERT_TRUE(ring.try_push(Message::data(next_seq, Value(payload))))
            << step;
        ++next_seq;
        break;
      }
      case 1: {  // push one dummy (sometimes after a seq gap)
        if (model.full()) break;
        if (rng.next_bool(0.3)) next_seq += 1 + rng.next_below(3);
        model.push(Message::dummy(next_seq));
        ASSERT_TRUE(ring.try_push(Message::dummy(next_seq))) << step;
        ++next_seq;
        break;
      }
      case 2: {  // batch-push a dummy run (partial acceptance on purpose)
        const std::size_t want = 1 + rng.next_below(capacity + 2);
        if (rng.next_bool(0.3)) next_seq += 1 + rng.next_below(3);
        const std::size_t expected = model.push_dummies(next_seq, want);
        ASSERT_EQ(expected, ring.try_push_dummies(next_seq, want)) << step;
        next_seq += expected;
        break;
      }
      case 3: {  // pop_head (materializes one message, payload included)
        if (model.empty()) break;
        const Message expected = model.pop_head();
        const Message actual = ring.pop_head();
        ASSERT_EQ(expected.seq, actual.seq) << step;
        ASSERT_EQ(expected.kind, actual.kind) << step;
        if (expected.kind == MessageKind::Data) {
          ASSERT_EQ(expected.payload.as<std::int64_t>(),
                    actual.payload.as<std::int64_t>())
              << step;
        }
        break;
      }
      case 4: {  // pop (discard)
        if (model.empty()) break;
        model.pop();
        ring.pop();
        break;
      }
      case 5: {  // batch-pop dummies (never crosses a segment)
        const std::size_t want = 1 + rng.next_below(capacity + 1);
        ASSERT_EQ(model.pop_dummies(want), ring.pop_dummies(want)) << step;
        break;
      }
    }
    expect_same_head(model, ring, step);
  }
}

TEST(SpscRingModel, AgreesWithMessageRingAcrossCapacities) {
  for (const std::size_t capacity : {1u, 2u, 3u, 5u, 8u, 64u})
    for (std::uint64_t seed = 1; seed <= 6; ++seed)
      run_model_check(capacity, 0x50D5 ^ (capacity * 1000 + seed), 4000);
}

TEST(SpscRingModel, Capacity1SealRepublishCycle) {
  // The tightest ring: every segment is sealed and its slot immediately
  // republished; runs can still extend a fully-consumed tail in place.
  SpscRing ring(1);
  EXPECT_FALSE(ring.peek_head().has_value());
  ASSERT_TRUE(ring.try_push(Message::dummy(0)));
  EXPECT_TRUE(ring.full());
  EXPECT_EQ(ring.try_push_dummies(1, 5), 0u);  // full: nothing fits
  EXPECT_EQ(ring.pop_dummies(5), 1u);
  EXPECT_TRUE(ring.empty());
  // Continue the same run: the producer may either extend the consumed
  // tail segment or seal-fail into a fresh one; both must look identical.
  ASSERT_TRUE(ring.try_push(Message::dummy(1)));
  const auto head = ring.peek_head();
  ASSERT_TRUE(head.has_value());
  EXPECT_EQ(head->seq, 1u);
  EXPECT_EQ(head->run, 1u);
  const Message m = ring.pop_head();
  EXPECT_EQ(m.seq, 1u);
  EXPECT_TRUE(ring.empty());
  ASSERT_TRUE(ring.try_push(Message::data(2, Value(std::int64_t{7}))));
  EXPECT_EQ(ring.pop_head().payload.as<std::int64_t>(), 7);
}

TEST(SpscRingModel, TransitionEffectsSingleThreaded) {
  // With no concurrency the was_empty/was_full effects are exact.
  SpscRing ring(2);
  SpscRing::PushEffect push_fx;
  ASSERT_TRUE(ring.try_push(Message::dummy(0), &push_fx));
  EXPECT_TRUE(push_fx.was_empty);
  EXPECT_EQ(push_fx.occupancy, 1u);
  ASSERT_TRUE(ring.try_push(Message::dummy(1), &push_fx));
  EXPECT_FALSE(push_fx.was_empty);
  EXPECT_EQ(push_fx.occupancy, 2u);
  SpscRing::PopEffect pop_fx;
  EXPECT_EQ(ring.pop_dummies(1, &pop_fx), 1u);
  EXPECT_TRUE(pop_fx.was_full);
  EXPECT_EQ(ring.pop_dummies(1, &pop_fx), 1u);
  EXPECT_FALSE(pop_fx.was_full);
}

// ---------------------------------------------------------------------
// Two-thread hammer, designed to run under TSan: a producer pushes a
// seeded random mix of data, dummy runs, gaps and a final EOS through the
// lock-free fast path while a consumer drains it with a random mix of
// peek/pop/pop_dummies and an observer thread probes the occupancy
// snapshot. The consumer must see exactly the produced logical stream.
// ---------------------------------------------------------------------

struct ProducedStream {
  std::vector<Message> messages;  // the logical stream, in order
};

ProducedStream make_stream(std::uint64_t seed, std::size_t length) {
  ProducedStream s;
  Prng rng(seed);
  std::uint64_t seq = 0;
  while (s.messages.size() < length) {
    if (rng.next_bool(0.2)) seq += 1 + rng.next_below(5);  // filtered gap
    if (rng.next_bool(0.6)) {
      const std::size_t run = 1 + rng.next_below(9);
      for (std::size_t i = 0; i < run && s.messages.size() < length; ++i)
        s.messages.push_back(Message::dummy(seq++));
    } else {
      s.messages.push_back(
          Message::data(seq, Value(static_cast<std::int64_t>(seq * 31 + 7))));
      ++seq;
    }
  }
  s.messages.push_back(Message::eos());
  return s;
}

void hammer(std::size_t capacity, std::uint64_t seed, std::size_t length) {
  const ProducedStream stream = make_stream(seed, length);
  SpscRing ring(capacity);
  std::atomic<bool> done{false};

  std::thread producer([&] {
    Prng rng(seed ^ 0xAA);
    std::size_t i = 0;
    while (i < stream.messages.size()) {
      const Message& m = stream.messages[i];
      // Batch consecutive dummies sometimes, to drive try_push_dummies.
      if (m.kind == MessageKind::Dummy && rng.next_bool(0.5)) {
        std::size_t run = 1;
        while (i + run < stream.messages.size() &&
               stream.messages[i + run].kind == MessageKind::Dummy &&
               stream.messages[i + run].seq == m.seq + run)
          ++run;
        run = 1 + rng.next_below(run);
        std::size_t pushed = 0;
        while (pushed < run) {
          const std::size_t got =
              ring.try_push_dummies(m.seq + pushed, run - pushed);
          pushed += got;
          if (got == 0) std::this_thread::yield();  // full: 1-CPU friendly
        }
        i += run;
        continue;
      }
      Message copy = m.kind == MessageKind::Data
                         ? Message::data(m.seq, m.payload)
                         : Message{m.seq, m.kind, {}};
      while (!ring.try_push(std::move(copy))) std::this_thread::yield();
      ++i;
    }
  });

  std::thread observer([&] {
    while (!done.load(std::memory_order_acquire)) {
      const std::size_t size = ring.size();
      ASSERT_LE(size, capacity);  // never torn, never out of range
      std::this_thread::yield();
    }
  });

  // Consumer (this thread): drain and compare against the source stream.
  Prng rng(seed ^ 0x55);
  std::size_t next = 0;
  while (next < stream.messages.size()) {
    const auto head = ring.peek_head();
    if (!head.has_value()) {
      std::this_thread::yield();
      continue;
    }
    const Message& expected = stream.messages[next];
    ASSERT_EQ(expected.seq, head->seq) << "at " << next;
    ASSERT_EQ(expected.kind, head->kind) << "at " << next;
    if (head->kind == MessageKind::Dummy && rng.next_bool(0.5)) {
      const std::size_t want = 1 + rng.next_below(head->run);
      const std::size_t got = ring.pop_dummies(want);
      ASSERT_GE(got, 1u);
      ASSERT_LE(got, want);
      next += got;
    } else if (rng.next_bool(0.5)) {
      const Message m = ring.pop_head();
      ASSERT_EQ(expected.seq, m.seq) << "at " << next;
      if (m.kind == MessageKind::Data) {
        ASSERT_EQ(expected.payload.as<std::int64_t>(),
                  m.payload.as<std::int64_t>())
            << "at " << next;
      }
      ++next;
    } else {
      ring.pop();
      ++next;
    }
  }
  EXPECT_FALSE(ring.peek_head().has_value());
  done.store(true, std::memory_order_release);
  producer.join();
  observer.join();
}

TEST(SpscRingHammer, TwoThreadsPlusOccupancyObserver) {
  // SDAF_STRESS_SECONDS scales the hammer up for tools/ci.sh --stress;
  // the default keeps the tier-1 run fast.
  double seconds = 1.0;
  if (const char* env = std::getenv("SDAF_STRESS_SECONDS"))
    seconds = std::strtod(env, nullptr);
  std::uint64_t seed = 0xD1CE;
  if (const char* env = std::getenv("SDAF_STRESS_SEED"))
    seed = std::strtoull(env, nullptr, 0);
  const auto start = std::chrono::steady_clock::now();
  int rounds = 0;
  do {
    for (const std::size_t capacity : {1u, 2u, 3u, 8u, 64u})
      hammer(capacity, seed + 977u * rounds + capacity, 4000);
    ++rounds;
  } while (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
               .count() < seconds);
  SUCCEED() << rounds << " hammer rounds";
}

// --- the bulk-ingest fast path (try_push_batch) -------------------------

TEST(SpscRing, TryPushBatchMatchesModelAcceptance) {
  for (const std::size_t capacity : {1u, 2u, 3u, 8u}) {
    MessageRing model(capacity);
    SpscRing ring(capacity);
    Prng rng(0xBA7C4 + capacity);
    std::uint64_t next_seq = 0;
    const std::string label = "cap=" + std::to_string(capacity);
    for (int op = 0; op < 2000; ++op) {
      const std::string step = label + " op=" + std::to_string(op);
      if (rng.next_below(3) == 0 && !model.empty()) {
        model.pop();
        ring.pop();
        continue;
      }
      const std::size_t want = 1 + rng.next_below(5);
      std::vector<Message> msgs;
      for (std::size_t i = 0; i < want; ++i)
        msgs.push_back(Message::data(
            next_seq + i, Value(static_cast<std::int64_t>(next_seq + i))));
      const std::size_t accepted =
          ring.try_push_batch(msgs.data(), msgs.size());
      // The model accepts one at a time; acceptance counts must agree.
      std::size_t expected = 0;
      for (std::size_t i = 0; i < want && !model.full(); ++i, ++expected)
        model.push(Message::data(
            next_seq + i, Value(static_cast<std::int64_t>(next_seq + i))));
      ASSERT_EQ(accepted, expected) << step;
      next_seq += want;
      ASSERT_EQ(model.size(), ring.size()) << step;
      expect_same_head(model, ring, step);
    }
    while (!model.empty()) {
      expect_same_head(model, ring, label + " drain");
      model.pop();
      ring.pop();
    }
    EXPECT_TRUE(ring.empty()) << label;
  }
}

// Concurrent: one producer feeding exclusively through try_push_batch, one
// consumer popping -- the consumer must observe every message exactly once,
// in order, and the single-publish staging must never expose a half-written
// slot (the payload check would catch it).
TEST(SpscRing, TryPushBatchConcurrentFifo) {
  constexpr std::uint64_t kTotal = 50000;
  for (const std::size_t capacity : {2u, 8u, 64u}) {
    SpscRing ring(capacity);
    std::thread producer([&] {
      Prng rng(0xBEE5 + capacity);
      std::uint64_t seq = 0;
      while (seq < kTotal) {
        const std::size_t want = static_cast<std::size_t>(
            std::min<std::uint64_t>(1 + rng.next_below(7), kTotal - seq));
        std::vector<Message> msgs;
        for (std::size_t i = 0; i < want; ++i)
          msgs.push_back(Message::data(
              seq + i, Value(static_cast<std::int64_t>((seq + i) * 3))));
        std::size_t done = 0;
        while (done < want) {
          const std::size_t got =
              ring.try_push_batch(msgs.data() + done, want - done);
          done += got;
          if (got == 0) std::this_thread::yield();  // full: 1-CPU friendly
        }
        seq += want;
      }
    });
    std::uint64_t expect_seq = 0;
    while (expect_seq < kTotal) {
      if (!ring.peek_head().has_value()) {
        std::this_thread::yield();  // empty: 1-CPU friendly
        continue;
      }
      const Message m = ring.pop_head();
      ASSERT_EQ(m.seq, expect_seq);
      ASSERT_EQ(m.kind, MessageKind::Data);
      ASSERT_EQ(m.payload.as<std::int64_t>(),
                static_cast<std::int64_t>(expect_seq * 3));
      ++expect_seq;
    }
    producer.join();
    EXPECT_TRUE(ring.empty());
  }
}

// A snapshot marker rides the ring's extra physical segment: it must be
// admissible on a logically full ring, invisible to the certified
// occupancy, ordered FIFO with the surrounding traffic, and still count as
// pending work for emptiness (schedulers must not declare quiescence
// across an un-consumed marker).
TEST(SpscRing, MarkerOccupancyNeutralOrderedAndPending) {
  SpscRing ring(2);
  ASSERT_TRUE(ring.try_push(Message::data(0, Value(std::int64_t{7}))));
  ASSERT_TRUE(ring.try_push(Message::data(1, Value(std::int64_t{8}))));
  EXPECT_TRUE(ring.full());
  SpscRing::PushEffect effect;
  EXPECT_TRUE(ring.try_push_marker(2, &effect));
  EXPECT_EQ(ring.size(), 2u);  // marker excluded from logical occupancy
  EXPECT_TRUE(ring.full());
  // 2 data + 1 marker = capacity + 1 segments: even the physical headroom
  // is now gone, so a second marker is refused (the snapshot plane's
  // at-most-one-marker-per-channel invariant keeps this unreachable).
  EXPECT_FALSE(ring.try_push_marker(3));
  ring.pop();
  ring.pop();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_FALSE(ring.empty());  // the in-flight marker is pending work
  const auto head = ring.peek_head();
  ASSERT_TRUE(head.has_value());
  EXPECT_EQ(head->kind, MessageKind::Marker);
  EXPECT_EQ(head->seq, 2u);
  ring.pop();
  EXPECT_TRUE(ring.empty());
}

// The producer's cached marker count must not outlive the marker: once the
// consumer pops it, a push that refreshes the cached popped_ count has to
// refresh the marker count too, or the stale marker is subtracted from
// occupancy and the ring admits one message past its capacity (and past
// its capacity + 1 physical segments).
TEST(SpscRing, PoppedMarkerDoesNotInflateAdmission) {
  SpscRing ring(2);
  ASSERT_TRUE(ring.try_push_marker(0));
  ASSERT_TRUE(ring.try_push(Message::data(0, Value(std::int64_t{1}))));
  ring.pop();  // the marker
  ASSERT_TRUE(ring.try_push(Message::data(1, Value(std::int64_t{2}))));
  EXPECT_TRUE(ring.full());
  EXPECT_FALSE(ring.try_push(Message::data(2, Value(std::int64_t{3}))));
  EXPECT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring.pop_head().payload.as<std::int64_t>(), 1);
  EXPECT_EQ(ring.pop_head().payload.as<std::int64_t>(), 2);
  EXPECT_TRUE(ring.empty());
}

// Marker behaviour must agree with the mutex-era model ring: it terminates
// a coalesced dummy run and the run behind the barrier starts fresh.
TEST(SpscRing, MarkerNeverCoalescesWithDummyRunsModelAgreement) {
  MessageRing model(8);
  SpscRing ring(8);
  ASSERT_EQ(model.push_dummies(0, 3), 3u);
  ASSERT_EQ(ring.try_push_dummies(0, 3), 3u);
  ASSERT_TRUE(model.push_marker(3));
  ASSERT_TRUE(ring.try_push_marker(3));
  model.push(Message::dummy(3));  // consecutive seq, behind the barrier
  ASSERT_TRUE(ring.try_push(Message::dummy(3)));
  ASSERT_EQ(model.size(), ring.size());
  expect_same_head(model, ring, "marker head");
  EXPECT_EQ(model.pop_dummies(8), 3u);  // stops at the marker
  EXPECT_EQ(ring.pop_dummies(8), 3u);
  expect_same_head(model, ring, "marker reached");
  model.pop();
  ring.pop();
  expect_same_head(model, ring, "post-barrier run");  // run of 1, seq 3
  model.pop();
  ring.pop();
  EXPECT_TRUE(model.empty());
  EXPECT_TRUE(ring.empty());
}

}  // namespace
}  // namespace sdaf::runtime
