#include "src/runtime/spsc_ring.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <thread>
#include <vector>

#include "src/support/prng.h"
#include "tests/harness/message_ring.h"

namespace sdaf::runtime {
namespace {

using harness::MessageRing;

// ---------------------------------------------------------------------
// Model-based property tests: SpscRing driven single-threaded against the
// single-threaded MessageRing (tests/harness), which defines the
// coalescing semantics. Every observable -- sizes, head views,
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

// --- the batched feed pop (pop_data) ------------------------------------

// The model of one pop_data call: single pops while the head is data.
std::vector<Message> model_pop_data(MessageRing& model, std::size_t max) {
  std::vector<Message> out;
  while (out.size() < max && !model.empty() &&
         model.head().kind == MessageKind::Data)
    out.push_back(model.pop_head());
  return out;
}

void expect_same_pop_data(MessageRing& model, SpscRing& ring,
                          std::size_t max, const std::string& label) {
  const std::vector<Message> expected = model_pop_data(model, max);
  std::vector<Message> actual(max);
  const std::size_t n = ring.pop_data(actual.data(), max);
  ASSERT_EQ(expected.size(), n) << label;
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(expected[i].seq, actual[i].seq) << label;
    ASSERT_EQ(MessageKind::Data, actual[i].kind) << label;
    ASSERT_EQ(expected[i].payload.as<std::int64_t>(),
              actual[i].payload.as<std::int64_t>())
        << label;
  }
  ASSERT_EQ(model.size(), ring.size()) << label;
  expect_same_head(model, ring, label);
}

// Randomized op-for-op agreement with the model: data, dummy runs, an
// occasional marker and a final EOS on the producer side; single pops,
// dummy-run pops and pop_data batches of random width on the consumer
// side -- so batches stop at dummy runs (whole or partly consumed), at
// markers, at EOS and at the empty ring, across wraparound.
TEST(SpscRing, PopDataMatchesModel) {
  for (const std::size_t capacity : {1u, 2u, 3u, 8u, 64u}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      MessageRing model(capacity);
      SpscRing ring(capacity);
      Prng rng(0xFEED0 ^ (capacity * 100 + seed));
      std::uint64_t next_seq = 0;
      bool marker_in_flight = false;
      bool eos_pushed = false;
      const std::string label = "cap=" + std::to_string(capacity) +
                                " seed=" + std::to_string(seed);
      for (int op = 0; op < 3000; ++op) {
        const std::string step = label + " op=" + std::to_string(op);
        switch (rng.next_below(7)) {
          case 0:
          case 1: {  // data (twice as likely: batches need runs of it)
            if (model.full() || eos_pushed) break;
            const auto payload = static_cast<std::int64_t>(next_seq * 5);
            model.push(Message::data(next_seq, Value(payload)));
            ASSERT_TRUE(
                ring.try_push(Message::data(next_seq, Value(payload))))
                << step;
            ++next_seq;
            break;
          }
          case 2: {  // a dummy run
            if (eos_pushed) break;
            const std::size_t want = 1 + rng.next_below(4);
            const std::size_t got = model.push_dummies(next_seq, want);
            ASSERT_EQ(got, ring.try_push_dummies(next_seq, want)) << step;
            next_seq += got;
            break;
          }
          case 3: {  // a marker (at most one in flight) or, rarely, EOS
            if (eos_pushed) break;
            if (rng.next_bool(0.005)) {
              if (model.full()) break;
              model.push(Message::eos());
              ASSERT_TRUE(ring.try_push(Message::eos())) << step;
              eos_pushed = true;
            } else if (!marker_in_flight) {
              ASSERT_TRUE(model.push_marker(next_seq));
              ASSERT_TRUE(ring.try_push_marker(next_seq)) << step;
              marker_in_flight = true;
            }
            break;
          }
          case 4: {  // single pop; a partial dummy pop leaves a run head
            if (model.empty()) break;
            if (model.head().kind == MessageKind::Marker)
              marker_in_flight = false;
            if (model.head().kind == MessageKind::Dummy &&
                rng.next_bool(0.5)) {
              const std::size_t want = 1 + rng.next_below(2);
              ASSERT_EQ(model.pop_dummies(want), ring.pop_dummies(want))
                  << step;
            } else {
              model.pop();
              ring.pop();
            }
            break;
          }
          default: {  // pop_data of random width
            const std::size_t max = 1 + rng.next_below(capacity + 2);
            expect_same_pop_data(model, ring, max, step);
            break;
          }
        }
        ASSERT_EQ(model.size(), ring.size()) << step;
        expect_same_head(model, ring, step);
        if (eos_pushed && model.empty()) break;
      }
    }
  }
}

TEST(SpscRing, PopDataStopsAtEveryNonDataHead) {
  SpscRing ring(16);
  MessageRing model(16);
  auto both_data = [&](std::uint64_t seq) {
    const Value v(static_cast<std::int64_t>(seq));
    model.push(Message::data(seq, v));
    ASSERT_TRUE(ring.try_push(Message::data(seq, v)));
  };
  both_data(0);
  both_data(1);
  ASSERT_EQ(model.push_dummies(2, 3), 3u);  // a dummy run
  ASSERT_EQ(ring.try_push_dummies(2, 3), 3u);
  both_data(5);
  ASSERT_TRUE(model.push_marker(6));  // a marker
  ASSERT_TRUE(ring.try_push_marker(6));
  both_data(6);
  model.push(Message::eos());  // EOS
  ASSERT_TRUE(ring.try_push(Message::eos()));

  expect_same_pop_data(model, ring, 16, "stops at the dummy run");  // 0, 1
  // A partly consumed dummy head still stops a batch.
  ASSERT_EQ(model.pop_dummies(1), 1u);
  ASSERT_EQ(ring.pop_dummies(1), 1u);
  expect_same_pop_data(model, ring, 16, "stops at a partial run");  // none
  model.pop_dummies(2);
  ASSERT_EQ(ring.pop_dummies(2), 2u);
  expect_same_pop_data(model, ring, 16, "stops at the marker");  // 5
  model.pop();
  ring.pop();
  expect_same_pop_data(model, ring, 16, "stops at EOS");  // 6
  const auto head = ring.peek_head();
  ASSERT_TRUE(head.has_value());
  EXPECT_EQ(head->kind, MessageKind::Eos);
  ring.pop();
  Message out;
  EXPECT_EQ(ring.pop_data(&out, 1), 0u);  // empty
}

TEST(SpscRing, PopDataTransitionEffect) {
  // One batch that empties a full ring reports the full -> non-full edge
  // once; a batch from a ring that was not full does not.
  SpscRing ring(3);
  for (std::uint64_t seq = 0; seq < 3; ++seq)
    ASSERT_TRUE(ring.try_push(Message::data(seq, Value(std::int64_t{1}))));
  std::vector<Message> out(3);
  SpscRing::PopEffect fx;
  EXPECT_EQ(ring.pop_data(out.data(), 2, &fx), 2u);
  EXPECT_TRUE(fx.was_full);
  EXPECT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring.pop_data(out.data(), 3, &fx), 1u);
  EXPECT_FALSE(fx.was_full);
  EXPECT_TRUE(ring.empty());
  // The batch publishes: the producer sees all freed slots at once.
  for (std::uint64_t seq = 3; seq < 6; ++seq)
    ASSERT_TRUE(ring.try_push(Message::data(seq, Value(std::int64_t{2}))));
  EXPECT_TRUE(ring.full());
}

// Concurrent: a producer on try_push_batch and try_push_dummies, a
// consumer draining data exclusively through pop_data (dummies through
// pop_dummies) -- every message exactly once, in order, payload intact.
// Named as a hammer so tools/ci.sh --stress reruns it under TSan.
TEST(SpscRingHammer, PopDataConcurrentFifo) {
  constexpr std::uint64_t kTotal = 50000;
  for (const std::size_t capacity : {1u, 2u, 8u, 64u}) {
    SpscRing ring(capacity);
    // Seq s is a dummy iff s % 7 >= 5: runs of two dummies between runs
    // of five data messages.
    auto is_dummy = [](std::uint64_t s) { return s % 7 >= 5; };
    std::thread producer([&] {
      Prng rng(0xDA7A + capacity);
      std::uint64_t seq = 0;
      std::vector<Message> msgs;
      while (seq < kTotal) {
        if (is_dummy(seq)) {
          std::size_t run = 1;
          while (seq + run < kTotal && is_dummy(seq + run)) ++run;
          std::size_t done = 0;
          while (done < run) {
            const std::size_t got =
                ring.try_push_dummies(seq + done, run - done);
            done += got;
            if (got == 0) std::this_thread::yield();
          }
          seq += run;
          continue;
        }
        std::size_t want = 1 + rng.next_below(5);
        msgs.clear();
        for (std::size_t i = 0; i < want && seq + i < kTotal &&
                                !is_dummy(seq + i);
             ++i)
          msgs.push_back(Message::data(
              seq + i, Value(static_cast<std::int64_t>((seq + i) * 3))));
        want = msgs.size();
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
    Prng rng(0x7AD + capacity);
    std::vector<Message> out(capacity + 1);
    std::uint64_t expect_seq = 0;
    while (expect_seq < kTotal) {
      const auto head = ring.peek_head();
      if (!head.has_value()) {
        std::this_thread::yield();  // empty: 1-CPU friendly
        continue;
      }
      ASSERT_EQ(head->seq, expect_seq);
      if (head->kind == MessageKind::Dummy) {
        ASSERT_TRUE(is_dummy(expect_seq));
        expect_seq += ring.pop_dummies(head->run);
        continue;
      }
      const std::size_t max = 1 + rng.next_below(out.size());
      const std::size_t n = ring.pop_data(out.data(), max);
      ASSERT_GE(n, 1u);
      for (std::size_t i = 0; i < n; ++i, ++expect_seq) {
        ASSERT_EQ(out[i].seq, expect_seq);
        ASSERT_EQ(out[i].kind, MessageKind::Data);
        ASSERT_EQ(out[i].payload.as<std::int64_t>(),
                  static_cast<std::int64_t>(expect_seq * 3));
      }
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
