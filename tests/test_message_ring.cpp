// Unit tests for the coalescing ring (the executable specification
// runtime::SpscRing is model-checked against) and for Value's inline
// small-object storage.
#include "tests/harness/message_ring.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace sdaf::runtime {
namespace {

using harness::MessageRing;

TEST(Value, InlineSmallValuesRoundTrip) {
  const Value a(std::int64_t{-7});
  EXPECT_TRUE(a.has_value());
  EXPECT_EQ(a.as<std::int64_t>(), -7);
  const Value b(3.5);
  EXPECT_EQ(b.as<double>(), 3.5);
  struct Pair {
    std::uint64_t x, y;
  };
  const Value c(Pair{1, 2});
  EXPECT_EQ(c.as<Pair>().y, 2u);
}

TEST(Value, HeapFallbackForLargeOrNonTrivialTypes) {
  const Value v(std::string("a long enough string to defeat any SSO here"));
  EXPECT_EQ(v.as<std::string>().substr(0, 6), "a long");
  const Value w(std::vector<int>{1, 2, 3});
  Value copy = w;  // deep copy
  EXPECT_EQ(copy.as<std::vector<int>>().size(), 3u);
  Value moved = std::move(copy);  // steals the heap pointer
  EXPECT_EQ(moved.as<std::vector<int>>()[2], 3);
  EXPECT_FALSE(copy.has_value());  // NOLINT(bugprone-use-after-move)
}

TEST(Value, TypeMismatchThrows) {
  const Value v(std::int64_t{1});
  EXPECT_THROW((void)v.as<double>(), std::bad_cast);
  const Value empty;
  EXPECT_THROW((void)empty.as<std::int64_t>(), std::bad_cast);
}

TEST(Value, MoveLeavesSourceEmpty) {
  Value v(std::int64_t{9});
  Value w = std::move(v);
  EXPECT_FALSE(v.has_value());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(w.as<std::int64_t>(), 9);
}

TEST(MessageRing, PushPopRoundTripMixedKinds) {
  MessageRing ring(4);
  ring.push(Message::data(0, Value(std::int64_t{5})));
  ring.push(Message::dummy(1));
  ring.push(Message::eos());
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.head().kind, MessageKind::Data);
  const Message d = ring.pop_head();
  EXPECT_EQ(d.payload.as<std::int64_t>(), 5);
  EXPECT_EQ(ring.head().kind, MessageKind::Dummy);
  ring.pop();
  EXPECT_EQ(ring.head().kind, MessageKind::Eos);
  ring.pop();
  EXPECT_TRUE(ring.empty());
}

TEST(MessageRing, CoalescesConsecutiveDummies) {
  MessageRing ring(8);
  for (std::uint64_t s = 3; s < 8; ++s) ring.push(Message::dummy(s));
  EXPECT_EQ(ring.size(), 5u);
  EXPECT_EQ(ring.head().run, 5u);
  EXPECT_EQ(ring.pop_dummies(5), 5u);
  EXPECT_TRUE(ring.empty());
}

TEST(MessageRing, RunSplitAcrossGapsAndData) {
  MessageRing ring(8);
  ring.push(Message::dummy(0));
  ring.push(Message::dummy(2));  // gap
  ring.push(Message::data(3, Value(1)));
  ring.push(Message::dummy(4));
  EXPECT_EQ(ring.head().run, 1u);
  EXPECT_EQ(ring.pop_dummies(8), 1u);  // never crosses a segment
  EXPECT_EQ(ring.head().seq, 2u);
  EXPECT_EQ(ring.pop_dummies(8), 1u);
  EXPECT_EQ(ring.head().kind, MessageKind::Data);
  EXPECT_EQ(ring.pop_dummies(8), 0u);  // head is not a dummy
}

TEST(MessageRing, BatchPushRespectsCapacity) {
  MessageRing ring(4);
  EXPECT_EQ(ring.push_dummies(0, 10), 4u);
  EXPECT_TRUE(ring.full());
  EXPECT_EQ(ring.push_dummies(4, 1), 0u);
  EXPECT_EQ(ring.pop_dummies(3), 3u);
  EXPECT_EQ(ring.push_dummies(4, 10), 3u);  // extends the surviving run
  EXPECT_EQ(ring.head().seq, 3u);
  EXPECT_EQ(ring.head().run, 4u);
}

TEST(MessageRing, WrapAroundReusesSegments) {
  // Capacity-3 ring cycled many times: the segment ring wraps cleanly and
  // never allocates; interleave data and runs to exercise both segment
  // shapes.
  MessageRing ring(3);
  std::uint64_t seq = 0;
  for (int round = 0; round < 50; ++round) {
    ring.push(Message::data(seq, Value(static_cast<std::int64_t>(seq))));
    ++seq;
    const std::size_t accepted = ring.push_dummies(seq, 2);
    EXPECT_EQ(accepted, 2u);
    seq += 2;
    const Message d = ring.pop_head();
    EXPECT_EQ(d.kind, MessageKind::Data);
    EXPECT_EQ(static_cast<std::uint64_t>(d.payload.as<std::int64_t>()),
              d.seq);
    EXPECT_EQ(ring.pop_dummies(2), 2u);
    EXPECT_TRUE(ring.empty());
  }
}

TEST(MessageRing, TailMessageReportsEndOfRun) {
  MessageRing ring(6);
  ring.push(Message::data(0, Value(1)));
  EXPECT_EQ(ring.push_dummies(1, 3), 3u);
  EXPECT_EQ(ring.tail_message().seq, 3u);  // last dummy of the run
  EXPECT_EQ(ring.head_message().seq, 0u);
}

TEST(MessageRing, MarkerIsOccupancyNeutral) {
  // A snapshot marker must fit into a *logically full* ring (it rides the
  // extra physical segment) and must never perturb the certified occupancy
  // the deadlock certification reasons about.
  MessageRing ring(2);
  ring.push(Message::data(0, Value(std::int64_t{10})));
  ring.push(Message::data(1, Value(std::int64_t{11})));
  EXPECT_TRUE(ring.full());
  EXPECT_TRUE(ring.push_marker(2));
  EXPECT_EQ(ring.size(), 2u);  // marker excluded from logical occupancy
  EXPECT_TRUE(ring.full());
  EXPECT_EQ(ring.free_space(), 0u);
  ring.pop();
  ring.pop();
  // Logically empty, but the in-flight marker is still pending work.
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_FALSE(ring.empty());
  EXPECT_EQ(ring.head().kind, MessageKind::Marker);
  EXPECT_EQ(ring.head().seq, 2u);
  ring.pop();
  EXPECT_TRUE(ring.empty());
}

TEST(MessageRing, MarkerTerminatesDummyRunAndNeverCoalesces) {
  MessageRing ring(8);
  EXPECT_EQ(ring.push_dummies(0, 3), 3u);
  EXPECT_TRUE(ring.push_marker(3));
  ring.push(Message::dummy(3));  // consecutive seq, but behind the barrier
  EXPECT_EQ(ring.size(), 4u);    // 3 + 1 dummies; marker excluded
  EXPECT_EQ(ring.head().run, 3u);
  EXPECT_EQ(ring.pop_dummies(8), 3u);  // stops at the marker
  EXPECT_EQ(ring.head().kind, MessageKind::Marker);
  ring.pop();
  EXPECT_EQ(ring.head().kind, MessageKind::Dummy);
  EXPECT_EQ(ring.head().run, 1u);  // the post-barrier run did not coalesce
  ring.pop();
  EXPECT_TRUE(ring.empty());
}

}  // namespace
}  // namespace sdaf::runtime
