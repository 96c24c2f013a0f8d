#include "src/runtime/wrapper.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/support/prng.h"

namespace sdaf::runtime {
namespace {

TEST(Wrapper, NoneModeNeverSends) {
  NodeWrapper w(DummyMode::None, {1, 1});
  for (std::uint64_t s = 0; s < 10; ++s) {
    EXPECT_FALSE(w.should_send_dummy(0, s, false, false));
    EXPECT_FALSE(w.should_send_dummy(1, s, false, true));
  }
}

TEST(Wrapper, SequenceGapFiresAtInterval) {
  NodeWrapper w(DummyMode::NonPropagation, {3});
  // last_sent starts at -1: seq 2 is the first with gap >= 3.
  EXPECT_FALSE(w.should_send_dummy(0, 0, false, false));
  EXPECT_FALSE(w.should_send_dummy(0, 1, false, false));
  EXPECT_TRUE(w.should_send_dummy(0, 2, false, false));
  EXPECT_FALSE(w.should_send_dummy(0, 3, false, false));
  EXPECT_FALSE(w.should_send_dummy(0, 4, false, false));
  EXPECT_TRUE(w.should_send_dummy(0, 5, false, false));
}

TEST(Wrapper, GapCountsSequenceNumbersNotFirings) {
  // The node fires sparsely (arrivals every 4 seqs); with interval 3 the
  // very first sparse firing is already overdue. Counting firings instead
  // would wait three arrivals (12 seqs) -- the decay bug.
  NodeWrapper w(DummyMode::NonPropagation, {3});
  EXPECT_FALSE(w.should_send_dummy(0, 0, true, false));  // data at 0
  EXPECT_TRUE(w.should_send_dummy(0, 4, false, false));  // 4 - 0 >= 3
  EXPECT_TRUE(w.should_send_dummy(0, 8, false, false));  // 8 - 4 >= 3
}

TEST(Wrapper, DataResetsGap) {
  NodeWrapper w(DummyMode::NonPropagation, {3});
  EXPECT_FALSE(w.should_send_dummy(0, 0, true, false));
  EXPECT_FALSE(w.should_send_dummy(0, 1, false, false));
  EXPECT_FALSE(w.should_send_dummy(0, 2, false, false));
  EXPECT_TRUE(w.should_send_dummy(0, 3, false, false));
  EXPECT_FALSE(w.should_send_dummy(0, 4, true, false));
  EXPECT_FALSE(w.should_send_dummy(0, 6, false, false));
  EXPECT_TRUE(w.should_send_dummy(0, 7, false, false));
}

TEST(Wrapper, SlotsIndependent) {
  NodeWrapper w(DummyMode::NonPropagation, {2, 4});
  EXPECT_FALSE(w.should_send_dummy(0, 0, false, false));
  EXPECT_FALSE(w.should_send_dummy(1, 0, false, false));
  EXPECT_TRUE(w.should_send_dummy(0, 1, false, false));   // gap 2 on slot 0
  EXPECT_FALSE(w.should_send_dummy(1, 1, false, false));
  EXPECT_FALSE(w.should_send_dummy(0, 2, false, false));
  EXPECT_FALSE(w.should_send_dummy(1, 2, false, false));
  EXPECT_TRUE(w.should_send_dummy(0, 3, false, false));
  EXPECT_TRUE(w.should_send_dummy(1, 3, false, false));   // gap 4 on slot 1
}

TEST(Wrapper, PropagationForwardsReceivedDummies) {
  NodeWrapper w(DummyMode::Propagation, {kInfiniteInterval});
  // Even with an infinite origination interval, an incoming dummy must be
  // forwarded when no data was sent.
  EXPECT_TRUE(w.should_send_dummy(0, 0, false, true));
  // Data suppresses the forwarded dummy on that edge.
  EXPECT_FALSE(w.should_send_dummy(0, 1, true, true));
}

TEST(Wrapper, PropagationForwardResetsGap) {
  NodeWrapper w(DummyMode::Propagation, {3});
  EXPECT_FALSE(w.should_send_dummy(0, 0, true, false));
  EXPECT_FALSE(w.should_send_dummy(0, 1, false, false));
  EXPECT_TRUE(w.should_send_dummy(0, 2, false, true));  // forced forward
  // The forward counts as traffic on the edge: gap restarts at seq 2.
  EXPECT_FALSE(w.should_send_dummy(0, 3, false, false));
  EXPECT_FALSE(w.should_send_dummy(0, 4, false, false));
  EXPECT_TRUE(w.should_send_dummy(0, 5, false, false));
}

TEST(Wrapper, ForwardOnFilterFlag) {
  // Interior cycle edge: filtered data is converted to a dummy at the same
  // sequence number, regardless of schedule.
  NodeWrapper w(DummyMode::Propagation, {kInfiniteInterval}, {1});
  EXPECT_TRUE(w.should_send_dummy(0, 0, false, false));
  EXPECT_TRUE(w.should_send_dummy(0, 1, false, false));
  EXPECT_FALSE(w.should_send_dummy(0, 2, true, false));
  EXPECT_TRUE(w.should_send_dummy(0, 3, false, false));
}

TEST(Wrapper, ForwardOnFilterIgnoredInNonProp) {
  NodeWrapper w(DummyMode::NonPropagation, {3}, {1});
  EXPECT_FALSE(w.should_send_dummy(0, 0, true, false));
  EXPECT_FALSE(w.should_send_dummy(0, 1, false, false));
  EXPECT_FALSE(w.should_send_dummy(0, 2, false, false));
  EXPECT_TRUE(w.should_send_dummy(0, 3, false, false));  // schedule only
}

TEST(Wrapper, NonPropagationIgnoresReceivedDummies) {
  NodeWrapper w(DummyMode::NonPropagation, {3});
  EXPECT_FALSE(w.should_send_dummy(0, 0, false, true));
  EXPECT_FALSE(w.should_send_dummy(0, 1, false, true));
  EXPECT_TRUE(w.should_send_dummy(0, 2, false, true));  // own schedule
}

TEST(Wrapper, InfiniteIntervalNeverOriginates) {
  NodeWrapper w(DummyMode::NonPropagation, {kInfiniteInterval});
  for (std::uint64_t s = 0; s < 1000; ++s)
    EXPECT_FALSE(w.should_send_dummy(0, s, false, false));
}

TEST(Wrapper, IntervalOneSendsEveryFilteredSeq) {
  NodeWrapper w(DummyMode::Propagation, {1});
  EXPECT_TRUE(w.should_send_dummy(0, 0, false, false));
  EXPECT_TRUE(w.should_send_dummy(0, 1, false, false));
  EXPECT_FALSE(w.should_send_dummy(0, 2, true, false));
  EXPECT_TRUE(w.should_send_dummy(0, 3, false, false));
}

// The run rule against its definition: dummy_run(slot, first, r) must emit
// exactly the seqs r calls of should_send_dummy(slot, seq, false, true)
// accept, and leave the same last_sent(), for every mode, interval (1 and
// infinite included), forward_on_filter flag, starting last_sent, first
// seq and run length -- over several consecutive runs, so the state the
// rule leaves is what the next run starts from.
TEST(Wrapper, DummyRunMatchesPerSeqCalls) {
  Prng rng(0x5EED5);
  for (int trial = 0; trial < 3000; ++trial) {
    const auto mode = static_cast<DummyMode>(rng.next_below(3));
    const std::size_t slots = 1 + rng.next_below(3);
    std::vector<std::int64_t> intervals;
    std::vector<std::uint8_t> forward;
    for (std::size_t s = 0; s < slots; ++s) {
      const std::uint64_t pick = rng.next_below(4);
      intervals.push_back(pick == 0   ? 1
                          : pick == 1 ? kInfiniteInterval
                                      : rng.next_in(2, 40));
      forward.push_back(rng.next_bool(0.5) ? 1 : 0);
    }
    NodeWrapper by_run(mode, intervals, forward);
    NodeWrapper by_seq(mode, intervals, forward);
    std::uint64_t seq = rng.next_below(100);
    std::vector<std::int64_t> start;
    for (std::size_t s = 0; s < slots; ++s)
      start.push_back(rng.next_in(-1, static_cast<std::int64_t>(seq) + 5));
    by_run.restore_last_sent(start);
    by_seq.restore_last_sent(start);
    for (int run = 0; run < 4; ++run) {
      seq += rng.next_below(8);  // gaps: seqs the node never saw
      const std::uint64_t r =
          1 + rng.next_below(rng.next_bool(0.2) ? 500 : 20);
      for (std::size_t s = 0; s < slots; ++s) {
        const std::string label = "trial=" + std::to_string(trial) +
                                  " run=" + std::to_string(run) +
                                  " slot=" + std::to_string(s);
        std::vector<std::uint64_t> expected;
        for (std::uint64_t q = seq; q < seq + r; ++q)
          if (by_seq.should_send_dummy(s, q, false, true))
            expected.push_back(q);
        const NodeWrapper::DummyRun got = by_run.dummy_run(s, seq, r);
        std::vector<std::uint64_t> actual;
        for (std::uint64_t i = 0; i < got.count; ++i)
          actual.push_back(got.first + i * got.stride);
        ASSERT_EQ(expected, actual) << label;
        ASSERT_EQ(by_seq.last_sent(), by_run.last_sent()) << label;
      }
      seq += r;
    }
  }
}

TEST(Wrapper, DummyRunShapes) {
  NodeWrapper prop(DummyMode::Propagation, {kInfiniteInterval});
  const auto all = prop.dummy_run(0, 10, 5);
  EXPECT_EQ(all.first, 10u);
  EXPECT_EQ(all.count, 5u);
  EXPECT_EQ(all.stride, 1u);
  EXPECT_EQ(prop.last_sent()[0], 14);
  NodeWrapper nonprop(DummyMode::NonPropagation, {4});
  const auto sparse = nonprop.dummy_run(0, 0, 10);  // last_sent -1: 3, 7
  EXPECT_EQ(sparse.first, 3u);
  EXPECT_EQ(sparse.count, 2u);
  EXPECT_EQ(sparse.stride, 4u);
  EXPECT_EQ(nonprop.last_sent()[0], 7);
  NodeWrapper none(DummyMode::None, {1});
  EXPECT_EQ(none.dummy_run(0, 0, 100).count, 0u);
  EXPECT_EQ(none.last_sent()[0], -1);
}

TEST(WrapperDeathTest, RejectsNonPositiveInterval) {
  EXPECT_DEATH(NodeWrapper(DummyMode::Propagation, {0}), "precondition");
}

}  // namespace
}  // namespace sdaf::runtime
