#include <gtest/gtest.h>

#include "src/cs4/decompose.h"
#include "src/cs4/propagation_ladder.h"
#include "src/graph/cycles.h"
#include "src/intervals/baseline.h"
#include "src/support/prng.h"
#include "src/workloads/random_ladder.h"
#include "src/workloads/topologies.h"

namespace sdaf {
namespace {

TEST(Cs4Propagation, Fig4LeftHandComputed) {
  const StreamGraph g = workloads::fig4_left(2);
  const auto a = analyze_cs4(g);
  ASSERT_TRUE(a.is_cs4);
  const auto iv = cs4_propagation_intervals(g, a);
  EXPECT_EQ(iv[0], Rational(2));  // X->a
  EXPECT_EQ(iv[1], Rational(4));  // X->b
  EXPECT_EQ(iv[2], Rational(2));  // a->b (rung)
  EXPECT_EQ(iv[3], Rational(4));  // a->Y
  EXPECT_TRUE(iv[4].is_infinite());
}

TEST(Cs4Propagation, SpFallbackMatchesSetivals) {
  const StreamGraph g = workloads::fig3_cycle();
  const auto a = analyze_cs4(g);
  ASSERT_TRUE(a.pure_sp);
  const auto iv = cs4_propagation_intervals(g, a);
  EXPECT_EQ(iv[0], Rational(6));
  EXPECT_EQ(iv[1], Rational(8));
}

TEST(Cs4NonProp, Fig4LeftHandComputed) {
  const StreamGraph g = workloads::fig4_left(2);
  const auto a = analyze_cs4(g);
  const auto iv = cs4_nonprop_intervals(g, a);
  EXPECT_EQ(iv[0], Rational(1));
  EXPECT_EQ(iv[1], Rational(2));
  EXPECT_EQ(iv[2], Rational(1));
  EXPECT_EQ(iv[3], Rational(2));
  EXPECT_EQ(iv[4], Rational(1));
}

class LadderIntervalProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

// Both CS4 engines must agree with the exponential baseline on random
// ladders (small enough to enumerate full-graph cycles).
TEST_P(LadderIntervalProperty, EnumMatchesExactBaseline) {
  Prng rng(GetParam() * 7 + 3);
  workloads::RandomLadderOptions opt;
  opt.rungs = 1 + GetParam() % 4;
  opt.left_interior = 1 + GetParam() % 3;
  opt.right_interior = 1 + (GetParam() / 2) % 3;
  opt.component_edges = 1 + GetParam() % 2;
  const auto g = workloads::random_ladder(rng, opt);
  const auto a = analyze_cs4(g);
  ASSERT_TRUE(a.is_cs4) << a.reason;

  const auto prop = cs4_propagation_intervals(g, a);
  const auto prop_exact = propagation_intervals_exact(g);
  EXPECT_EQ(prop, prop_exact) << "propagation mismatch";

  const auto np = cs4_nonprop_intervals(g, a);
  const auto np_exact = nonprop_intervals_exact(g);
  EXPECT_EQ(np, np_exact) << "non-propagation mismatch";
}

INSTANTIATE_TEST_SUITE_P(Seeds, LadderIntervalProperty,
                         ::testing::Range<std::uint64_t>(0, 60));

class ChainIntervalProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChainIntervalProperty, Cs4ChainMatchesExactBaseline) {
  Prng rng(GetParam() * 13 + 11);
  workloads::RandomCs4Options opt;
  opt.components = 1 + GetParam() % 3;
  opt.ladder.rungs = 1 + GetParam() % 2;
  opt.sp.target_edges = 6;
  const auto g = workloads::random_cs4_chain(rng, opt);
  const auto a = analyze_cs4(g);
  ASSERT_TRUE(a.is_cs4) << a.reason;
  EXPECT_EQ(cs4_propagation_intervals(g, a), propagation_intervals_exact(g));
  EXPECT_EQ(cs4_nonprop_intervals(g, a), nonprop_intervals_exact(g));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChainIntervalProperty,
                         ::testing::Range<std::uint64_t>(0, 40));

class RecurrenceProperty : public ::testing::TestWithParam<std::uint64_t> {};

// The Section VI.A recurrence is exact: equal to the exponential baseline
// with and without shared rung endpoints.
TEST_P(RecurrenceProperty, NoSharedEndpointsExactMatch) {
  Prng rng(GetParam() * 101 + 1);
  workloads::RandomLadderOptions opt;
  opt.rungs = 1 + GetParam() % 4;
  opt.allow_shared_endpoints = false;
  opt.component_edges = 1 + GetParam() % 3;
  const auto g = workloads::random_ladder(rng, opt);
  const auto a = analyze_cs4(g);
  ASSERT_TRUE(a.is_cs4) << a.reason;
  EXPECT_EQ(cs4_propagation_intervals(g, a), propagation_intervals_exact(g));
}

TEST_P(RecurrenceProperty, SharedEndpointsExactMatch) {
  Prng rng(GetParam() * 103 + 29);
  workloads::RandomLadderOptions opt;
  opt.rungs = 2 + GetParam() % 4;
  opt.left_interior = 1 + GetParam() % 2;  // force sharing
  opt.right_interior = 1 + GetParam() % 2;
  opt.allow_shared_endpoints = true;
  const auto g = workloads::random_ladder(rng, opt);
  const auto a = analyze_cs4(g);
  ASSERT_TRUE(a.is_cs4) << a.reason;
  EXPECT_EQ(cs4_propagation_intervals(g, a), propagation_intervals_exact(g));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecurrenceProperty,
                         ::testing::Range<std::uint64_t>(0, 40));

// Component bounds by direct minimization over the ladder's cycles: for
// each cycle, the component leaving its source on one run is bounded by
// the buffer length of the other run.
std::vector<Rational> bounds_over_cycles(const Skeleton& skel,
                                         const Ladder& ladder) {
  std::vector<Rational> bounds(skel.edges.size(), Rational::infinity());
  for (const UCycle& cycle : ladder_cycles(ladder)) {
    const auto runs = directed_runs(skel.graph, cycle);
    EXPECT_EQ(runs.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
      const EdgeId first = runs[i].edges.front();
      bounds[first] = min(bounds[first], Rational(runs[1 - i].buffer_length));
    }
  }
  return bounds;
}

// Ladders shaped like the wide_ladder benchmark workload (250 rungs, 500
// interior vertices per side, 1,002 nodes), too large for the exponential
// baseline: many rungs share a side vertex, the case where a descent that
// stops at a sibling rung's landing would be tighter than exact.
class WideLadderRecurrence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WideLadderRecurrence, MatchesCycleMinimization) {
  Prng rng(GetParam());
  workloads::RandomLadderOptions opt;
  opt.rungs = 250;
  opt.left_interior = 500;
  opt.right_interior = 500;
  opt.max_buffer = 4;
  const auto g = workloads::random_ladder(rng, opt);
  ASSERT_EQ(g.node_count(), 1002u);
  const auto a = analyze_cs4(g);
  ASSERT_TRUE(a.is_cs4) << a.reason;
  ASSERT_EQ(a.ladders.size(), 1u);
  const Ladder& ladder = a.ladders.front();
  EXPECT_EQ(ladder_component_bounds_recurrence(a.skeleton, ladder),
            bounds_over_cycles(a.skeleton, ladder));
}

INSTANTIATE_TEST_SUITE_P(Seeds, WideLadderRecurrence,
                         ::testing::Values<std::uint64_t>(1, 2, 3));

}  // namespace
}  // namespace sdaf
