#include "src/intervals/propagation_sp.h"

#include <gtest/gtest.h>

#include "src/intervals/baseline.h"
#include "src/spdag/recognizer.h"
#include "src/support/prng.h"
#include "src/workloads/random_sp.h"
#include "src/workloads/topologies.h"

namespace sdaf {
namespace {

IntervalMap setivals_for(const StreamGraph& g) {
  const auto rec = recognize_sp(g);
  EXPECT_TRUE(rec.is_sp);
  return propagation_intervals_sp(g, rec.tree);
}

TEST(SetIvals, Fig3MatchesPaper) {
  const auto iv = setivals_for(workloads::fig3_cycle());
  EXPECT_EQ(iv[0], Rational(6));  // [ab]
  EXPECT_EQ(iv[1], Rational(8));  // [ac]
  EXPECT_TRUE(iv[2].is_infinite());
  EXPECT_TRUE(iv[3].is_infinite());
  EXPECT_TRUE(iv[4].is_infinite());
  EXPECT_TRUE(iv[5].is_infinite());
}

TEST(SetIvals, Triangle) {
  const auto iv = setivals_for(workloads::fig2_triangle(2, 3, 5));
  EXPECT_EQ(iv[0], Rational(5));
  EXPECT_TRUE(iv[1].is_infinite());
  EXPECT_EQ(iv[2], Rational(5));
}

TEST(SetIvals, PipelineAllInfinite) {
  EXPECT_TRUE(setivals_for(workloads::pipeline(7)).all_infinite());
}

TEST(SetIvals, SplitJoinSourceEdgesOnly) {
  const StreamGraph g = workloads::fig1_splitjoin(3);
  const auto iv = setivals_for(g);
  // Cycle pairs the two branches: only A's out-edges constrained, by the
  // other branch's total (3+3=6).
  EXPECT_EQ(iv[0], Rational(6));
  EXPECT_EQ(iv[1], Rational(6));
  EXPECT_TRUE(iv[2].is_infinite());
  EXPECT_TRUE(iv[3].is_infinite());
}

TEST(SetIvals, NestedParallelTakesTightest) {
  // parallel(e(10), series(e(1), parallel(e(2), e(3)), e(1))): the inner
  // bundle's edges see both the inner sibling and the outer cycle.
  const auto built = build_sp(SpSpec::parallel(
      {SpSpec::edge(10),
       SpSpec::series({SpSpec::edge(1),
                       SpSpec::parallel({SpSpec::edge(2), SpSpec::edge(3)}),
                       SpSpec::edge(1)})}));
  const auto iv = propagation_intervals_sp(built.graph, built.tree);
  const auto exact = propagation_intervals_exact(built.graph);
  EXPECT_EQ(iv, exact);
}

TEST(SetIvals, MultiEdgeBaseCase) {
  StreamGraph g;
  const NodeId a = g.add_node();
  const NodeId b = g.add_node();
  g.add_edge(a, b, 4);
  g.add_edge(a, b, 6);
  g.add_edge(a, b, 9);
  const auto iv = setivals_for(g);
  // Paper base case: [e] = min buffer among the *other* parallel edges.
  EXPECT_EQ(iv[0], Rational(6));
  EXPECT_EQ(iv[1], Rational(4));
  EXPECT_EQ(iv[2], Rational(4));
}

class PropagationEquivalence
    : public ::testing::TestWithParam<std::uint64_t> {};

// The heart of Section IV.A: SETIVALS (O(|G|)), the naive post-order
// variant (O(|G|^2)) and the exponential cycle enumeration must agree on
// every SP-DAG.
TEST_P(PropagationEquivalence, AllThreeAlgorithmsAgree) {
  Prng rng(GetParam());
  for (const std::size_t edges : {2u, 4u, 8u, 16u, 28u}) {
    workloads::RandomSpOptions opt;
    opt.target_edges = edges;
    opt.max_buffer = 9;
    const auto built = workloads::random_sp(rng, opt);
    const auto fast = propagation_intervals_sp(built.graph, built.tree);
    const auto naive =
        propagation_intervals_sp_naive(built.graph, built.tree);
    const auto exact = propagation_intervals_exact(built.graph);
    EXPECT_EQ(fast, naive) << "SETIVALS vs naive, |E|=" << edges;
    EXPECT_EQ(fast, exact) << "SETIVALS vs exact, |E|=" << edges;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropagationEquivalence,
                         ::testing::Range<std::uint64_t>(0, 40));

// Only nodes with >= 2 outgoing edges on some cycle may need to send
// dummies (the Propagation Algorithm's premise).
TEST(SetIvals, OnlySplitNodesGetFiniteIntervals) {
  Prng rng(404);
  for (int trial = 0; trial < 20; ++trial) {
    workloads::RandomSpOptions opt;
    opt.target_edges = 15;
    const auto built = workloads::random_sp(rng, opt);
    const auto iv = propagation_intervals_sp(built.graph, built.tree);
    for (EdgeId e = 0; e < built.graph.edge_count(); ++e) {
      if (iv[e].is_finite()) {
        EXPECT_GE(built.graph.out_degree(built.graph.edge(e).from), 2u);
      }
    }
  }
}

}  // namespace
}  // namespace sdaf
