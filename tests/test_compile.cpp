#include "src/core/compile.h"

#include <gtest/gtest.h>

#include "src/core/report.h"
#include "src/graph/cycles.h"
#include "src/graph/io.h"
#include "src/intervals/baseline.h"
#include "src/support/prng.h"
#include "src/workloads/random_ladder.h"
#include "src/workloads/topologies.h"

namespace sdaf {
namespace {

using core::Algorithm;
using core::Classification;
using core::CompileOptions;
using core::GeneralPolicy;
using core::kNoDummyInterval;
using core::Rounding;

TEST(Compile, ClassifiesSpDag) {
  const auto r = core::compile(workloads::fig3_cycle());
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.classification, Classification::SpDag);
  EXPECT_EQ(r.intervals[0], Rational(6));
  EXPECT_EQ(r.intervals[1], Rational(8));
}

TEST(Compile, ClassifiesCs4Chain) {
  const auto r = core::compile(workloads::fig4_left());
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.classification, Classification::Cs4Chain);
}

TEST(Compile, GeneralFallbackMatchesBaseline) {
  const StreamGraph g = workloads::fig4_butterfly(3);
  const auto r = core::compile(g);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.classification, Classification::GeneralDag);
  EXPECT_EQ(r.intervals, propagation_intervals_exact(g));
}

TEST(Compile, RejectPolicyRefusesButterfly) {
  CompileOptions opt;
  opt.general_policy = GeneralPolicy::Reject;
  const auto r = core::compile(workloads::fig4_butterfly(), opt);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.classification, Classification::GeneralDag);
  EXPECT_NE(r.diagnostics.find("rejected"), std::string::npos);
}

TEST(Compile, RejectsNonTwoTerminal) {
  StreamGraph g;
  const NodeId a = g.add_node();
  const NodeId b = g.add_node();
  const NodeId c = g.add_node();
  g.add_edge(a, b, 1);
  g.add_edge(a, c, 1);  // two sinks
  const auto r = core::compile(g);
  EXPECT_FALSE(r.ok);
}

TEST(Compile, NonPropagationAlgorithmSelectable) {
  CompileOptions opt;
  opt.algorithm = Algorithm::NonPropagation;
  const auto r = core::compile(workloads::fig3_cycle(), opt);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.intervals[1], Rational(8, 3));
}

TEST(Compile, IntegerIntervalsPaperCeil) {
  CompileOptions opt;
  opt.algorithm = Algorithm::NonPropagation;
  const auto r = core::compile(workloads::fig3_cycle(), opt);
  const auto ints = r.integer_intervals(Rounding::PaperCeil);
  EXPECT_EQ(ints[0], 2);  // 6/3
  EXPECT_EQ(ints[1], 3);  // ceil(8/3), the paper's roundup
  EXPECT_EQ(ints[2], 2);
}

TEST(Compile, IntegerIntervalsFloorClampsToOne) {
  // A ratio below 1 floors to 0; the materialization clamps to 1 (a node
  // cannot send dummies more often than once per sequence number).
  StreamGraph g;
  const NodeId a = g.add_node();
  const NodeId b = g.add_node();
  const NodeId c = g.add_node();
  g.add_edge(a, b, 1);
  g.add_edge(b, c, 1);
  g.add_edge(a, c, 1);  // nonprop [ab] = 1/2
  CompileOptions opt;
  opt.algorithm = Algorithm::NonPropagation;
  const auto r = core::compile(g, opt);
  EXPECT_EQ(r.intervals[0], Rational(1, 2));
  const auto ints = r.integer_intervals(Rounding::Floor);
  EXPECT_EQ(ints[0], 1);
}

TEST(Compile, InfiniteIntervalsMarked) {
  const auto r = core::compile(workloads::pipeline(4));
  const auto ints = r.integer_intervals(Rounding::PaperCeil);
  for (const auto v : ints) EXPECT_EQ(v, kNoDummyInterval);
}

TEST(Compile, OnCycleFlags) {
  const auto r = core::compile(workloads::fig2_triangle());
  EXPECT_EQ(r.on_cycle, (std::vector<std::uint8_t>{1, 1, 1}));
  const auto p = core::compile(workloads::pipeline(4));
  EXPECT_EQ(p.on_cycle, (std::vector<std::uint8_t>{0, 0, 0}));
}

TEST(Compile, ForwardSetFig3) {
  // Fig. 3: only a's out-edges keep schedules; the four interior edges of
  // the cycle are continuation edges.
  const auto r = core::compile(workloads::fig3_cycle());
  EXPECT_EQ(r.forward_on_filter(),
            (std::vector<std::uint8_t>{0, 0, 1, 1, 1, 1}));
}

TEST(Compile, ForwardSetTriangle) {
  // Edge order: 0 = A->B, 1 = B->C, 2 = A->C. A's out-edges keep their
  // schedules (every cycle through them starts at A); B->C continues the
  // A->B->C run.
  const auto r = core::compile(workloads::fig2_triangle());
  EXPECT_EQ(r.forward_on_filter(), (std::vector<std::uint8_t>{0, 1, 0}));
  EXPECT_TRUE(r.intervals[0].is_finite());
  EXPECT_TRUE(r.intervals[1].is_infinite());  // BC: forwarded, not scheduled
  EXPECT_TRUE(r.intervals[2].is_finite());
}

TEST(Compile, ForwardSetPipelineEmpty) {
  const auto r = core::compile(workloads::pipeline(5));
  for (const auto f : r.forward_on_filter()) EXPECT_EQ(f, 0);
}

TEST(Compile, ForwardSetChainedRungs) {
  // Fig. 4 left: the rung a->b continues the cycle X-a-b (first edge X->a),
  // and a->Y continues X-a-Y; only X's out-edges stay scheduled-only...
  // a->b is also *first* on the cycle a-b-Y it sources, but continuation on
  // X-a-b wins.
  const auto r = core::compile(workloads::fig4_left());
  const auto fwd = r.forward_on_filter();
  EXPECT_EQ(fwd[0], 0);  // X->a: every cycle through it starts at X
  EXPECT_EQ(fwd[1], 0);  // X->b
  EXPECT_EQ(fwd[2], 1);  // a->b: continuation of cycle X-a-b
  EXPECT_EQ(fwd[3], 1);  // a->Y: continuation of cycle X-a-Y-b
  EXPECT_EQ(fwd[4], 1);  // b->Y
}

TEST(Compile, ForwardSetAgreesWithGeneralFallbackOnCs4Graphs) {
  // The CS4 layout rule must mark exactly the edges that continue some
  // directed run of some enumerated cycle, under either algorithm, on the
  // paper's figures, random shared-endpoint ladders and random CS4 chains.
  std::vector<StreamGraph> graphs{
      workloads::fig2_triangle(), workloads::fig3_cycle(),
      workloads::fig4_left(), workloads::butterfly_rewrite(),
      workloads::fig5_ladder()};
  Prng rng(2027);
  for (std::size_t i = 0; i < 40; ++i) {
    workloads::RandomLadderOptions lopt;
    lopt.rungs = 1 + i % 5;
    lopt.left_interior = 1 + i % 3;
    lopt.right_interior = 1 + (i / 3) % 3;
    lopt.component_edges = 1 + i % 3;
    lopt.allow_shared_endpoints = true;
    graphs.push_back(workloads::random_ladder(rng, lopt));
    workloads::RandomCs4Options copt;
    copt.components = 1 + i % 3;
    copt.ladder.rungs = 1 + i % 3;
    copt.sp.target_edges = 5;
    graphs.push_back(workloads::random_cs4_chain(rng, copt));
  }
  for (const StreamGraph& g : graphs) {
    const auto enumeration = enumerate_undirected_cycles(g);
    ASSERT_FALSE(enumeration.truncated);
    std::vector<std::uint8_t> expect(g.edge_count(), 0);
    for (const auto& cycle : enumeration.cycles)
      for (const auto& run : directed_runs(g, cycle))
        for (std::size_t k = 1; k < run.edges.size(); ++k)
          expect[run.edges[k]] = 1;
    for (const Algorithm algorithm :
         {Algorithm::Propagation, Algorithm::NonPropagation}) {
      CompileOptions opt;
      opt.algorithm = algorithm;
      const auto cs4 = core::compile(g, opt);
      ASSERT_TRUE(cs4.ok);
      ASSERT_NE(cs4.classification, Classification::GeneralDag);
      EXPECT_EQ(cs4.forward_on_filter(), expect) << to_text(g);
    }
  }
}

TEST(Compile, TooManyCyclesRejectedNotAborted) {
  // The complete DAG on 11 nodes is not CS4 and has millions of undirected
  // cycles; past the cycle limit the exponential fallback reports failure
  // instead of tripping a contract.
  StreamGraph g;
  for (int i = 0; i < 11; ++i) g.add_node();
  for (NodeId a = 0; a < 11; ++a)
    for (NodeId b = a + 1; b < 11; ++b) g.add_edge(a, b, 1);
  CompileOptions opt;
  opt.cycle_limit = 1000;
  const auto r = core::compile(g, opt);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.classification, Classification::GeneralDag);
  EXPECT_NE(r.diagnostics.find("1000 undirected cycles"), std::string::npos)
      << r.diagnostics;
}

TEST(Report, DescribesCompile) {
  const StreamGraph g = workloads::fig2_triangle();
  const auto r = core::compile(g);
  const std::string text = core::describe(g, r);
  EXPECT_NE(text.find("SP-DAG"), std::string::npos);
  EXPECT_NE(text.find("A -> B"), std::string::npos);
  EXPECT_NE(text.find("dummy-sending nodes (1): A"), std::string::npos);
}

TEST(Report, DescribesRejection) {
  CompileOptions opt;
  opt.general_policy = GeneralPolicy::Reject;
  const StreamGraph g = workloads::fig4_butterfly();
  const auto r = core::compile(g, opt);
  const std::string text = core::describe(g, r);
  EXPECT_NE(text.find("rejected"), std::string::npos);
}

}  // namespace
}  // namespace sdaf
