#include "tests/harness/verify_intervals.h"

#include <gtest/gtest.h>

#include "src/support/prng.h"
#include "src/workloads/random_ladder.h"
#include "src/workloads/random_sp.h"
#include "src/workloads/topologies.h"

namespace sdaf {
namespace {

using core::Algorithm;

TEST(Verify, CompiledIntervalsAlwaysPass) {
  for (const StreamGraph& g :
       {workloads::fig2_triangle(), workloads::fig3_cycle(),
        workloads::fig4_left(), workloads::fig5_ladder(),
        workloads::butterfly_rewrite()}) {
    for (const auto algo :
         {Algorithm::Propagation, Algorithm::NonPropagation}) {
      core::CompileOptions opt;
      opt.algorithm = algo;
      const auto r = core::compile(g, opt);
      ASSERT_TRUE(r.ok);
      const auto v = core::verify_intervals(g, r.intervals, algo);
      EXPECT_TRUE(v.ok) << "violations: " << v.violations.size();
    }
  }
}

TEST(Verify, LoosenedIntervalFlagged) {
  const StreamGraph g = workloads::fig3_cycle();
  auto r = core::compile(g);
  ASSERT_TRUE(r.ok);
  IntervalMap tampered = r.intervals;
  tampered.set(0, Rational(7));  // exact requirement is 6
  const auto v = core::verify_intervals(g, tampered, Algorithm::Propagation);
  ASSERT_FALSE(v.ok);
  ASSERT_EQ(v.violations.size(), 1u);
  EXPECT_EQ(v.violations[0].edge, 0u);
  EXPECT_EQ(v.violations[0].required, Rational(6));
  EXPECT_EQ(v.violations[0].provided, Rational(7));
}

TEST(Verify, InfiniteOnConstrainedEdgeFlagged) {
  const StreamGraph g = workloads::fig2_triangle();
  IntervalMap silent(g.edge_count());  // all infinite
  const auto v = core::verify_intervals(g, silent, Algorithm::Propagation);
  EXPECT_FALSE(v.ok);
  EXPECT_EQ(v.violations.size(), 2u);  // both of A's out-edges
}

TEST(Verify, TighterThanRequiredIsFine) {
  const StreamGraph g = workloads::fig3_cycle();
  IntervalMap eager(g.edge_count());
  for (EdgeId e = 0; e < g.edge_count(); ++e) eager.set(e, Rational(1));
  EXPECT_TRUE(
      core::verify_intervals(g, eager, Algorithm::Propagation).ok);
  EXPECT_TRUE(
      core::verify_intervals(g, eager, Algorithm::NonPropagation).ok);
}

TEST(Verify, NonPropStricterThanProp) {
  // Propagation intervals on interior edges are infinite and must fail a
  // Non-Propagation audit (which requires every cycle edge scheduled).
  const StreamGraph g = workloads::fig3_cycle();
  const auto prop = core::compile(g);
  const auto v = core::verify_intervals(g, prop.intervals,
                                        Algorithm::NonPropagation);
  EXPECT_FALSE(v.ok);
}

class VerifyProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VerifyProperty, CompileThenVerifyRoundTrip) {
  Prng rng(GetParam() * 67 + 5);
  workloads::RandomCs4Options opt;
  opt.components = 1 + GetParam() % 3;
  opt.ladder.rungs = 1 + GetParam() % 2;
  const auto g = workloads::random_cs4_chain(rng, opt);
  for (const auto algo :
       {Algorithm::Propagation, Algorithm::NonPropagation}) {
    core::CompileOptions copt;
    copt.algorithm = algo;
    const auto r = core::compile(g, copt);
    ASSERT_TRUE(r.ok);
    EXPECT_TRUE(core::verify_intervals(g, r.intervals, algo).ok);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VerifyProperty,
                         ::testing::Range<std::uint64_t>(0, 20));

}  // namespace
}  // namespace sdaf
