#include "src/cs4/ladder.h"

#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "src/support/prng.h"
#include "src/workloads/random_ladder.h"
#include "src/workloads/topologies.h"

namespace sdaf {
namespace {

LadderRecognition recognize_whole(const StreamGraph& g) {
  const Skeleton s =
      extract_skeleton(g, g.unique_source(), g.unique_sink());
  std::vector<std::size_t> all(s.edges.size());
  std::iota(all.begin(), all.end(), 0u);
  return recognize_ladder(s, all, s.to_skel[g.unique_source()],
                          s.to_skel[g.unique_sink()]);
}

TEST(Ladder, RecognizesFig4Left) {
  const auto rec = recognize_whole(workloads::fig4_left(2));
  ASSERT_TRUE(rec.ladder.has_value()) << rec.reason;
  const Ladder& l = *rec.ladder;
  EXPECT_EQ(l.rungs.size(), 1u);
  EXPECT_TRUE(l.rungs[0].left_to_right ||
              !l.rungs[0].left_to_right);  // direction is side-naming relative
  EXPECT_EQ(l.left.size() + l.right.size(), 6u);  // 3 + 3 (X,interior,Y)
  EXPECT_EQ(ladder_cycles(l).size(), 3u);
}

TEST(Ladder, RecognizesFig5) {
  const auto rec = recognize_whole(workloads::fig5_ladder());
  ASSERT_TRUE(rec.ladder.has_value()) << rec.reason;
  EXPECT_EQ(rec.ladder->rungs.size(), 2u);
}

TEST(Ladder, RecognizesButterflyRewrite) {
  const Skeleton s = [&] {
    const auto g = workloads::butterfly_rewrite(2);
    return extract_skeleton(g, g.unique_source(), g.unique_sink());
  }();
  std::vector<std::size_t> all(s.edges.size());
  std::iota(all.begin(), all.end(), 0u);
  // The rewrite is one ladder block spanning the whole skeleton.
  const auto g = workloads::butterfly_rewrite(2);
  const auto rec = recognize_ladder(
      s, all, s.to_skel[g.unique_source()], s.to_skel[g.unique_sink()]);
  ASSERT_TRUE(rec.ladder.has_value()) << rec.reason;
  EXPECT_EQ(rec.ladder->rungs.size(), 2u);  // a->d and d->c
}

TEST(Ladder, RejectsButterfly) {
  const auto rec = recognize_whole(workloads::fig4_butterfly(2));
  EXPECT_FALSE(rec.ladder.has_value());
  EXPECT_NE(rec.reason.find("not CS4"), std::string::npos);
}

TEST(Ladder, RejectsCrossingRungs) {
  // Sides X-u1-u2-Y and X-v1-v2-Y with rungs u1->v2 and u2->v1: crossing.
  StreamGraph g;
  const NodeId x = g.add_node("X");
  const NodeId u1 = g.add_node("u1");
  const NodeId u2 = g.add_node("u2");
  const NodeId v1 = g.add_node("v1");
  const NodeId v2 = g.add_node("v2");
  const NodeId y = g.add_node("Y");
  g.add_edge(x, u1, 1);
  g.add_edge(u1, u2, 1);
  g.add_edge(u2, y, 1);
  g.add_edge(x, v1, 1);
  g.add_edge(v1, v2, 1);
  g.add_edge(v2, y, 1);
  g.add_edge(u1, v2, 1);
  g.add_edge(u2, v1, 1);
  const auto rec = recognize_whole(g);
  EXPECT_FALSE(rec.ladder.has_value());
}

TEST(Ladder, AcceptsSharedEndpointRungs) {
  // Two rungs out of the same left vertex (Fig 6's u_i = u_{i+1} case).
  StreamGraph g;
  const NodeId x = g.add_node("X");
  const NodeId u1 = g.add_node("u1");
  const NodeId v1 = g.add_node("v1");
  const NodeId v2 = g.add_node("v2");
  const NodeId y = g.add_node("Y");
  g.add_edge(x, u1, 1);
  g.add_edge(u1, y, 1);
  g.add_edge(x, v1, 2);
  g.add_edge(v1, v2, 3);
  g.add_edge(v2, y, 2);
  g.add_edge(u1, v1, 4);
  g.add_edge(u1, v2, 5);
  const auto rec = recognize_whole(g);
  ASSERT_TRUE(rec.ladder.has_value()) << rec.reason;
  EXPECT_EQ(rec.ladder->rungs.size(), 2u);
  EXPECT_EQ(rec.ladder->rungs[0].left_pos, rec.ladder->rungs[1].left_pos);
}

TEST(Ladder, SegmentsTraceSides) {
  const auto rec = recognize_whole(workloads::fig4_left(2));
  ASSERT_TRUE(rec.ladder.has_value());
  const Ladder& l = *rec.ladder;
  EXPECT_EQ(l.left_seg.size(), l.left.size() - 1);
  EXPECT_EQ(l.right_seg.size(), l.right.size() - 1);
  EXPECT_EQ(l.left.front(), l.entry);
  EXPECT_EQ(l.left.back(), l.exit);
  EXPECT_EQ(l.right.front(), l.entry);
  EXPECT_EQ(l.right.back(), l.exit);
}

// ladder_cycles() *constructs* the ladder's cycles from the rung layout
// instead of enumerating; on small skeletons the construction must agree
// exactly (as canonical edge sets) with generic enumeration over the
// skeleton block.
TEST(Ladder, ConstructedCyclesMatchEnumeration) {
  Prng rng(31337);
  for (int trial = 0; trial < 40; ++trial) {
    workloads::RandomLadderOptions opt;
    opt.rungs = 1 + static_cast<std::size_t>(trial % 4);
    opt.left_interior = 1 + static_cast<std::size_t>(trial % 3);
    opt.right_interior = 1 + static_cast<std::size_t>((trial / 2) % 3);
    opt.component_edges = 1 + static_cast<std::size_t>(trial % 2);
    const auto g = workloads::random_ladder(rng, opt);
    const auto rec = recognize_whole(g);
    ASSERT_TRUE(rec.ladder.has_value()) << rec.reason;

    const Skeleton skel =
        extract_skeleton(g, g.unique_source(), g.unique_sink());
    const auto enumerated = enumerate_undirected_cycles(skel.graph, 1u << 18);
    ASSERT_FALSE(enumerated.truncated);

    const auto canonical = [](const std::vector<UCycle>& cycles) {
      std::set<std::set<EdgeId>> out;
      for (const auto& c : cycles) {
        std::set<EdgeId> ids;
        for (const auto& s : c) ids.insert(s.edge);
        EXPECT_TRUE(out.insert(ids).second) << "duplicate cycle";
      }
      return out;
    };
    EXPECT_EQ(canonical(ladder_cycles(*rec.ladder)),
              canonical(enumerated.cycles))
        << "trial " << trial << " rungs=" << opt.rungs;
  }
}

class LadderProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LadderProperty, RecognizesRandomLadders) {
  Prng rng(GetParam() * 31 + 7);
  for (const std::size_t rungs : {1u, 2u, 3u, 5u}) {
    workloads::RandomLadderOptions opt;
    opt.rungs = rungs;
    opt.left_interior = rungs + 1;
    opt.right_interior = rungs;
    opt.component_edges = 1 + (GetParam() % 3);
    const auto g = workloads::random_ladder(rng, opt);
    const auto rec = recognize_whole(g);
    ASSERT_TRUE(rec.ladder.has_value())
        << rec.reason << " rungs=" << rungs;
    EXPECT_GE(rec.ladder->rungs.size(), 1u);
    EXPECT_LE(rec.ladder->rungs.size(), rungs);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LadderProperty,
                         ::testing::Range<std::uint64_t>(0, 30));

}  // namespace
}  // namespace sdaf
