#include "src/graph/subgraph.h"

#include <gtest/gtest.h>

#include "src/workloads/topologies.h"

namespace sdaf {
namespace {

TEST(Subgraph, ExtractsEdgeInduced) {
  const StreamGraph g = workloads::fig3_cycle();
  // Take the left side: a->b, b->e, e->f (edge ids 0, 2, 4).
  const Subgraph sub = extract_subgraph(g, {0, 2, 4});
  EXPECT_EQ(sub.graph.edge_count(), 3u);
  EXPECT_EQ(sub.graph.node_count(), 4u);  // a, b, e, f
  EXPECT_EQ(sub.orig_edge, (std::vector<EdgeId>{0, 2, 4}));
  // Buffers preserved.
  EXPECT_EQ(sub.graph.edge(0).buffer, g.edge(0).buffer);
}

TEST(Subgraph, MappingsAreInverse) {
  const StreamGraph g = workloads::fig4_butterfly();
  const Subgraph sub = extract_subgraph(g, {2, 3, 4, 5});
  for (NodeId sn = 0; sn < sub.graph.node_count(); ++sn)
    EXPECT_EQ(sub.to_sub[sub.orig_node[sn]], sn);
  for (NodeId n = 0; n < g.node_count(); ++n)
    if (sub.to_sub[n] != kNoNode) {
      EXPECT_EQ(sub.orig_node[sub.to_sub[n]], n);
    }
}

TEST(Subgraph, PreservesNames) {
  const StreamGraph g = workloads::fig2_triangle();
  const Subgraph sub = extract_subgraph(g, {0});
  EXPECT_EQ(sub.graph.node_name(0), "A");
  EXPECT_EQ(sub.graph.node_name(1), "B");
}

TEST(Subgraph, AbsentNodesMarked) {
  const StreamGraph g = workloads::fig2_triangle();
  const Subgraph sub = extract_subgraph(g, {0});  // A->B only
  EXPECT_EQ(sub.to_sub[2], kNoNode);              // C absent
}

TEST(Subgraph, ParallelEdgesSurvive) {
  StreamGraph g;
  const NodeId a = g.add_node();
  const NodeId b = g.add_node();
  g.add_edge(a, b, 1);
  g.add_edge(a, b, 2);
  const Subgraph sub = extract_subgraph(g, {0, 1});
  EXPECT_EQ(sub.graph.edge_count(), 2u);
  EXPECT_EQ(sub.graph.node_count(), 2u);
}

}  // namespace
}  // namespace sdaf
