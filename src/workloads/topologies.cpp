#include "src/workloads/topologies.h"

#include "src/support/contracts.h"

namespace sdaf::workloads {

StreamGraph fig1_splitjoin(std::int64_t buffer) {
  StreamGraph g;
  const NodeId a = g.add_node("A");
  const NodeId b = g.add_node("B");
  const NodeId c = g.add_node("C");
  const NodeId d = g.add_node("D");
  g.add_edge(a, b, buffer);
  g.add_edge(a, c, buffer);
  g.add_edge(b, d, buffer);
  g.add_edge(c, d, buffer);
  return g;
}

StreamGraph fig2_triangle(std::int64_t ab, std::int64_t bc, std::int64_t ac) {
  StreamGraph g;
  const NodeId a = g.add_node("A");
  const NodeId b = g.add_node("B");
  const NodeId c = g.add_node("C");
  g.add_edge(a, b, ab);
  g.add_edge(b, c, bc);
  g.add_edge(a, c, ac);
  return g;
}

StreamGraph fig3_cycle() {
  StreamGraph g;
  const NodeId a = g.add_node("a");
  const NodeId b = g.add_node("b");
  const NodeId c = g.add_node("c");
  const NodeId d = g.add_node("d");
  const NodeId e = g.add_node("e");
  const NodeId f = g.add_node("f");
  g.add_edge(a, b, 2);  // [ab]
  g.add_edge(a, c, 3);  // [ac]
  g.add_edge(b, e, 5);  // [be]
  g.add_edge(c, d, 1);  // [cd]
  g.add_edge(e, f, 1);  // [ef]
  g.add_edge(d, f, 2);  // [df]
  return g;
}

StreamGraph fig4_left(std::int64_t buffer) {
  StreamGraph g;
  const NodeId x = g.add_node("X");
  const NodeId a = g.add_node("a");
  const NodeId b = g.add_node("b");
  const NodeId y = g.add_node("Y");
  g.add_edge(x, a, buffer);
  g.add_edge(x, b, buffer);
  g.add_edge(a, b, buffer);  // the cross-channel that breaks SP-ness
  g.add_edge(a, y, buffer);
  g.add_edge(b, y, buffer);
  return g;
}

StreamGraph fig4_butterfly(std::int64_t buffer) {
  StreamGraph g;
  const NodeId x = g.add_node("X");
  const NodeId a = g.add_node("a");
  const NodeId b = g.add_node("b");
  const NodeId aa = g.add_node("A");
  const NodeId bb = g.add_node("B");
  const NodeId y = g.add_node("Y");
  g.add_edge(x, a, buffer);
  g.add_edge(x, b, buffer);
  g.add_edge(a, aa, buffer);
  g.add_edge(a, bb, buffer);
  g.add_edge(b, aa, buffer);
  g.add_edge(b, bb, buffer);
  g.add_edge(aa, y, buffer);
  g.add_edge(bb, y, buffer);
  return g;
}

StreamGraph butterfly_rewrite(std::int64_t buffer) {
  // Section VII: "the butterfly can be replaced by an SP-ladder with
  // cross-links a-d and d-c, provided that data to be sent from b to c is
  // routed via an extra hop through d". Corners: a, b feed c, d.
  StreamGraph g;
  const NodeId x = g.add_node("X");
  const NodeId a = g.add_node("a");
  const NodeId b = g.add_node("b");
  const NodeId c = g.add_node("c");
  const NodeId d = g.add_node("d");
  const NodeId y = g.add_node("Y");
  g.add_edge(x, a, buffer);
  g.add_edge(x, b, buffer);
  g.add_edge(a, c, buffer);  // a -> c direct (left side)
  g.add_edge(b, d, buffer);  // b -> d direct (right side)
  g.add_edge(a, d, buffer);  // cross-link a -> d
  g.add_edge(d, c, buffer);  // cross-link d -> c (carries the b->c traffic)
  g.add_edge(c, y, buffer);
  g.add_edge(d, y, buffer);
  return g;
}

StreamGraph pipeline(std::size_t stages, std::int64_t buffer) {
  SDAF_EXPECTS(stages >= 2);
  StreamGraph g;
  std::vector<NodeId> nodes;
  for (std::size_t i = 0; i < stages; ++i)
    nodes.push_back(g.add_node(std::string("s").append(std::to_string(i))));
  for (std::size_t i = 0; i + 1 < stages; ++i)
    g.add_edge(nodes[i], nodes[i + 1], buffer);
  return g;
}

StreamGraph splitjoin(std::size_t width, std::size_t depth,
                      std::int64_t buffer) {
  SDAF_EXPECTS(width >= 1);
  SDAF_EXPECTS(depth >= 1);
  StreamGraph g;
  const NodeId split = g.add_node("split");
  const NodeId join = g.add_node("join");
  for (std::size_t w = 0; w < width; ++w) {
    NodeId prev = split;
    for (std::size_t d = 0; d < depth; ++d) {
      const NodeId stage = g.add_node(std::string("b")
                                          .append(std::to_string(w))
                                          .append("_")
                                          .append(std::to_string(d)));
      g.add_edge(prev, stage, buffer);
      prev = stage;
    }
    g.add_edge(prev, join, buffer);
  }
  return g;
}

StreamGraph fig5_ladder(std::int64_t buffer) {
  // Fig. 5's simplified ladder: sides a->b->f->m and a->j->m with
  // cross-link b->j; each drawn edge stands for an SP component, here a
  // single channel.
  StreamGraph g;
  const NodeId a = g.add_node("a");
  const NodeId b = g.add_node("b");
  const NodeId f = g.add_node("f");
  const NodeId j = g.add_node("j");
  const NodeId k = g.add_node("k");
  const NodeId m = g.add_node("m");
  g.add_edge(a, b, buffer);
  g.add_edge(b, f, buffer);
  g.add_edge(f, m, buffer);
  g.add_edge(a, j, buffer);
  g.add_edge(j, k, buffer);
  g.add_edge(k, m, buffer);
  g.add_edge(b, j, buffer);  // cross-link
  g.add_edge(f, k, buffer);  // second cross-link
  return g;
}

StreamGraph continuation_ladder(std::size_t relays, std::int64_t fat,
                                std::int64_t tight) {
  StreamGraph g;
  const NodeId u = g.add_node("u");
  const NodeId a = g.add_node("a");
  g.add_edge(u, a, fat);
  NodeId prev = a;
  for (std::size_t i = 0; i < relays; ++i) {
    const NodeId r = g.add_node(std::string("r").append(std::to_string(i)));
    g.add_edge(prev, r, fat);
    prev = r;
  }
  const NodeId b = g.add_node("b");
  g.add_edge(prev, b, fat);
  g.add_edge(u, b, tight);
  return g;
}

}  // namespace sdaf::workloads
