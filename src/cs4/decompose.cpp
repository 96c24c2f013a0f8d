#include "src/cs4/decompose.h"

#include "src/cs4/nonprop_ladder.h"
#include "src/cs4/propagation_ladder.h"
#include "src/graph/undirected.h"
#include "src/graph/validate.h"
#include "src/intervals/nonprop_sp.h"
#include "src/intervals/propagation_sp.h"
#include "src/support/contracts.h"

namespace sdaf {

Cs4Analysis analyze_cs4(const StreamGraph& g) {
  Cs4Analysis out;
  const auto report = validate(g);
  out.two_terminal = report.two_terminal();
  if (!out.two_terminal) {
    out.reason = "not a two-terminal DAG:";
    for (const auto& p : report.problems) out.reason += " " + p + ";";
    return out;
  }

  out.skeleton = extract_skeleton(g, g.unique_source(), g.unique_sink());
  if (out.skeleton.is_single_sp()) {
    out.pure_sp = true;
    out.is_cs4 = true;
    out.bridge_edges.push_back(0);
    return out;
  }

  // Biconnected blocks of the skeleton are the serial-chain components:
  // single-edge blocks are contracted SP components (bridges), multi-edge
  // blocks must be SP-ladder skeletons. A block's terminals are the unique
  // vertices with no in-edge / out-edge inside it; degrees are counted in
  // id-indexed arrays reset per block.
  const auto blocks = biconnected_components(out.skeleton.graph);
  const std::size_t n = out.skeleton.graph.node_count();
  std::vector<std::uint32_t> in_deg(n, 0), out_deg(n, 0);
  std::vector<NodeId> touched;
  for (const auto& block : blocks) {
    if (block.size() == 1) {
      out.bridge_edges.push_back(block.front());
      continue;
    }
    std::vector<std::size_t> indices(block.begin(), block.end());
    std::vector<NodeId> entries;
    std::vector<NodeId> exits;
    touched.clear();
    for (const EdgeId e : block) {
      const auto& ed = out.skeleton.graph.edge(e);
      for (const NodeId v : {ed.from, ed.to})
        if (in_deg[v] == 0 && out_deg[v] == 0) touched.push_back(v);
      ++out_deg[ed.from];
      ++in_deg[ed.to];
    }
    for (const NodeId v : touched) {
      if (in_deg[v] == 0) entries.push_back(v);
      if (out_deg[v] == 0) exits.push_back(v);
      in_deg[v] = out_deg[v] = 0;
    }
    if (entries.size() != 1 || exits.size() != 1) {
      out.reason = "skeleton block lacks unique entry/exit terminals; graph "
                   "is not a serial composition of two-terminal components";
      return out;
    }
    auto rec = recognize_ladder(out.skeleton, indices, entries.front(),
                                exits.front());
    if (!rec.ladder.has_value()) {
      out.reason = std::move(rec.reason);
      return out;
    }
    out.ladders.push_back(std::move(*rec.ladder));
  }
  out.is_cs4 = true;
  return out;
}

IntervalMap cs4_propagation_intervals(const StreamGraph& g,
                                      const Cs4Analysis& analysis) {
  SDAF_EXPECTS(analysis.is_cs4);
  const Skeleton& skel = analysis.skeleton;

  // External (ladder-level) bound per skeleton component.
  std::vector<Rational> bounds(skel.edges.size(), Rational::infinity());
  for (const Ladder& ladder : analysis.ladders) {
    const auto lb = ladder_component_bounds_recurrence(skel, ladder);
    for (std::size_t i = 0; i < bounds.size(); ++i)
      bounds[i] = min(bounds[i], lb[i]);
  }

  IntervalMap out(g.edge_count());
  for (std::size_t i = 0; i < skel.edges.size(); ++i)
    propagation_setivals(skel.tree, skel.metrics, skel.edges[i].tree,
                         bounds[i], out);
  return out;
}

IntervalMap cs4_nonprop_intervals(const StreamGraph& g,
                                  const Cs4Analysis& analysis) {
  SDAF_EXPECTS(analysis.is_cs4);
  const Skeleton& skel = analysis.skeleton;
  const auto parents = skel.tree.parents();

  IntervalMap out(g.edge_count());
  // Cycles internal to each contracted component (Section IV.B per
  // component)...
  for (const auto& se : skel.edges)
    nonprop_internal(skel.tree, skel.metrics, parents, se.tree, out);
  // ...plus the ladder-level external cycles (Section VI.B).
  for (const Ladder& ladder : analysis.ladders)
    ladder_nonprop_external(skel, ladder, parents, out);
  return out;
}

}  // namespace sdaf
