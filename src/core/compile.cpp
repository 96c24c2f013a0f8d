#include "src/core/compile.h"

#include <algorithm>

#include "src/graph/cycles.h"
#include "src/graph/undirected.h"
#include "src/intervals/baseline.h"

namespace sdaf::core {

namespace {

// Marks the continuation edges of one contracted SP component: an edge is
// schedule-capable w.r.t. the component's internal cycles iff every Pc
// ancestor's cycles start at the edge's own tail.
void mark_component_internal(const Skeleton& skel,
                             const std::vector<SpTree::Index>& parents,
                             SpTree::Index root,
                             std::vector<std::uint8_t>& forward) {
  for (const SpTree::Index leaf : skel.tree.leaves_under(root)) {
    const SpNode& ln = skel.tree.node(leaf);
    for (SpTree::Index cur = leaf; cur != root; cur = parents[cur]) {
      const SpNode& pn = skel.tree.node(parents[cur]);
      if (pn.kind == SpKind::Parallel && pn.source != ln.source) {
        forward[ln.edge] = 1;
        break;
      }
    }
  }
}

// Marks a contracted component's edges as continuation: all of them, or,
// for the first hop of every ladder-cycle run through it, those past the
// component's source.
void mark_component(const Skeleton& skel, SpTree::Index root,
                    bool first_hop, std::vector<std::uint8_t>& forward) {
  const NodeId source = skel.tree.node(root).source;
  for (const SpTree::Index leaf : skel.tree.leaves_under(root)) {
    const SpNode& ln = skel.tree.node(leaf);
    if (!first_hop || ln.source != source) forward[ln.edge] = 1;
  }
}

// The ladder layout rule proved at CompileResult::forward_on_filter().
std::vector<std::uint8_t> forward_edges_cs4(const StreamGraph& g,
                                            const Cs4Analysis& analysis) {
  std::vector<std::uint8_t> forward(g.edge_count(), 0);
  const Skeleton& skel = analysis.skeleton;
  const auto parents = skel.tree.parents();
  for (const auto& se : skel.edges)
    mark_component_internal(skel, parents, se.tree, forward);
  for (const Ladder& ladder : analysis.ladders) {
    for (const auto* side : {&ladder.left_seg, &ladder.right_seg})
      for (std::size_t p = 0; p < side->size(); ++p)
        mark_component(skel, skel.edges[(*side)[p]].tree, p == 0, forward);
    for (const LadderRung& r : ladder.rungs)
      mark_component(skel, skel.edges[r.skel_edge].tree, false, forward);
  }
  return forward;
}

}  // namespace

std::vector<std::int64_t> CompileResult::integer_intervals(
    Rounding rounding) const {
  std::vector<std::int64_t> out(intervals.size(), kNoDummyInterval);
  for (EdgeId e = 0; e < intervals.size(); ++e) {
    const Rational& r = intervals[e];
    if (r.is_infinite()) continue;
    const std::int64_t v = rounding == Rounding::PaperCeil ? r.ceil()
                                                           : r.floor();
    out[e] = std::max<std::int64_t>(1, v);
  }
  return out;
}

CompileResult compile(const StreamGraph& g, const CompileOptions& options) {
  CompileResult result;
  result.algorithm = options.algorithm;
  result.on_cycle.assign(g.edge_count(), 0);
  for (const auto& block : biconnected_components(g))
    if (block.size() >= 2)
      for (const EdgeId e : block) result.on_cycle[e] = 1;

  Cs4Analysis analysis = analyze_cs4(g);
  if (!analysis.two_terminal) {
    result.diagnostics = analysis.reason;
    return result;
  }

  if (analysis.is_cs4) {
    result.classification = analysis.pure_sp ? Classification::SpDag
                                             : Classification::Cs4Chain;
    result.intervals =
        options.algorithm == Algorithm::Propagation
            ? cs4_propagation_intervals(g, analysis)
            : cs4_nonprop_intervals(g, analysis);
    result.forward_edges = forward_edges_cs4(g, analysis);
    result.ok = true;
    result.diagnostics = std::string("classified as ") +
                         to_string(result.classification) + "; " +
                         std::to_string(result.intervals.finite_count()) +
                         " of " + std::to_string(g.edge_count()) +
                         " edges need dummy messages";
    return result;
  }

  result.classification = Classification::GeneralDag;
  if (options.general_policy == GeneralPolicy::Reject) {
    result.diagnostics =
        "topology is not CS4 (" + analysis.reason +
        "); rejected per policy -- restructure the graph (Section VII) or "
        "allow the exponential fallback";
    return result;
  }
  // Count first, so a graph past the limit fails fast; then one pass,
  // never stored, feeds both the intervals and the forward set: an edge
  // continues a run iff it is not the first edge of some directed run of
  // some cycle through it.
  if (!for_each_undirected_cycle(g, options.cycle_limit,
                                 [](const UCycle&) {})) {
    result.diagnostics =
        "topology is not CS4 (" + analysis.reason + ") and has more than " +
        std::to_string(options.cycle_limit) +
        " undirected cycles, the limit for exact enumeration -- restructure "
        "the graph (Section VII)";
    return result;
  }
  IntervalMap intervals(g.edge_count());
  std::vector<std::uint8_t> forward(g.edge_count(), 0);
  const auto fold = options.algorithm == Algorithm::Propagation
                        ? propagation_fold
                        : nonprop_fold;
  (void)for_each_undirected_cycle(
      g, options.cycle_limit, [&](const UCycle& cycle) {
        const auto runs = directed_runs(g, cycle);
        fold(runs, intervals);
        for (const auto& run : runs)
          for (std::size_t k = 1; k < run.edges.size(); ++k)
            forward[run.edges[k]] = 1;
      });
  result.intervals = std::move(intervals);
  result.forward_edges = std::move(forward);
  result.ok = true;
  result.diagnostics =
      "topology is not CS4 (" + analysis.reason +
      "); intervals computed by exponential cycle enumeration";
  return result;
}

const char* to_string(Classification c) {
  switch (c) {
    case Classification::SpDag:
      return "SP-DAG";
    case Classification::Cs4Chain:
      return "CS4 chain";
    case Classification::GeneralDag:
      return "general DAG";
  }
  return "?";
}

const char* to_string(Algorithm a) {
  switch (a) {
    case Algorithm::Propagation:
      return "Propagation";
    case Algorithm::NonPropagation:
      return "Non-Propagation";
  }
  return "?";
}

}  // namespace sdaf::core
