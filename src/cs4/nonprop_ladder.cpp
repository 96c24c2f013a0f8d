#include "src/cs4/nonprop_ladder.h"

#include <unordered_map>

#include "src/graph/cycles.h"
#include "src/support/contracts.h"

namespace sdaf {

namespace {

struct ComponentLeaves {
  std::vector<EdgeId> edges;             // original graph edges
  std::vector<std::int64_t> hops_through;  // h(H, e) per edge
};

}  // namespace

void ladder_nonprop_external(const Skeleton& skel, const Ladder& ladder,
                             const std::vector<SpTree::Index>& parents,
                             IntervalMap& out) {
  // h(H, e) per leaf, computed once per component on demand.
  std::unordered_map<std::size_t, ComponentLeaves> leaf_cache;
  const auto component_leaves = [&](std::size_t skel_edge)
      -> const ComponentLeaves& {
    auto it = leaf_cache.find(skel_edge);
    if (it == leaf_cache.end()) {
      ComponentLeaves cl;
      const SpTree::Index root = skel.edges[skel_edge].tree;
      for (const SpTree::Index leaf : skel.tree.leaves_under(root)) {
        cl.edges.push_back(skel.tree.node(leaf).edge);
        cl.hops_through.push_back(longest_hops_through(
            skel.tree, skel.metrics, parents, leaf, root));
      }
      it = leaf_cache.emplace(skel_edge, std::move(cl)).first;
    }
    return it->second;
  };

  const auto component_hops = [&](EdgeId skel_edge) {
    return skel.metrics.longest_hops[skel.edges[skel_edge].tree];
  };

  for (const UCycle& cycle : ladder_cycles(ladder)) {
    const auto runs = directed_runs(skel.graph, cycle);
    SDAF_ASSERT(runs.size() == 2);
    for (std::size_t side = 0; side < 2; ++side) {
      const DirectedRun& mine = runs[side];
      const DirectedRun& other = runs[1 - side];
      std::int64_t side_hops = 0;
      for (const EdgeId se : mine.edges) side_hops += component_hops(se);
      for (const EdgeId se : mine.edges) {
        const ComponentLeaves& cl = component_leaves(se);
        const std::int64_t rest = side_hops - component_hops(se);
        for (std::size_t j = 0; j < cl.edges.size(); ++j) {
          out.update_min(cl.edges[j],
                         Rational(other.buffer_length) /
                             Rational(rest + cl.hops_through[j]));
        }
      }
    }
  }
}

}  // namespace sdaf
