#include "src/cs4/ladder.h"

#include <algorithm>
#include <tuple>

#include "src/graph/subgraph.h"
#include "src/support/contracts.h"

namespace sdaf {

namespace {

// Two vertex-disjoint directed paths from entry to exit via unit-capacity
// vertex-splitting flow with BFS augmentation. Returns the two paths as
// edge sequences, or empty when max-flow < 2.
struct DisjointPaths {
  bool found = false;
  std::vector<EdgeId> first;   // path edges in order
  std::vector<EdgeId> second;
};

DisjointPaths two_disjoint_paths(const StreamGraph& g, NodeId entry,
                                 NodeId exit) {
  // Arc list with residuals. Node v splits into in(2v) -> out(2v+1).
  struct Arc {
    std::uint32_t to;
    std::int32_t cap;
    std::uint32_t rev;       // index of the reverse arc in adj[to]
    EdgeId edge = kNoEdge;   // original edge for forward graph arcs
  };
  const auto in_node = [](NodeId v) { return 2 * v; };
  const auto out_node = [](NodeId v) { return 2 * v + 1; };
  std::vector<std::vector<Arc>> adj(2 * g.node_count());
  const auto add_arc = [&](std::uint32_t from, std::uint32_t to,
                           std::int32_t cap, EdgeId edge) {
    adj[from].push_back(Arc{to, cap, static_cast<std::uint32_t>(
                                         adj[to].size()),
                            edge});
    adj[to].push_back(Arc{from, 0, static_cast<std::uint32_t>(
                                       adj[from].size() - 1),
                          kNoEdge});
  };
  for (NodeId v = 0; v < g.node_count(); ++v)
    add_arc(in_node(v), out_node(v), (v == entry || v == exit) ? 2 : 1,
            kNoEdge);
  for (EdgeId e = 0; e < g.edge_count(); ++e)
    add_arc(out_node(g.edge(e).from), in_node(g.edge(e).to), 1, e);

  const std::uint32_t source = in_node(entry);
  const std::uint32_t target = out_node(exit);
  int flow = 0;
  for (int round = 0; round < 2; ++round) {
    // BFS for an augmenting path.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> parent(
        adj.size(), {UINT32_MAX, UINT32_MAX});  // (node, arc index)
    std::vector<std::uint32_t> queue{source};
    parent[source] = {source, UINT32_MAX};
    for (std::size_t qi = 0; qi < queue.size(); ++qi) {
      const std::uint32_t v = queue[qi];
      for (std::uint32_t ai = 0; ai < adj[v].size(); ++ai) {
        const Arc& a = adj[v][ai];
        if (a.cap <= 0 || parent[a.to].first != UINT32_MAX) continue;
        parent[a.to] = {v, ai};
        queue.push_back(a.to);
      }
    }
    if (parent[target].first == UINT32_MAX) break;
    for (std::uint32_t v = target; v != source;) {
      const auto [pv, ai] = parent[v];
      Arc& a = adj[pv][ai];
      a.cap -= 1;
      adj[a.to][a.rev].cap += 1;
      v = pv;
    }
    ++flow;
  }

  DisjointPaths out;
  if (flow < 2) return out;
  // Trace the two paths along saturated graph arcs.
  for (std::vector<EdgeId>* path : {&out.first, &out.second}) {
    NodeId cur = entry;
    while (cur != exit) {
      EdgeId taken = kNoEdge;
      for (Arc& a : adj[out_node(cur)]) {
        if (a.edge == kNoEdge || a.cap != 0) continue;  // unsaturated
        taken = a.edge;
        a.cap = 1;  // consume so the second trace takes the other path
        break;
      }
      SDAF_ASSERT(taken != kNoEdge);
      path->push_back(taken);
      cur = g.edge(taken).to;
    }
  }
  out.found = true;
  return out;
}

// Builds the undirected cycle formed by two directed paths sharing only
// their endpoints: path1 traversed forward, path2 walked back against its
// direction.
UCycle join_paths(const std::vector<EdgeId>& path1,
                  const std::vector<EdgeId>& path2) {
  UCycle cycle;
  cycle.reserve(path1.size() + path2.size());
  for (const EdgeId e : path1) cycle.push_back(CycleStep{e, true});
  for (auto it = path2.rbegin(); it != path2.rend(); ++it)
    cycle.push_back(CycleStep{*it, false});
  return cycle;
}

// Node path visited by a directed edge sequence starting at `from`.
std::vector<NodeId> path_nodes(const StreamGraph& g, NodeId from,
                               const std::vector<EdgeId>& edges) {
  std::vector<NodeId> nodes{from};
  for (const EdgeId e : edges) {
    SDAF_ASSERT(g.edge(e).from == nodes.back());
    nodes.push_back(g.edge(e).to);
  }
  return nodes;
}

}  // namespace

LadderRecognition recognize_ladder(const Skeleton& skel,
                                   const std::vector<std::size_t>& block_edges,
                                   NodeId entry, NodeId exit) {
  LadderRecognition out;
  SDAF_EXPECTS(block_edges.size() >= 2);

  std::vector<EdgeId> sub_edges;
  sub_edges.reserve(block_edges.size());
  for (const std::size_t i : block_edges)
    sub_edges.push_back(static_cast<EdgeId>(i));
  const Subgraph block = extract_subgraph(skel.graph, sub_edges);
  SDAF_EXPECTS(block.to_sub[entry] != kNoNode);
  SDAF_EXPECTS(block.to_sub[exit] != kNoNode);
  const NodeId sub_entry = block.to_sub[entry];
  const NodeId sub_exit = block.to_sub[exit];

  const DisjointPaths paths =
      two_disjoint_paths(block.graph, sub_entry, sub_exit);
  if (!paths.found) {
    out.reason = "skeleton block has no pair of disjoint terminal-to-"
                 "terminal paths (no outer cycle); not an SP-ladder";
    return out;
  }

  Ladder ladder;
  ladder.entry = entry;
  ladder.exit = exit;

  constexpr std::uint8_t kNoSide = 2;
  std::vector<std::uint8_t> side(block.graph.node_count(), kNoSide);
  std::vector<std::size_t> pos(block.graph.node_count(), 0);
  std::vector<bool> on_outer(block.graph.edge_count(), false);

  const auto trace_side = [&](const std::vector<EdgeId>& path,
                              std::uint8_t which,
                              std::vector<NodeId>& side_nodes,
                              std::vector<std::size_t>& segs) {
    const auto nodes = path_nodes(block.graph, sub_entry, path);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      side_nodes.push_back(block.orig_node[nodes[i]]);  // skeleton node id
      side[nodes[i]] = which;
      pos[nodes[i]] = i;
    }
    for (const EdgeId e : path) {
      segs.push_back(block.orig_edge[e]);  // skeleton edge index
      on_outer[e] = true;
    }
  };
  trace_side(paths.first, 0, ladder.left, ladder.left_seg);
  trace_side(paths.second, 1, ladder.right, ladder.right_seg);
  // Terminals belong to both sides; exclude them from rung side checks.
  side[sub_entry] = kNoSide;
  side[sub_exit] = kNoSide;

  if (ladder.left.size() + ladder.right.size() - 2 !=
      block.graph.node_count()) {
    out.reason = "skeleton block has a vertex off the outer cycle; not an "
                 "SP-ladder";
    return out;
  }

  // Remaining super-edges are rungs.
  for (EdgeId e = 0; e < block.graph.edge_count(); ++e) {
    if (on_outer[e]) continue;
    const auto& ed = block.graph.edge(e);
    if (ed.from == sub_entry || ed.to == sub_entry || ed.from == sub_exit ||
        ed.to == sub_exit) {
      out.reason = "chord touching a terminal survived SP reduction; block "
                   "is not an SP-ladder";
      return out;
    }
    if (side[ed.from] == kNoSide || side[ed.to] == kNoSide ||
        side[ed.from] == side[ed.to]) {
      out.reason = "chord connecting vertices of one side survived SP "
                   "reduction; block is not an SP-ladder";
      return out;
    }
    LadderRung rung;
    rung.skel_edge = block.orig_edge[e];
    rung.left_to_right = side[ed.from] == 0;
    rung.left_pos = pos[rung.left_to_right ? ed.from : ed.to];
    rung.right_pos = pos[rung.left_to_right ? ed.to : ed.from];
    ladder.rungs.push_back(rung);
  }
  if (ladder.rungs.empty()) {
    out.reason = "skeleton block with no cross-link should have been "
                 "SP-reduced; internal error";
    return out;
  }

  // Non-crossing check: lexicographic sort; crossing iff right positions
  // ever strictly decrease (equal positions are shared endpoints, allowed).
  std::sort(ladder.rungs.begin(), ladder.rungs.end(),
            [](const LadderRung& a, const LadderRung& b) {
              return std::tie(a.left_pos, a.right_pos) <
                     std::tie(b.left_pos, b.right_pos);
            });
  for (std::size_t i = 1; i < ladder.rungs.size(); ++i) {
    if (ladder.rungs[i].right_pos < ladder.rungs[i - 1].right_pos) {
      out.reason = "cross-links cross; graph is not CS4 (contains a K4 "
                   "subdivision, Lemma V.6)";
      return out;
    }
  }

  out.ladder = std::move(ladder);
  return out;
}

// A cycle of a non-crossing ladder cannot involve three or more rungs.
std::vector<UCycle> ladder_cycles(const Ladder& ladder) {
  const auto& rungs = ladder.rungs;
  const auto lsegs = [&](std::size_t from, std::size_t to) {
    return std::vector<EdgeId>(ladder.left_seg.begin() +
                                   static_cast<std::ptrdiff_t>(from),
                               ladder.left_seg.begin() +
                                   static_cast<std::ptrdiff_t>(to));
  };
  const auto rsegs = [&](std::size_t from, std::size_t to) {
    return std::vector<EdgeId>(ladder.right_seg.begin() +
                                   static_cast<std::ptrdiff_t>(from),
                               ladder.right_seg.begin() +
                                   static_cast<std::ptrdiff_t>(to));
  };
  const auto cat = [](std::vector<EdgeId> a, EdgeId e,
                      std::vector<EdgeId> b = {}) {
    a.push_back(e);
    a.insert(a.end(), b.begin(), b.end());
    return a;
  };

  std::vector<UCycle> cycles;
  // Outer cycle.
  cycles.push_back(join_paths(lsegs(0, ladder.left_seg.size()),
                              rsegs(0, ladder.right_seg.size())));

  for (const LadderRung& r : rungs) {
    const EdgeId k = static_cast<EdgeId>(r.skel_edge);
    if (r.left_to_right) {
      // Entry closure: X..L[la] + K  vs  X..R[ra]; sink R[ra].
      cycles.push_back(
          join_paths(cat(lsegs(0, r.left_pos), k), rsegs(0, r.right_pos)));
      // Exit closure: K + R[ra]..Y  vs  L[la]..Y; source L[la].
      cycles.push_back(join_paths(
          cat({}, k, rsegs(r.right_pos, ladder.right_seg.size())),
          lsegs(r.left_pos, ladder.left_seg.size())));
    } else {
      cycles.push_back(
          join_paths(cat(rsegs(0, r.right_pos), k), lsegs(0, r.left_pos)));
      cycles.push_back(join_paths(
          cat({}, k, lsegs(r.left_pos, ladder.left_seg.size())),
          rsegs(r.right_pos, ladder.right_seg.size())));
    }
  }

  // Rung pairs (sorted, so la1 <= la2 and ra1 <= ra2).
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    for (std::size_t j = i + 1; j < rungs.size(); ++j) {
      const LadderRung& a = rungs[i];
      const LadderRung& b = rungs[j];
      const EdgeId ka = static_cast<EdgeId>(a.skel_edge);
      const EdgeId kb = static_cast<EdgeId>(b.skel_edge);
      SDAF_ASSERT(a.left_pos <= b.left_pos && a.right_pos <= b.right_pos);
      if (a.left_to_right && b.left_to_right) {
        SDAF_ASSERT(a.left_pos < b.left_pos || a.right_pos < b.right_pos);
        // L[la1] -K1-> R .. R[ra2]  vs  L[la1] .. L[la2] -K2-> R[ra2].
        cycles.push_back(
            join_paths(cat({}, ka, rsegs(a.right_pos, b.right_pos)),
                       cat(lsegs(a.left_pos, b.left_pos), kb)));
      } else if (!a.left_to_right && !b.left_to_right) {
        // R[ra1] -K1-> L .. L[la2]  vs  R[ra1] .. R[ra2] -K2-> L[la2].
        cycles.push_back(
            join_paths(cat({}, ka, lsegs(a.left_pos, b.left_pos)),
                       cat(rsegs(a.right_pos, b.right_pos), kb)));
      } else if (a.left_to_right && !b.left_to_right) {
        // Source L[la1], sink L[la2]: through K1, right side, K2 back.
        SDAF_ASSERT(a.left_pos < b.left_pos);  // equality = directed cycle
        cycles.push_back(join_paths(
            cat(cat({}, ka, rsegs(a.right_pos, b.right_pos)), kb),
            lsegs(a.left_pos, b.left_pos)));
      } else {
        // r2l then l2r: source R[ra1], sink R[ra2] via the left side.
        SDAF_ASSERT(a.right_pos < b.right_pos);  // equality = directed cycle
        cycles.push_back(join_paths(
            cat(cat({}, ka, lsegs(a.left_pos, b.left_pos)), kb),
            rsegs(a.right_pos, b.right_pos)));
      }
    }
  }
  return cycles;
}

}  // namespace sdaf
