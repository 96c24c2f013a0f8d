#include "src/workloads/random_ladder.h"

#include <algorithm>
#include <set>

#include "src/graph/topo.h"
#include "src/support/contracts.h"

namespace sdaf::workloads {

namespace {

// Materialize a random SP component between two existing nodes, discarding
// the (trusted) tree: generators hand plain graphs to the recognizers.
void add_component(Prng& rng, StreamGraph& g, NodeId from, NodeId to,
                   std::size_t edges, std::int64_t max_buffer) {
  RandomSpOptions opt;
  opt.target_edges = edges;
  opt.max_buffer = max_buffer;
  const SpSpec spec = random_sp_spec(rng, opt);
  SpTree scratch;
  (void)build_sp_between(spec, g, scratch, from, to);
}

struct RungDraft {
  std::size_t left_pos;
  std::size_t right_pos;
  bool left_to_right;
};

// Directed cycles can only arise from rungs of opposite direction sharing a
// vertex in the wrong order; rather than encode the ordering rule, draw,
// test, and fall back to uniform direction (always acyclic).
bool directions_acyclic(const std::vector<RungDraft>& rungs,
                        std::size_t left_n, std::size_t right_n) {
  StreamGraph probe;
  std::vector<NodeId> left(left_n + 2), right(right_n + 2);
  const NodeId x = probe.add_node();
  const NodeId y_placeholder = probe.add_node();
  left.front() = right.front() = x;
  for (std::size_t i = 1; i <= left_n; ++i) left[i] = probe.add_node();
  for (std::size_t i = 1; i <= right_n; ++i) right[i] = probe.add_node();
  left.back() = right.back() = y_placeholder;
  for (std::size_t i = 0; i + 1 < left.size(); ++i)
    probe.add_edge(left[i], left[i + 1], 1);
  for (std::size_t i = 0; i + 1 < right.size(); ++i)
    probe.add_edge(right[i], right[i + 1], 1);
  for (const auto& r : rungs) {
    if (r.left_to_right)
      probe.add_edge(left[r.left_pos], right[r.right_pos], 1);
    else
      probe.add_edge(right[r.right_pos], left[r.left_pos], 1);
  }
  return topo_order(probe).has_value();
}

}  // namespace

StreamGraph random_ladder(Prng& rng, const RandomLadderOptions& options) {
  SDAF_EXPECTS(options.rungs >= 1);
  std::size_t left_n = options.left_interior;
  std::size_t right_n = options.right_interior;
  if (!options.allow_shared_endpoints) {
    left_n = std::max(left_n, options.rungs);
    right_n = std::max(right_n, options.rungs);
  }
  left_n = std::max<std::size_t>(left_n, 1);
  right_n = std::max<std::size_t>(right_n, 1);

  // Draw sorted side positions; pairing i-th with i-th keeps rungs
  // non-crossing. Distinct (left, right) pairs avoid parallel rungs with
  // conflicting directions.
  std::vector<RungDraft> rungs;
  std::set<std::pair<std::size_t, std::size_t>> used;
  std::vector<std::size_t> lpos, rpos;
  for (std::size_t tries = 0;
       rungs.size() < options.rungs && tries < options.rungs * 8; ++tries) {
    lpos.clear();
    rpos.clear();
    const std::size_t want = options.rungs;
    if (options.allow_shared_endpoints) {
      for (std::size_t i = 0; i < want; ++i) {
        lpos.push_back(1 + rng.next_below(left_n));
        rpos.push_back(1 + rng.next_below(right_n));
      }
    } else {
      std::vector<std::size_t> all_l(left_n), all_r(right_n);
      for (std::size_t i = 0; i < left_n; ++i) all_l[i] = i + 1;
      for (std::size_t i = 0; i < right_n; ++i) all_r[i] = i + 1;
      rng.shuffle(all_l);
      rng.shuffle(all_r);
      lpos.assign(all_l.begin(), all_l.begin() + static_cast<long>(want));
      rpos.assign(all_r.begin(), all_r.begin() + static_cast<long>(want));
    }
    std::sort(lpos.begin(), lpos.end());
    std::sort(rpos.begin(), rpos.end());
    rungs.clear();
    used.clear();
    for (std::size_t i = 0; i < want; ++i) {
      if (!used.insert({lpos[i], rpos[i]}).second) continue;  // dedupe
      rungs.push_back(RungDraft{lpos[i], rpos[i], rng.next_bool(0.5)});
    }
    if (rungs.empty()) continue;
    if (!directions_acyclic(rungs, left_n, right_n)) {
      // Retry once with fresh directions, then force uniform (acyclic).
      for (auto& r : rungs) r.left_to_right = rng.next_bool(0.5);
      if (!directions_acyclic(rungs, left_n, right_n))
        for (auto& r : rungs) r.left_to_right = true;
    }
    break;
  }
  SDAF_ASSERT(!rungs.empty());

  StreamGraph g;
  const NodeId x = g.add_node("X");
  std::vector<NodeId> left{x}, right{x};
  for (std::size_t i = 1; i <= left_n; ++i)
    left.push_back(g.add_node(std::string("u").append(std::to_string(i))));
  for (std::size_t i = 1; i <= right_n; ++i)
    right.push_back(g.add_node(std::string("v").append(std::to_string(i))));
  const NodeId y = g.add_node("Y");
  left.push_back(y);
  right.push_back(y);

  for (std::size_t i = 0; i + 1 < left.size(); ++i)
    add_component(rng, g, left[i], left[i + 1], options.component_edges,
                  options.max_buffer);
  for (std::size_t i = 0; i + 1 < right.size(); ++i)
    add_component(rng, g, right[i], right[i + 1], options.component_edges,
                  options.max_buffer);
  for (const auto& r : rungs) {
    const NodeId from = r.left_to_right ? left[r.left_pos]
                                        : right[r.right_pos];
    const NodeId to = r.left_to_right ? right[r.right_pos]
                                      : left[r.left_pos];
    add_component(rng, g, from, to, options.component_edges,
                  options.max_buffer);
  }
  SDAF_ENSURES(topo_order(g).has_value());
  return g;
}

StreamGraph random_cs4_chain(Prng& rng, const RandomCs4Options& options) {
  SDAF_EXPECTS(options.components >= 1);
  StreamGraph g;
  NodeId tail = g.add_node("src");
  for (std::size_t c = 0; c < options.components; ++c) {
    if (rng.next_bool(options.ladder_probability)) {
      // Embed a random ladder between tail and a fresh node.
      StreamGraph ladder = random_ladder(rng, options.ladder);
      std::vector<NodeId> remap(ladder.node_count());
      const NodeId lsrc = ladder.unique_source();
      const NodeId lsnk = ladder.unique_sink();
      for (NodeId n = 0; n < ladder.node_count(); ++n) {
        if (n == lsrc)
          remap[n] = tail;
        else
          remap[n] = g.add_node();
      }
      for (EdgeId e = 0; e < ladder.edge_count(); ++e) {
        const auto& ed = ladder.edge(e);
        g.add_edge(remap[ed.from], remap[ed.to], ed.buffer);
      }
      tail = remap[lsnk];
    } else {
      const NodeId next = g.add_node();
      SpTree scratch;
      (void)build_sp_between(random_sp_spec(rng, options.sp), g, scratch,
                             tail, next);
      tail = next;
    }
  }
  g.set_node_name(tail, "snk");
  SDAF_ENSURES(topo_order(g).has_value());
  return g;
}

StreamGraph random_two_terminal_dag(Prng& rng,
                                    const RandomDagOptions& options) {
  StreamGraph g;
  const NodeId x = g.add_node("X");
  std::vector<NodeId> mid;
  for (std::size_t i = 0; i < options.interior_nodes; ++i)
    mid.push_back(g.add_node());
  const NodeId y = g.add_node("Y");

  // Forward edges only (indices are a topological order).
  std::vector<NodeId> order{x};
  order.insert(order.end(), mid.begin(), mid.end());
  order.push_back(y);
  for (std::size_t i = 0; i < order.size(); ++i)
    for (std::size_t j = i + 1; j < order.size(); ++j)
      if (rng.next_bool(options.edge_density))
        g.add_edge(order[i], order[j], rng.next_in(1, options.max_buffer));

  // Patch terminals so the graph is two-terminal.
  for (const NodeId v : mid) {
    if (g.in_degree(v) == 0)
      g.add_edge(x, v, rng.next_in(1, options.max_buffer));
    if (g.out_degree(v) == 0)
      g.add_edge(v, y, rng.next_in(1, options.max_buffer));
  }
  if (g.out_degree(x) == 0 || g.in_degree(y) == 0)
    g.add_edge(x, y, rng.next_in(1, options.max_buffer));
  return g;
}

}  // namespace sdaf::workloads
