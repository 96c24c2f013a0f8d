#include "src/graph/cycles.h"

#include <algorithm>

#include "src/graph/undirected.h"
#include "src/support/contracts.h"

namespace sdaf {

namespace {

// Backtracking enumeration. Each simple cycle has a unique minimum node s;
// we root the search at s and only allow interior nodes > s, so every cycle
// is discovered exactly at its minimum node. Each cycle would be walked in
// both directions; keeping only walks whose first edge id is smaller than
// the closing edge id leaves exactly one representative.
class Enumerator {
 public:
  Enumerator(const StreamGraph& g, std::size_t limit, const CycleVisitor& visit)
      : g_(g), view_(g), limit_(limit), visit_(visit),
        on_path_(g.node_count(), false), edge_used_(g.edge_count(), false) {}

  // False when the enumeration stopped at the limit.
  bool run() {
    for (NodeId s = 0; s < g_.node_count() && !truncated_; ++s) {
      start_ = s;
      on_path_[s] = true;
      dfs(s);
      on_path_[s] = false;
    }
    return !truncated_;
  }

 private:
  void dfs(NodeId v) {
    if (truncated_) return;
    for (const HalfEdge& half : view_.incident(v)) {
      if (edge_used_[half.edge]) continue;
      if (half.other == start_) {
        if (!path_.empty() && path_.front().edge < half.edge) {
          if (visited_ >= limit_) {
            truncated_ = true;
            return;
          }
          ++visited_;
          path_.push_back(CycleStep{half.edge, half.forward});
          visit_(path_);
          path_.pop_back();
        }
        continue;
      }
      if (half.other < start_ || on_path_[half.other]) continue;
      on_path_[half.other] = true;
      edge_used_[half.edge] = true;
      path_.push_back(CycleStep{half.edge, half.forward});
      dfs(half.other);
      path_.pop_back();
      edge_used_[half.edge] = false;
      on_path_[half.other] = false;
      if (truncated_) return;
    }
  }

  const StreamGraph& g_;
  UndirectedView view_;
  std::size_t limit_;
  const CycleVisitor& visit_;
  NodeId start_ = kNoNode;
  std::vector<bool> on_path_;
  std::vector<bool> edge_used_;
  UCycle path_;
  std::size_t visited_ = 0;
  bool truncated_ = false;
};

NodeId step_from(const StreamGraph& g, const CycleStep& s) {
  const auto& e = g.edge(s.edge);
  return s.forward ? e.from : e.to;
}

NodeId step_to(const StreamGraph& g, const CycleStep& s) {
  const auto& e = g.edge(s.edge);
  return s.forward ? e.to : e.from;
}

}  // namespace

bool for_each_undirected_cycle(const StreamGraph& g, std::size_t limit,
                               const CycleVisitor& visit) {
  return Enumerator(g, limit, visit).run();
}

CycleEnumeration enumerate_undirected_cycles(const StreamGraph& g,
                                             std::size_t limit) {
  CycleEnumeration out;
  out.truncated = !for_each_undirected_cycle(
      g, limit, [&](const UCycle& cycle) { out.cycles.push_back(cycle); });
  return out;
}

std::vector<NodeId> cycle_nodes(const StreamGraph& g, const UCycle& cycle) {
  SDAF_EXPECTS(cycle.size() >= 2);
  std::vector<NodeId> nodes;
  nodes.reserve(cycle.size());
  for (const auto& s : cycle) nodes.push_back(step_from(g, s));
  SDAF_ENSURES(step_to(g, cycle.back()) == nodes.front());
  return nodes;
}

std::vector<DirectedRun> directed_runs(const StreamGraph& g,
                                       const UCycle& cycle) {
  const std::size_t k = cycle.size();
  SDAF_EXPECTS(k >= 2);
  // A DAG cycle cannot be uniformly oriented, so a flip exists; rotate so the
  // walk starts at a run boundary (orientation change between last and first
  // step).
  std::size_t first = k;  // index starting a new run
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t prev = (i + k - 1) % k;
    if (cycle[i].forward != cycle[prev].forward) {
      first = i;
      break;
    }
  }
  SDAF_EXPECTS(first < k);  // otherwise the "cycle" is a directed cycle

  std::vector<DirectedRun> runs;
  std::size_t i = 0;
  while (i < k) {
    const std::size_t begin = (first + i) % k;
    const bool fwd = cycle[begin].forward;
    // Collect the maximal block with equal orientation.
    std::vector<EdgeId> block;
    std::int64_t buffers = 0;
    while (i < k) {
      const CycleStep& s = cycle[(first + i) % k];
      if (s.forward != fwd) break;
      block.push_back(s.edge);
      buffers += g.edge(s.edge).buffer;
      ++i;
    }
    DirectedRun run;
    const std::size_t end = (first + i) % k;  // step index after the block
    if (fwd) {
      run.source = step_from(g, cycle[begin]);
      run.sink = step_from(g, cycle[end % k]);
      run.edges = std::move(block);
    } else {
      // Walk went against the edges: the directed path runs from the walk's
      // end back to its beginning.
      run.source = step_from(g, cycle[end % k]);
      run.sink = step_from(g, cycle[begin]);
      run.edges.assign(block.rbegin(), block.rend());
    }
    run.buffer_length = buffers;
    runs.push_back(std::move(run));
  }
  SDAF_ENSURES(runs.size() >= 2 && runs.size() % 2 == 0);
  return runs;
}

std::vector<NodeId> cycle_sources(const StreamGraph& g, const UCycle& cycle) {
  std::vector<NodeId> out;
  for (const auto& run : directed_runs(g, cycle)) out.push_back(run.source);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<NodeId> cycle_sinks(const StreamGraph& g, const UCycle& cycle) {
  std::vector<NodeId> out;
  for (const auto& run : directed_runs(g, cycle)) out.push_back(run.sink);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

bool is_cs4_by_enumeration(const StreamGraph& g, std::size_t limit) {
  const auto enumeration = enumerate_undirected_cycles(g, limit);
  SDAF_EXPECTS(!enumeration.truncated);
  for (const auto& cycle : enumeration.cycles) {
    if (cycle_sources(g, cycle).size() != 1) return false;
    if (cycle_sinks(g, cycle).size() != 1) return false;
  }
  return true;
}

}  // namespace sdaf
