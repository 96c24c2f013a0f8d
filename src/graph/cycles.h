// Enumeration of *undirected simple cycles* of the streaming multigraph, and
// their decomposition into maximal directed runs. This is the machinery
// behind the paper's exact (exponential-time) interval definitions in
// Section II.B, which the efficient SP / CS4 algorithms are validated
// against.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/graph/stream_graph.h"

namespace sdaf {

// One traversal step of a cycle walk. `forward` is true when the walk
// traverses the edge tail-to-head.
struct CycleStep {
  EdgeId edge = kNoEdge;
  bool forward = true;
};

// A closed simple walk: steps[i] leads from node(i) to node(i+1) and
// node(0) == node(k). At least two steps; all edges and interior nodes
// distinct.
using UCycle = std::vector<CycleStep>;

struct CycleEnumeration {
  std::vector<UCycle> cycles;
  // True when enumeration stopped at `limit` before exhausting the graph.
  bool truncated = false;
};

// Enumerates every undirected simple cycle, each exactly once (up to
// direction and rotation). Worst-case exponential in |G|; `limit` bounds the
// number of cycles collected.
[[nodiscard]] CycleEnumeration enumerate_undirected_cycles(
    const StreamGraph& g, std::size_t limit = static_cast<std::size_t>(-1));

// The same enumeration without storing it: calls `visit` on each cycle in
// turn, in O(|G|) memory. Returns false, having visited `limit` cycles,
// when g has more.
using CycleVisitor = std::function<void(const UCycle&)>;
[[nodiscard]] bool for_each_undirected_cycle(const StreamGraph& g,
                                             std::size_t limit,
                                             const CycleVisitor& visit);

// Node sequence visited by a cycle: v0, v1, ..., vk-1 with the closing step
// returning to v0.
[[nodiscard]] std::vector<NodeId> cycle_nodes(const StreamGraph& g,
                                              const UCycle& cycle);

// A maximal directed path along a cycle ("run"). Every undirected simple
// cycle in a DAG decomposes into >= 2 runs; run boundaries are exactly the
// cycle's sources (both incident cycle edges outgoing) and sinks (both
// incoming).
struct DirectedRun {
  NodeId source = kNoNode;          // where the directed path starts
  NodeId sink = kNoNode;            // where it ends
  std::vector<EdgeId> edges;        // in path order (source to sink)
  std::int64_t buffer_length = 0;   // sum of edge buffers (paper's L)
  [[nodiscard]] std::int64_t hops() const {
    return static_cast<std::int64_t>(edges.size());
  }
};

// Decomposes a cycle into its maximal directed runs, in cycle order.
[[nodiscard]] std::vector<DirectedRun> directed_runs(const StreamGraph& g,
                                                     const UCycle& cycle);

// Sources of the cycle (one per pair of adjacent runs leaving the node).
[[nodiscard]] std::vector<NodeId> cycle_sources(const StreamGraph& g,
                                                const UCycle& cycle);
[[nodiscard]] std::vector<NodeId> cycle_sinks(const StreamGraph& g,
                                              const UCycle& cycle);

// Direct check of the CS4 property (Section V): every undirected simple
// cycle has exactly one source and one sink. Exponential; used as the
// ground-truth oracle in tests. `limit` guards runaway enumeration; if the
// enumeration truncates, the check aborts via contract violation.
[[nodiscard]] bool is_cs4_by_enumeration(
    const StreamGraph& g, std::size_t limit = 1u << 22);

}  // namespace sdaf
