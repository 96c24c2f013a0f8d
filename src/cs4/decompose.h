// CS4 analysis driver (Theorem V.7): a single-source, single-sink DAG is
// CS4 iff it is a serial composition of SP-DAGs and SP-ladders. The driver
// contracts the graph to its skeleton, splits the skeleton into biconnected
// blocks (= the serial chain), recognizes each multi-edge block as an
// SP-ladder, and exposes everything the interval engines need.
#pragma once

#include <string>
#include <vector>

#include "src/cs4/ladder.h"
#include "src/cs4/skeleton.h"
#include "src/graph/stream_graph.h"
#include "src/intervals/interval_map.h"

namespace sdaf {

struct Cs4Analysis {
  bool two_terminal = false;
  bool is_cs4 = false;
  bool pure_sp = false;  // the whole graph reduced to one super-edge
  std::string reason;    // why not CS4, when applicable

  Skeleton skeleton;
  std::vector<Ladder> ladders;            // one per multi-edge skeleton block
  std::vector<std::size_t> bridge_edges;  // skeleton edges outside any ladder
};

[[nodiscard]] Cs4Analysis analyze_cs4(const StreamGraph& g);

// Propagation-Algorithm intervals for a CS4 graph (Section VI.A, O(|G|)).
// Precondition: analysis.is_cs4.
[[nodiscard]] IntervalMap cs4_propagation_intervals(
    const StreamGraph& g, const Cs4Analysis& analysis);

// Non-Propagation-Algorithm intervals (Section VI.B, O(|G|^3)).
[[nodiscard]] IntervalMap cs4_nonprop_intervals(const StreamGraph& g,
                                                const Cs4Analysis& analysis);

}  // namespace sdaf
