// SP-ladder recognition (Section V). A skeleton block is an SP-ladder iff
//   * its terminals are joined by two vertex-disjoint directed paths (the
//     outer cycle) that together cover every block vertex,
//   * every remaining super-edge is a rung connecting interior vertices of
//     opposite sides, and no two rungs cross (Definition of SP-ladder).
//
// Recognition is purely structural (two-disjoint-paths via a 2-unit
// vertex-capacity flow, then rung layout checks): for a valid ladder the
// disjoint path pair is unique -- any pair routed through a rung would
// force two rungs to cross -- so the flow recovers exactly the sides.
// Generic cycle enumeration is deliberately avoided: ladder skeletons have
// only O(k^2) simple cycles but exponentially many simple *paths*, which a
// backtracking enumerator would visit.
//
// Recognition stores only the layout (sides, segments, rungs); the
// Propagation intervals and the forward-on-filter set are read from it in
// O(k). The cycles themselves (each uses 0, 1 or 2 rungs -- three or more
// would force crossing rungs) are built on demand by ladder_cycles() for
// the Non-Propagation bound of Section VI.B and for tests.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "src/cs4/skeleton.h"
#include "src/graph/cycles.h"
#include "src/graph/stream_graph.h"

namespace sdaf {

struct LadderRung {
  std::size_t skel_edge = 0;  // index into Skeleton::edges
  std::size_t left_pos = 0;   // index into Ladder::left
  std::size_t right_pos = 0;  // index into Ladder::right
  bool left_to_right = true;  // direction of the rung component
};

struct Ladder {
  NodeId entry = kNoNode;  // skeleton node ids
  NodeId exit = kNoNode;

  // Side vertex sequences including entry (front) and exit (back), in
  // directed order; left/right naming is arbitrary but fixed.
  std::vector<NodeId> left;
  std::vector<NodeId> right;
  // left_seg[i] = skeleton edge index of the segment left[i] -> left[i+1].
  std::vector<std::size_t> left_seg;
  std::vector<std::size_t> right_seg;

  // Sorted by (left_pos, right_pos); non-crossing.
  std::vector<LadderRung> rungs;
};

struct LadderRecognition {
  std::optional<Ladder> ladder;
  std::string reason;  // set when recognition fails
};

// `block_edges` are Skeleton::edges indices forming one biconnected block of
// the skeleton with >= 2 super-edges; `entry`/`exit` are the block terminals
// (skeleton node ids).
[[nodiscard]] LadderRecognition recognize_ladder(
    const Skeleton& skel, const std::vector<std::size_t>& block_edges,
    NodeId entry, NodeId exit);

// Every undirected simple cycle of a recognized ladder, in skeleton edge
// indices: the outer cycle, two closures per rung (around the entry,
// around the exit) and one cycle per rung pair. O(k^2) cycles of O(k)
// steps each.
[[nodiscard]] std::vector<UCycle> ladder_cycles(const Ladder& ladder);

}  // namespace sdaf
