// Non-Propagation intervals contributed by the external cycles of one
// SP-ladder (Section VI.B). For each ladder cycle C and each edge e on it,
//   [e] <= L(opposite side of C) / (h(side of e) - h(H) + h(H, e)),
// where H is e's contracted component, h(side) sums the component-level
// longest-hop metrics along e's side, and h(H, e) is the longest through-
// path inside H. Walking the cycles that ladder_cycles() builds realizes the
// paper's minimization over source / potential-sink pairs; with O(k^2)
// cycles and O(|G|) edge work per cycle this is the paper's O(|G|^3) bound.
#pragma once

#include <vector>

#include "src/cs4/ladder.h"
#include "src/cs4/skeleton.h"
#include "src/intervals/interval_map.h"

namespace sdaf {

void ladder_nonprop_external(const Skeleton& skel, const Ladder& ladder,
                             const std::vector<SpTree::Index>& parents,
                             IntervalMap& out);

}  // namespace sdaf
