// Propagation-Algorithm interval bounds contributed by the *external*
// cycles of one SP-ladder (Section VI.A). The result is, per skeleton
// component, the tightest bound V any ladder cycle imposes on edges leaving
// that component's source: the length of the cycle's other directed run,
// minimized over every cycle whose run starts with the component. The CS4
// driver then threads V through each component with SETIVALS.
#pragma once

#include <vector>

#include "src/cs4/ladder.h"
#include "src/cs4/skeleton.h"
#include "src/support/rational.h"

namespace sdaf {

// The paper's O(|G|) bottom-up Ls/Lk/Ld recurrences over virtual per-rung
// positions, exact on every ladder: with shared rung endpoints (Fig. 6's
// u_i = u_{i+1}) each group of sibling rungs at one vertex is treated as a
// unit, so a descent never closes a cycle on a sibling of the rung it
// started from. Equal to minimizing over ladder_cycles(), in O(k) for k
// rungs rather than O(k^3).
[[nodiscard]] std::vector<Rational> ladder_component_bounds_recurrence(
    const Skeleton& skel, const Ladder& ladder);

}  // namespace sdaf
