// Exact dummy-interval computation by direct evaluation of the cycle
// minimizations of Section II.B, enumerating every undirected simple cycle.
// Worst-case exponential in |G| -- this is precisely the cost the paper's
// SP / CS4 algorithms avoid -- but it works on arbitrary DAGs and serves as
// (a) the ground truth the efficient algorithms are property-tested against
// and (b) the baseline in the scaling benchmarks.
//
// For cycles with a single source and sink (all cycles of CS4 graphs) the
// definitions are unambiguous. For multi-source cycles, which only arise
// outside CS4, we use the natural generalization: each edge's constraint
// comes from its maximal directed run R on the cycle, paired with the run
// leaving R's source on the opposite side.
#pragma once

#include <cstddef>

#include "src/graph/cycles.h"
#include "src/graph/stream_graph.h"
#include "src/intervals/interval_map.h"

namespace sdaf {

inline constexpr std::size_t kDefaultCycleLimit = 1u << 22;

// Propagation Algorithm: [e] = min over cycles pairing e with a second
// out-edge of e's tail of the opposite run's buffer length. Requires g to
// have at most `cycle_limit` undirected cycles.
[[nodiscard]] IntervalMap propagation_intervals_exact(
    const StreamGraph& g, std::size_t cycle_limit = kDefaultCycleLimit);

// Non-Propagation Algorithm: [e] = min over cycles through e of
// L(opposite run) / h(run containing e).
[[nodiscard]] IntervalMap nonprop_intervals_exact(
    const StreamGraph& g, std::size_t cycle_limit = kDefaultCycleLimit);

// One cycle's term of the minimizations above, given its directed_runs(),
// folded into `ivals`: the *_exact functions fold every cycle of g into an
// all-infinite map.
void propagation_fold(const std::vector<DirectedRun>& runs,
                      IntervalMap& ivals);
void nonprop_fold(const std::vector<DirectedRun>& runs, IntervalMap& ivals);

}  // namespace sdaf
