#include "src/intervals/baseline.h"

#include "src/graph/cycles.h"
#include "src/support/contracts.h"

namespace sdaf {

namespace {

// The run sharing runs[i]'s source. Runs alternate orientation around the
// cycle, and directed_runs emits them in cycle order, so adjacent runs
// share either both sources or both sinks: the opposite run is the cyclic
// neighbour on the source side.
const DirectedRun& opposite(const std::vector<DirectedRun>& runs,
                            std::size_t i) {
  const std::size_t k = runs.size();
  const DirectedRun& prev = runs[(i + k - 1) % k];
  if (prev.source == runs[i].source) return prev;
  const DirectedRun& next = runs[(i + 1) % k];
  SDAF_ASSERT(next.source == runs[i].source);
  return next;
}

}  // namespace

void propagation_fold(const std::vector<DirectedRun>& runs,
                      IntervalMap& ivals) {
  for (std::size_t i = 0; i < runs.size(); ++i) {
    // Only the first edge of a run leaves the cycle's branch point
    // alongside a second out-edge, so only it is constrained.
    ivals.update_min(runs[i].edges.front(),
                     Rational(opposite(runs, i).buffer_length));
  }
}

void nonprop_fold(const std::vector<DirectedRun>& runs, IntervalMap& ivals) {
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Rational constraint = Rational(opposite(runs, i).buffer_length) /
                                Rational(runs[i].hops());
    for (const EdgeId e : runs[i].edges) ivals.update_min(e, constraint);
  }
}

IntervalMap propagation_intervals_exact(const StreamGraph& g,
                                        std::size_t cycle_limit) {
  IntervalMap ivals(g.edge_count());
  const bool complete = for_each_undirected_cycle(
      g, cycle_limit, [&](const UCycle& cycle) {
        propagation_fold(directed_runs(g, cycle), ivals);
      });
  SDAF_EXPECTS(complete);
  return ivals;
}

IntervalMap nonprop_intervals_exact(const StreamGraph& g,
                                    std::size_t cycle_limit) {
  IntervalMap ivals(g.edge_count());
  const bool complete = for_each_undirected_cycle(
      g, cycle_limit, [&](const UCycle& cycle) {
        nonprop_fold(directed_runs(g, cycle), ivals);
      });
  SDAF_EXPECTS(complete);
  return ivals;
}

}  // namespace sdaf
