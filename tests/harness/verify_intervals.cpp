#include "tests/harness/verify_intervals.h"

#include "src/intervals/baseline.h"
#include "src/support/contracts.h"

namespace sdaf::core {

VerifyResult verify_intervals(const StreamGraph& g,
                              const IntervalMap& intervals,
                              Algorithm algorithm, std::size_t cycle_limit) {
  SDAF_EXPECTS(intervals.size() == g.edge_count());
  const IntervalMap required =
      algorithm == Algorithm::Propagation
          ? propagation_intervals_exact(g, cycle_limit)
          : nonprop_intervals_exact(g, cycle_limit);
  VerifyResult out;
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    if (intervals[e] > required[e])
      out.violations.push_back(IntervalViolation{e, required[e],
                                                 intervals[e]});
  }
  out.ok = out.violations.empty();
  return out;
}

}  // namespace sdaf::core
