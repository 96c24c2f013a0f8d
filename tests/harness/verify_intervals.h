// Interval auditing: independently re-derives the per-edge requirements
// from the cycle definitions (Section II.B) and checks a provided interval
// assignment against them: an independent oracle that gives the test-suite
// a single notion of "safe by construction". It enumerates cycles
// (exponential), so it lives beside the other test oracles, not in src/.
#pragma once

#include <cstddef>
#include <vector>

#include "src/core/compile.h"
#include "src/graph/stream_graph.h"
#include "src/intervals/interval_map.h"

namespace sdaf::core {

struct IntervalViolation {
  EdgeId edge = kNoEdge;
  Rational required;  // tightest bound any cycle imposes
  Rational provided;  // the audited value (> required = unsafe)
};

struct VerifyResult {
  bool ok = false;
  std::vector<IntervalViolation> violations;
};

// Audits `intervals` for `algorithm` by exact cycle enumeration
// (exponential; meant for the small topologies of the test rigs).
// An interval is admissible iff it is <= the exact requirement on every
// edge; smaller-than-required values are safe (just chattier).
[[nodiscard]] VerifyResult verify_intervals(
    const StreamGraph& g, const IntervalMap& intervals, Algorithm algorithm,
    std::size_t cycle_limit = 1u << 22);

}  // namespace sdaf::core
