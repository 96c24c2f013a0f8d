// The one-stop "compiler pass" a streaming language would run at build
// time: classify the topology, compute dummy intervals with the cheapest
// applicable algorithm, and materialize the per-edge configuration the
// runtime wrappers consume. This is the public face of the paper's
// contribution.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/cs4/decompose.h"
#include "src/graph/stream_graph.h"
#include "src/intervals/interval_map.h"

namespace sdaf::core {

enum class Algorithm : std::uint8_t {
  Propagation,     // few senders, dummies forwarded (Section II.B, first)
  NonPropagation,  // every node sends, dummies absorbed (second)
};

enum class Classification : std::uint8_t {
  SpDag,      // reduced to a single SP component
  Cs4Chain,   // serial chain of SP components and SP-ladders
  GeneralDag, // outside CS4; exact intervals cost exponential time
};

enum class GeneralPolicy : std::uint8_t {
  // Fall back to the exponential cycle-enumeration baseline (Section II.B);
  // only sensible for small graphs. A graph with more than
  // CompileOptions::cycle_limit cycles is rejected (ok = false).
  ExactExponential,
  // Refuse to compile non-CS4 topologies (what a production compiler that
  // promises bounded compile times would do; the user must restructure,
  // cf. the butterfly rewrite in Section VII).
  Reject,
};

struct CompileOptions {
  Algorithm algorithm = Algorithm::Propagation;
  GeneralPolicy general_policy = GeneralPolicy::ExactExponential;
  std::size_t cycle_limit = 1u << 22;  // for the exponential fallback
};

// How exact rational intervals become the integer thresholds the runtime
// counts against.
enum class Rounding : std::uint8_t {
  PaperCeil,  // Fig. 3's "roundup": ceil(8/3) = 3
  Floor,      // conservative: floor, clamped to >= 1
};

inline constexpr std::int64_t kNoDummyInterval =
    std::numeric_limits<std::int64_t>::max();

struct CompileResult {
  bool ok = false;
  Classification classification = Classification::GeneralDag;
  Algorithm algorithm = Algorithm::Propagation;
  std::string diagnostics;  // rejection reason or informational notes
  IntervalMap intervals;    // exact rationals, one per edge

  // True for edges lying on at least one undirected cycle (equivalently,
  // edges of a multi-edge biconnected block).
  std::vector<std::uint8_t> on_cycle;

  // Propagation-Algorithm forwarding set (see forward_on_filter()).
  std::vector<std::uint8_t> forward_edges;

  // Integer per-edge thresholds; kNoDummyInterval for infinite intervals.
  [[nodiscard]] std::vector<std::int64_t> integer_intervals(
      Rounding rounding) const;

  // Propagation-Algorithm forwarding set: edges where a node that filters
  // *data* must emit a dummy at the same sequence number, i.e. propagate
  // the sequence-number knowledge onward just as it must for received
  // dummies.
  //
  // An edge may rely on its lazy schedule only when *every* undirected
  // cycle through it starts at the edge's own tail (the edge is a "first
  // edge" of every cycle run it lies on): then the interval [e] = min L
  // over those cycles bounds how long downstream can starve. Any edge that
  // continues another cycle's run -- an interior edge of Fig. 3's cycle,
  // or a cross-link that chains after another cross-link -- has no budget
  // of its own: the upstream scheduled edge may already have consumed the
  // whole cycle budget, so the knowledge must travel on at zero added gap.
  // The paper leaves this rule implicit ("dummy messages ... must be
  // propagated on all output channels"); without extending it to filtered
  // data the Propagation Algorithm deadlocks under interior filtering (the
  // three-node counterexample is Executor.InteriorFilteringCounterexample
  // in tests/test_executor.cpp).
  //
  // For a CS4 graph the set is read from the skeleton in O(|G|), without
  // cycles. Within a contracted SP component, a leaf continues a run iff
  // some parallel ancestor's cycles start above the leaf's tail. Within an
  // SP-ladder block, every component except the two leaving the entry,
  // left_seg[0] and right_seg[0], is a continuation component and is
  // marked whole; those two are marked past their first hop. Proof, over
  // the cycles ladder_cycles() lists:
  //   * The entry has no in-edge in the block, so every run through a
  //     segment leaving it starts at the segment's tail: only edges past
  //     the component's source continue a run.
  //   * A side segment leaving left[p], p >= 1, continues the outer
  //     cycle's left run X..Y, which starts at the entry X.
  //   * A rung leaving interior left[u] continues the run X..left[u] + rung
  //     of its entry closure. The right side is symmetric.
  // Bridges between blocks lie on no ladder cycle.
  [[nodiscard]] const std::vector<std::uint8_t>& forward_on_filter() const {
    return forward_edges;
  }
};

[[nodiscard]] CompileResult compile(const StreamGraph& g,
                                    const CompileOptions& options = {});

[[nodiscard]] const char* to_string(Classification c);
[[nodiscard]] const char* to_string(Algorithm a);

}  // namespace sdaf::core
