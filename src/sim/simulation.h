// Deterministic single-threaded simulator of the paper's blocking,
// thread-per-node runtime model, and the reference the pooled backend is
// differential-tested against: the same runtime::NodeState drives every node
// (same alignment rule, same wrappers, same blocking structure -- nodes
// stall mid-emission on a full channel, holding already-consumed inputs).
// Deadlock is detected exactly -- a full round-robin sweep with no progress
// while work remains -- with no timers, making the traffic and deadlock
// benchmarks reproducible on any machine. Channels and nodes are the pooled
// backend's own (runtime::Wiring: BoundedChannel over SpscRing, NodeState
// with a no-op Waker), driven from one thread, so their atomics are
// uncontended; the sweep order alone makes a run deterministic.
//
// Prefer the exec::Session facade (src/exec/session.h) for new code; this
// header stays as the backend implementation. Options and results are the
// exec types (exec::RunSpec / exec::RunReport).
#pragma once

#include <memory>
#include <vector>

#include "src/ckpt/snapshot.h"
#include "src/exec/run_types.h"
#include "src/graph/stream_graph.h"
#include "src/runtime/kernel.h"

namespace sdaf::sim {

class Simulation {
 public:
  Simulation(const StreamGraph& g,
             std::vector<std::shared_ptr<runtime::Kernel>> kernels);

  // A batch run: consumes spec.mode/intervals/forward_on_filter/num_inputs/
  // tracer/batch and max_sweeps; backend-selection and pool fields are
  // ignored, and spec.ports must be null (live ports run through
  // exec::Stream on a SweepEngine).
  [[nodiscard]] exec::RunReport run(const exec::RunSpec& options);

 private:
  const StreamGraph& graph_;
  std::vector<std::shared_ptr<runtime::Kernel>> kernels_;
};

// The incremental sweep engine behind both Simulation::run and the Sim
// backend of exec::Stream: the same channels, nodes, and round-robin sweep
// rule, but the *caller* owns the sweep loop, so injected feed channels
// (exec::RunSpec::ports) can be refilled between pumps -- "the sim drains
// whatever is pushed between deterministic sweeps". A pump that stops
// without finishing is not a verdict by itself: only the caller knows
// whether more input may still arrive (Simulation::run knows it cannot, so
// there a no-progress pump *is* the exact deadlock verdict of the paper's
// sweep rule).
class SweepEngine {
 public:
  SweepEngine(const StreamGraph& g,
              const std::vector<std::shared_ptr<runtime::Kernel>>& kernels,
              const exec::RunSpec& options);
  ~SweepEngine();

  SweepEngine(const SweepEngine&) = delete;
  SweepEngine& operator=(const SweepEngine&) = delete;

  // Round-robin sweeps until every node is done, a sweep makes no progress,
  // or sweeps() reaches the spec's max_sweeps. Returns true iff any sweep
  // made progress. Sweep accounting is bit-compatible with the historical
  // Simulation::run loop: terminal sweeps (the all-done one and a
  // no-progress one) are not counted.
  bool pump();

  [[nodiscard]] bool all_done() const;
  [[nodiscard]] std::uint64_t sweeps() const;

  // Final report (traffic, fires, sink deliveries; state dump iff
  // `deadlocked`). The verdict flags are the caller's call, see above.
  [[nodiscard]] exec::RunReport report(bool deadlocked) const;

  // Snapshot assembly (ckpt): edge e's cumulative traffic at the barrier
  // cut -- the marker latch when the producer forwarded Marker(S), the
  // frozen totals when it finished before the barrier. Only valid once the
  // barrier's downstream consumers have checkpointed.
  [[nodiscard]] ckpt::EdgeCut edge_cut(EdgeId e,
                                       bool producer_checkpointed) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace sdaf::sim
