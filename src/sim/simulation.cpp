#include "src/sim/simulation.h"

#include "src/runtime/node_state.h"
#include "src/support/contracts.h"

namespace sdaf::sim {

namespace {

// Nothing ever blocks or wakes in the sweep: it steps every node in turn,
// and a step's return value is the progress signal the exact deadlock
// verdict rests on.
struct NoWake final : runtime::Waker {
  void wake(NodeId /*node*/) override {}
};

}  // namespace

struct SweepEngine::Impl {
  std::size_t node_count;
  std::uint64_t max_sweeps;
  std::uint64_t sweeps;  // also the tracer tick
  bool all_done = false;
  NoWake no_wake;
  runtime::Wiring wiring;

  Impl(const StreamGraph& g,
       const std::vector<std::shared_ptr<runtime::Kernel>>& kernels,
       const exec::RunSpec& options)
      : node_count(g.node_count()),
        max_sweeps(options.max_sweeps),
        // A restore resumes the cumulative sweep count.
        sweeps(options.restore != nullptr ? options.restore->sweeps : 0),
        wiring(g, kernels, options, no_wake, &sweeps) {}
};

SweepEngine::SweepEngine(
    const StreamGraph& g,
    const std::vector<std::shared_ptr<runtime::Kernel>>& kernels,
    const exec::RunSpec& options)
    : impl_(std::make_unique<Impl>(g, kernels, options)) {}

SweepEngine::~SweepEngine() = default;

bool SweepEngine::pump() {
  Impl& s = *impl_;
  bool pumped = false;
  while (!s.all_done && s.sweeps < s.max_sweeps) {
    bool progress = false;
    bool done = true;
    for (NodeId n = 0; n < s.node_count; ++n) {
      runtime::NodeState& node = s.wiring.node(n);
      progress |= node.step();
      done &= node.done();
    }
    pumped |= progress;
    if (done) {
      s.all_done = true;
      break;  // terminal sweep: not counted, matching the historical loop
    }
    if (!progress) break;  // starved or wedged: also not counted
    ++s.sweeps;
  }
  return pumped;
}

bool SweepEngine::all_done() const { return impl_->all_done; }

std::uint64_t SweepEngine::sweeps() const { return impl_->sweeps; }

ckpt::EdgeCut SweepEngine::edge_cut(EdgeId e,
                                    bool producer_checkpointed) const {
  return impl_->wiring.edge_cut(e, producer_checkpointed);
}

exec::RunReport SweepEngine::report(bool deadlocked) const {
  const Impl& s = *impl_;
  exec::RunReport result;
  result.backend = exec::Backend::Sim;
  result.sweeps = s.sweeps;
  result.completed = s.all_done;
  result.deadlocked = deadlocked;
  if (deadlocked) result.state_dump = s.wiring.dump_wedged_state();
  s.wiring.report(result);
  return result;
}

Simulation::Simulation(const StreamGraph& g,
                       std::vector<std::shared_ptr<runtime::Kernel>> kernels)
    : graph_(g), kernels_(std::move(kernels)) {
  SDAF_EXPECTS(kernels_.size() == g.node_count());
  for (const auto& k : kernels_) SDAF_EXPECTS(k != nullptr);
}

exec::RunReport Simulation::run(const exec::RunSpec& options) {
  // Live ports would make a no-progress sweep ambiguous (more input may
  // arrive); this blocking entry point runs the pre-closed token feeds only.
  SDAF_EXPECTS(options.ports == nullptr);
  SweepEngine engine(graph_, kernels_, options);
  (void)engine.pump();
  // With every feed pre-closed, pump() stopping short of completion inside
  // the sweep budget is exactly the historical verdict: a full round-robin
  // sweep with no progress while work remains.
  const bool deadlocked =
      !engine.all_done() && engine.sweeps() < options.max_sweeps;
  return engine.report(deadlocked);
}

}  // namespace sdaf::sim
