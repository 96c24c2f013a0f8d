// One execution API. exec::Session is the single entry point for running a
// compiled stream graph, in either of two shapes:
//
//   - Streaming: session.open(StreamSpec) returns an exec::Stream whose
//     InputPorts/OutputPorts carry live, backpressured traffic with
//     dynamic per-port EOS (src/exec/stream.h) -- the serving shape.
//   - Batch: session.run(RunSpec) / compile_and_run() execute num_inputs
//     items to completion or deadlock: a stream whose input was closed
//     before it started (each source reads a feed of N firing tokens and
//     EOS, built by runtime::Wiring).
//
// The two backends -- the deterministic simulator (the reference model) and
// the pooled scheduler (the concurrent engine) -- share one firing rule
// (runtime::NodeState, src/runtime/node_state.cpp) and are
// differential-tested bit-identical
// (tests/test_session.cpp, tests/test_stream.cpp), so switching backends
// changes cost, not semantics:
//
//   exec::Session session(graph, kernels);
//   exec::RunSpec spec;
//   spec.backend = exec::Backend::Pooled;
//   spec.num_inputs = 10'000;
//   const auto [compiled, report] = session.compile_and_run(spec);
//
// compile_and_run() chains the process-wide core::CompileCache (or one you
// inject) in front of backend dispatch, so resubmitting a known topology
// skips CS4 decomposition and interval computation entirely.
//
// RunSpec/RunReport (and the Backend enum) live in src/exec/run_types.h,
// which the backends consume directly -- there are no per-backend option or
// result types anymore.
#pragma once

#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "src/core/compile.h"
#include "src/core/compile_cache.h"
#include "src/exec/run_types.h"
#include "src/exec/stream.h"
#include "src/graph/stream_graph.h"
#include "src/obs/metrics.h"
#include "src/qos/admission.h"
#include "src/runtime/kernel.h"

namespace sdaf::runtime {
class PoolExecutor;
}  // namespace sdaf::runtime

namespace sdaf::exec {

class Session {
 public:
  // kernels[n] drives node n. Kernels must be stateless across runs (the
  // wrapper/alignment state is per-run); on the pooled backend a kernel
  // instance is invoked from one thread at a time per run.
  Session(const StreamGraph& g,
          std::vector<std::shared_ptr<runtime::Kernel>> kernels);

  // One execution to completion or deadlock on the chosen backend. Each
  // source reads a pre-closed feed of spec.num_inputs firing tokens plus
  // EOS, so the verdict is the closed-world one: a Sim run that stops
  // progressing is deadlocked, exactly as the paper's sweep rule says.
  // spec.ports must be null (live ports go through open()).
  [[nodiscard]] RunReport run(const RunSpec& spec);

  // Long-lived streaming execution with external ports: push live traffic
  // through InputPorts (dynamic EOS per port) and consume OutputPorts,
  // instead of preconfiguring an item count. See src/exec/stream.h.
  [[nodiscard]] Stream open(StreamSpec spec);

  // Admission-controlled open: predicts the stream's resource footprint
  // from its compiled intervals (qos::estimate over spec.run.intervals),
  // asks `admission` to reserve it, and either opens the stream with the
  // reservation pinned to its lifetime (StreamSpec::lease releases it when
  // the Stream is destroyed) or refuses with the typed rejection -- nothing
  // is allocated or scheduled for a refused open. The same decision the
  // sdafd Open path makes, available in-process.
  struct OpenDecision {
    std::optional<Stream> stream;            // engaged iff admitted
    std::optional<qos::Rejection> rejected;  // engaged iff refused
    qos::TenantCost predicted;               // the cost model's estimate
  };
  [[nodiscard]] OpenDecision open(StreamSpec spec, qos::Admission& admission);

  // Rehydrates an open stream from a Stream::snapshot() cut: node counters,
  // kernel state, edge traffic baselines and undelivered tap residue resume
  // exactly at the barrier; open input ports resume at their cut sequence
  // numbers (the caller replays pushes -- and closes -- from
  // PortCut::next_seq on; clients dedupe re-delivered output by seq, which
  // together give exactly-once egress). The restored stream runs at
  // snapshot.epoch + 1 on spec.run.backend -- snapshots are
  // backend-portable. nullopt = the snapshot does not match this session's
  // compiled topology/avoidance configuration (signature, version, or
  // shape), or is internally inconsistent. See docs/SNAPSHOTS.md.
  [[nodiscard]] std::optional<Stream> restore(
      StreamSpec spec, const ckpt::StreamSnapshot& snapshot);

  // CompileCache -> RunSpec::apply -> backend dispatch. The compile
  // algorithm follows spec.mode (Propagation/NonPropagation); with
  // DummyMode::None the graph is compiled for the report only and the run
  // proceeds without avoidance. When the compile rejects (non-CS4 under
  // GeneralPolicy::Reject), `report` comes back not-completed and
  // `compiled->diagnostics` says why.
  struct CompiledRun {
    std::shared_ptr<const core::CompileResult> compiled;
    RunReport report;
  };
  [[nodiscard]] CompiledRun compile_and_run(
      RunSpec spec, core::CompileOptions options = {},
      core::Rounding rounding = core::Rounding::Floor);

  // Asynchronous submission: submit() never runs the workload inline. The
  // Pooled backend with a shared spec.pool rides the pool's own ticket
  // machinery (the graph must then outlive get(), as it must outlive
  // PoolExecutor::wait); every other configuration is offloaded to a
  // dedicated thread that owns a *copy* of the graph, so neither the
  // Session nor the caller's graph needs to survive until get(). A
  // Pending that is destroyed without get() waits for the offloaded run
  // to finish (std::future semantics) and discards the report.
  class Pending {
   public:
    [[nodiscard]] RunReport get();

   private:
    friend class Session;
    std::future<RunReport> future_;
    runtime::PoolExecutor* pool_ = nullptr;
    std::uint64_t ticket_ = 0;
  };
  [[nodiscard]] Pending submit(const RunSpec& spec);

  // The cache compile_and_run consults; defaults to process_cache().
  void set_compile_cache(core::CompileCache* cache);
  [[nodiscard]] static core::CompileCache& process_cache();

  // Per-tenant roll-up of every run() this Session completed, keyed by
  // RunSpec::tenant and sorted by tenant name: runs, total fires, data vs.
  // dummy traffic (the measured avoidance overhead), the graph's certified
  // channel footprint, and accumulated wall time. Folded from RunReports at
  // run() exit -- zero hot-path cost, available even with RunSpec::metrics
  // unset. Only synchronous run()/compile_and_run() executions fold here;
  // submit()'s asynchronous runs are not tracked (the offloaded path runs
  // inside a throwaway worker Session).
  [[nodiscard]] std::vector<obs::TenantMetrics> metrics() const;

  [[nodiscard]] const StreamGraph& graph() const { return graph_; }

 private:
  void fold_metrics(const RunSpec& spec, const RunReport& report);

  const StreamGraph& graph_;
  std::vector<std::shared_ptr<runtime::Kernel>> kernels_;
  core::CompileCache* cache_;
  mutable std::mutex ledger_mu_;
  std::map<std::string, obs::TenantMetrics> ledger_;
};

}  // namespace sdaf::exec
