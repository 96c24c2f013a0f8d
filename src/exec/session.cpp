#include "src/exec/session.h"

#include "src/runtime/pool_executor.h"
#include "src/sim/simulation.h"
#include "src/support/contracts.h"
#include "src/support/timer.h"

namespace sdaf::exec {

Session::Session(const StreamGraph& g,
                 std::vector<std::shared_ptr<runtime::Kernel>> kernels)
    : graph_(g), kernels_(std::move(kernels)), cache_(&process_cache()) {
  SDAF_EXPECTS(kernels_.size() == g.node_count());
  for (const auto& k : kernels_) SDAF_EXPECTS(k != nullptr);
}

core::CompileCache& Session::process_cache() {
  static core::CompileCache cache(256);
  return cache;
}

void Session::set_compile_cache(core::CompileCache* cache) {
  SDAF_EXPECTS(cache != nullptr);
  cache_ = cache;
}

RunReport Session::run(const RunSpec& spec) {
  SDAF_EXPECTS(spec.ports == nullptr);
  // The backends consume RunSpec directly (ignoring the fields that do not
  // apply to them), so dispatch is just construction + run.
  RunReport report;
  switch (spec.backend) {
    case Backend::Sim: {
      Stopwatch clock;
      sim::Simulation simulation(graph_, kernels_);
      report = simulation.run(spec);
      report.wall_seconds = clock.elapsed_seconds();
      break;
    }
    case Backend::Pooled: {
      if (spec.pool != nullptr) {
        report = spec.pool->run(graph_, kernels_, spec);
      } else {
        runtime::PoolExecutor::Options popt;
        popt.workers = spec.pool_workers;
        runtime::PoolExecutor pool(popt);
        report = pool.run(graph_, kernels_, spec);
      }
      break;
    }
  }
  fold_metrics(spec, report);
  return report;
}

void Session::fold_metrics(const RunSpec& spec, const RunReport& report) {
  std::lock_guard lock(ledger_mu_);
  obs::TenantMetrics& t = ledger_[spec.tenant];
  t.tenant = spec.tenant;
  t.runs += 1;
  for (const std::uint64_t f : report.fires) t.items_fired += f;
  for (const EdgeTraffic& e : report.edges) {
    t.data_items += e.data;
    t.dummy_items += e.dummies;
  }
  const std::uint64_t total = t.data_items + t.dummy_items;
  t.dummy_overhead_ratio =
      total == 0 ? 0.0
                 : static_cast<double>(t.dummy_items) /
                       static_cast<double>(total);
  // The certified buffer footprint of this Session's graph: what the
  // avoidance analysis reserves for the tenant, independent of traffic.
  std::uint64_t slots = 0;
  for (EdgeId e = 0; e < graph_.edge_count(); ++e)
    slots += static_cast<std::uint64_t>(graph_.edge(e).buffer);
  t.channel_slots = slots;
  t.channel_bytes = slots * sizeof(runtime::Message);
  t.wall_seconds += report.wall_seconds;
}

std::vector<obs::TenantMetrics> Session::metrics() const {
  std::lock_guard lock(ledger_mu_);
  std::vector<obs::TenantMetrics> out;
  out.reserve(ledger_.size());
  for (const auto& [name, t] : ledger_) out.push_back(t);
  return out;
}

Session::CompiledRun Session::compile_and_run(RunSpec spec,
                                              core::CompileOptions options,
                                              core::Rounding rounding) {
  // Keep the compile algorithm consistent with the requested dummy mode so
  // the intervals handed to the wrappers match the protocol they run.
  if (spec.mode == runtime::DummyMode::Propagation)
    options.algorithm = core::Algorithm::Propagation;
  else if (spec.mode == runtime::DummyMode::NonPropagation)
    options.algorithm = core::Algorithm::NonPropagation;

  CompiledRun out;
  out.compiled = cache_->get_or_compile(graph_, options);
  out.report.backend = spec.backend;
  if (!out.compiled->ok) return out;  // rejected: report stays not-run
  if (spec.mode != runtime::DummyMode::None) spec.apply(*out.compiled, rounding);
  out.report = run(spec);
  return out;
}

RunReport Session::Pending::get() {
  // Each Pending may be get() exactly once, on every backend path.
  if (future_.valid()) return future_.get();
  SDAF_ASSERT(pool_ != nullptr);
  runtime::PoolExecutor* pool = pool_;
  pool_ = nullptr;
  return pool->wait(ticket_);
}

Session::Pending Session::submit(const RunSpec& spec) {
  Pending pending;
  if (spec.backend == Backend::Pooled && spec.pool != nullptr) {
    pending.pool_ = spec.pool;
    pending.ticket_ = spec.pool->submit(graph_, kernels_, spec);
  } else {
    // Thread-offload so Pending::get() never runs the workload inline on
    // any backend. The worker owns a copy of the graph and re-fronts it
    // with a throwaway Session, so neither this Session nor the caller's
    // graph needs to outlive get() (unlike the shared-pool path, whose
    // ticket machinery keeps the historical graph-outlives-wait contract).
    pending.future_ = std::async(
        std::launch::async,
        [graph = graph_, kernels = kernels_, spec]() mutable {
          Session worker(graph, std::move(kernels));
          return worker.run(spec);
        });
  }
  return pending;
}

}  // namespace sdaf::exec
