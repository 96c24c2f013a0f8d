// Ablations for the forward-on-filter rule (core::CompileResult::
// forward_on_filter()).
//
// 1. Paper-literal Propagation protocol (no continuation forwarding) vs
//    the augmented protocol: deadlock rate over random CS4 chains with
//    interior filtering (the rule's counterexample is
//    Executor.InteriorFilteringCounterexample).
// 2. Forwarding traffic cost: dummies with the augmented Propagation
//    protocol vs Non-Propagation on the same interior-filtering workload.
#include <benchmark/benchmark.h>

#include "src/core/compile.h"
#include "src/exec/session.h"
#include "src/support/contracts.h"
#include "src/support/prng.h"
#include "src/workloads/filters.h"
#include "src/workloads/random_ladder.h"

namespace {

using namespace sdaf;

void BM_Ablation_PaperLiteralPropagation_DeadlockRate(
    benchmark::State& state) {
  const bool forward = state.range(0) != 0;
  std::size_t deadlocks = 0;
  std::size_t runs = 0;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    Prng rng(seed * 7211 + 3);
    workloads::RandomCs4Options gopt;
    gopt.components = 1 + seed % 3;
    gopt.ladder.rungs = 1 + seed % 3;
    gopt.sp.target_edges = 5;
    gopt.sp.max_buffer = 4;
    gopt.ladder.max_buffer = 4;
    const auto g = workloads::random_cs4_chain(rng, gopt);
    const auto compiled = core::compile(g);
    SDAF_ASSERT(compiled.ok);
    exec::Session session(g,
                          workloads::relay_kernels(g, 0.5, seed * 31 + 1));
    exec::RunSpec spec;
    spec.backend = exec::Backend::Sim;
    spec.mode = runtime::DummyMode::Propagation;
    spec.intervals = compiled.integer_intervals(core::Rounding::Floor);
    if (forward) spec.forward_on_filter = compiled.forward_on_filter();
    spec.num_inputs = 400;
    deadlocks += session.run(spec).deadlocked ? 1 : 0;
    ++runs;
    ++seed;
  }
  state.counters["deadlock_rate"] =
      runs == 0 ? 0.0
                : static_cast<double>(deadlocks) / static_cast<double>(runs);
}
BENCHMARK(BM_Ablation_PaperLiteralPropagation_DeadlockRate)
    ->Arg(0)   // paper-literal: schedules + dummy forwarding only
    ->Arg(1)   // augmented: + continuation forwarding
    ->Iterations(60);

void BM_Ablation_ForwardingTrafficCost(benchmark::State& state) {
  // Interior-filtering pipeline inside a cycle: every hop filters, so the
  // Propagation Algorithm pays per-filter forwarding on continuation
  // edges; Non-Propagation amortizes via L/h schedules.
  Prng rng(4242);
  workloads::RandomLadderOptions gopt;
  gopt.rungs = 3;
  gopt.component_edges = 3;
  gopt.max_buffer = 8;
  const auto g = workloads::random_ladder(rng, gopt);
  const bool nonprop = state.range(0) != 0;
  core::CompileOptions copt;
  copt.algorithm = nonprop ? core::Algorithm::NonPropagation
                           : core::Algorithm::Propagation;
  const auto compiled = core::compile(g, copt);
  SDAF_ASSERT(compiled.ok);
  std::uint64_t dummies = 0;
  std::uint64_t seed = 7;
  for (auto _ : state) {
    exec::Session session(g, workloads::relay_kernels(g, 0.6, seed++));
    exec::RunSpec spec;
    spec.backend = exec::Backend::Sim;
    spec.mode = nonprop ? runtime::DummyMode::NonPropagation
                        : runtime::DummyMode::Propagation;
    spec.apply(compiled);
    spec.num_inputs = 3000;
    const auto r = session.run(spec);
    SDAF_ASSERT(r.completed);
    dummies = r.total_dummies();
  }
  state.counters["dummies"] = static_cast<double>(dummies);
}
BENCHMARK(BM_Ablation_ForwardingTrafficCost)->Arg(0)->Arg(1)->Iterations(3);

}  // namespace
