// E10 -- end-to-end pooled throughput: what the avoidance wrappers cost
// when the application actually computes. The workload is the
// continuation-edge ladder (workloads::continuation_ladder): a filter stage
// whose dropped items must continue down a relay chain as dummies, so at
// pass rate 0.1 roughly 90% of the wire traffic is avoidance dummies in
// dense consecutive-sequence runs -- the regime the coalescing + batched
// data plane is built for. Pass rate 1.0 isolates wrapper bookkeeping (no
// dummies fire). Each workload runs message-at-a-time (batch=1, the
// paper-faithful pacing and the pre-PR behaviour) and with the batch
// quantum the data plane exists for (batch=64); per-edge traffic is
// bit-identical across the two, only the cost changes. Runs share one
// pool of hardware-concurrency workers per benchmark.
//
// items_per_second is the figure of merit; tools/bench.sh records it in
// BENCH_throughput.json.
#include <benchmark/benchmark.h>

#include "src/core/compile.h"
#include "src/exec/session.h"
#include "src/obs/metrics.h"
#include "src/runtime/pool_executor.h"
#include "src/support/contracts.h"
#include "src/workloads/filters.h"
#include "src/workloads/topologies.h"

namespace {

using namespace sdaf;

constexpr std::uint64_t kItems = 6000;
constexpr std::uint64_t kSpin = 200;  // per-item work per stage
constexpr std::uint32_t kBatch = 64;  // the batched-data-plane quantum

std::vector<std::shared_ptr<runtime::Kernel>> ladder_kernels(
    const StreamGraph& g, double pass_rate, std::uint64_t seed) {
  // Node 1 is the filter stage `a`; every other stage computes but passes.
  std::vector<std::shared_ptr<runtime::Kernel>> kernels;
  for (NodeId n = 0; n < g.node_count(); ++n) {
    const double pass = n == 1 ? pass_rate : 1.0;
    const std::uint64_t node_seed = seed ^ (0x9e37ULL * (n + 1));
    kernels.push_back(std::make_shared<runtime::WorkKernel>(
        kSpin, workloads::bernoulli_filter(pass, node_seed)));
  }
  return kernels;
}

void run_throughput(benchmark::State& state, double pass_rate,
                    std::uint32_t batch) {
  const StreamGraph g = workloads::continuation_ladder(4, 64, 1);
  const auto compiled = core::compile(g);
  SDAF_ASSERT(compiled.ok);
  runtime::PoolExecutor pool;
  std::uint64_t processed = 0;
  std::uint64_t dummies = 0;
  double wall = 0.0;
  for (auto _ : state) {
    exec::Session session(g, ladder_kernels(g, pass_rate, 17));
    exec::RunSpec spec;
    spec.backend = exec::Backend::Pooled;
    spec.pool = &pool;
    spec.mode = runtime::DummyMode::Propagation;
    spec.apply(compiled);
    spec.num_inputs = kItems;
    spec.batch = batch;
    const auto r = session.run(spec);
    SDAF_ASSERT(r.completed);
    processed += kItems;
    dummies += r.total_dummies();
    wall += r.wall_seconds;
  }
  // Rate against the executor's own wall time: the run is multi-threaded,
  // so the benchmark thread's CPU time is not meaningful.
  state.counters["items_per_second"] =
      wall > 0 ? static_cast<double>(processed) / wall : 0.0;
  state.counters["dummies_per_run"] = static_cast<double>(
      dummies / std::max<std::uint64_t>(1, state.iterations()));
  state.counters["batch"] = static_cast<double>(batch);
  state.counters["workers"] = static_cast<double>(pool.worker_count());
}

void BM_Throughput_Pass100(benchmark::State& state) {
  run_throughput(state, /*pass_rate=*/1.0, kBatch);
}
BENCHMARK(BM_Throughput_Pass100)->Iterations(3)->Unit(benchmark::kMillisecond);

void BM_Throughput_Pass50(benchmark::State& state) {
  run_throughput(state, /*pass_rate=*/0.5, kBatch);
}
BENCHMARK(BM_Throughput_Pass50)->Iterations(3)->Unit(benchmark::kMillisecond);

void BM_Throughput_Pass10(benchmark::State& state) {
  run_throughput(state, /*pass_rate=*/0.1, kBatch);
}
BENCHMARK(BM_Throughput_Pass10)->Iterations(3)->Unit(benchmark::kMillisecond);

// Message-at-a-time pacing (the pre-PR data plane's only mode): same
// traffic, one channel op and one wake per message.
void BM_Throughput_Pass100_MsgAtATime(benchmark::State& state) {
  run_throughput(state, /*pass_rate=*/1.0, 1);
}
BENCHMARK(BM_Throughput_Pass100_MsgAtATime)
    ->Iterations(3)->Unit(benchmark::kMillisecond);

void BM_Throughput_Pass50_MsgAtATime(benchmark::State& state) {
  run_throughput(state, /*pass_rate=*/0.5, 1);
}
BENCHMARK(BM_Throughput_Pass50_MsgAtATime)
    ->Iterations(3)->Unit(benchmark::kMillisecond);

void BM_Throughput_Pass10_MsgAtATime(benchmark::State& state) {
  run_throughput(state, /*pass_rate=*/0.1, 1);
}
BENCHMARK(BM_Throughput_Pass10_MsgAtATime)
    ->Iterations(3)->Unit(benchmark::kMillisecond);

// The observability budget: the Pass10/batch=64 workload run back-to-back
// with the obs registry detached and attached, inside one benchmark so the
// pair shares a machine state. The delta is the entire cost of metrics --
// single-writer relaxed counters bumped at the shared firing-core sites.
// metrics_overhead_pct is the recorded figure; the budget is <= 2%
// (indistinguishable from run-to-run noise on this workload).
void BM_Throughput_Pass10_MetricsOverhead(benchmark::State& state) {
  const StreamGraph g = workloads::continuation_ladder(4, 64, 1);
  const auto compiled = core::compile(g);
  SDAF_ASSERT(compiled.ok);
  obs::MetricsRegistry registry(g.node_count(), g.edge_count());
  runtime::PoolExecutor pool;
  std::uint64_t processed = 0;
  double wall_off = 0.0;
  double wall_on = 0.0;
  for (auto _ : state) {
    for (int metrics_on = 0; metrics_on < 2; ++metrics_on) {
      exec::Session session(g, ladder_kernels(g, /*pass_rate=*/0.1, 17));
      exec::RunSpec spec;
      spec.backend = exec::Backend::Pooled;
      spec.pool = &pool;
      spec.mode = runtime::DummyMode::Propagation;
      spec.apply(compiled);
      spec.num_inputs = kItems;
      spec.batch = kBatch;
      if (metrics_on != 0) {
        registry.reset();
        spec.metrics = &registry;
      }
      const auto r = session.run(spec);
      SDAF_ASSERT(r.completed);
      (metrics_on != 0 ? wall_on : wall_off) += r.wall_seconds;
    }
    processed += kItems;
  }
  const double off_rate =
      wall_off > 0 ? static_cast<double>(processed) / wall_off : 0.0;
  const double on_rate =
      wall_on > 0 ? static_cast<double>(processed) / wall_on : 0.0;
  state.counters["items_per_second_metrics_off"] = off_rate;
  state.counters["items_per_second_metrics_on"] = on_rate;
  state.counters["metrics_overhead_pct"] =
      off_rate > 0 ? 100.0 * (off_rate - on_rate) / off_rate : 0.0;
}
BENCHMARK(BM_Throughput_Pass10_MetricsOverhead)
    ->Iterations(5)->Unit(benchmark::kMillisecond);

}  // namespace
