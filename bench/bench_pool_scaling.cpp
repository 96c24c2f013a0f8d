// Pooled scheduler on large SP-ladders: the pool runs N-node graphs on a
// fixed worker count (1-16), where the paper's thread-per-node model would
// need N OS threads (10k threads is exactly the regime the pool exists to
// avoid).
// items_per_second follows bench_throughput's convention: rate against the
// run's own wall time.
#include <benchmark/benchmark.h>

#include <ctime>
#include <map>
#include <thread>

#include "src/core/compile_cache.h"
#include "src/exec/session.h"
#include "src/runtime/pool_executor.h"
#include "src/support/contracts.h"
#include "src/support/prng.h"
#include "src/workloads/filters.h"
#include "src/workloads/random_ladder.h"

namespace {

using namespace sdaf;

constexpr std::uint64_t kItems = 32;

// Ladder with ~`nodes` nodes: source + sink + two interior sides.
const StreamGraph& ladder_of(std::size_t nodes) {
  static std::map<std::size_t, StreamGraph> cache;
  auto it = cache.find(nodes);
  if (it == cache.end()) {
    Prng rng(0xBEEF ^ nodes);
    workloads::RandomLadderOptions opt;
    opt.rungs = nodes / 4;
    opt.left_interior = nodes / 2;
    opt.right_interior = nodes / 2;
    opt.component_edges = 1;
    opt.max_buffer = 4;
    it = cache.emplace(nodes, workloads::random_ladder(rng, opt)).first;
  }
  return it->second;
}

void BM_PoolExecutor_Ladder(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  const auto workers = static_cast<std::size_t>(state.range(1));
  const StreamGraph& g = ladder_of(nodes);
  runtime::PoolExecutor pool(workers);
  exec::Session session(g, workloads::passthrough_kernels(g));
  exec::RunSpec spec;
  spec.backend = exec::Backend::Pooled;
  spec.pool = &pool;
  spec.mode = runtime::DummyMode::None;
  spec.num_inputs = kItems;
  std::uint64_t processed = 0;
  double wall = 0.0;
  for (auto _ : state) {
    const auto r = session.run(spec);
    SDAF_ASSERT(r.completed);
    processed += kItems;
    wall += r.wall_seconds;
  }
  state.counters["nodes"] = static_cast<double>(g.node_count());
  state.counters["workers"] = static_cast<double>(workers);
  state.counters["items_per_second"] =
      wall > 0 ? static_cast<double>(processed) / wall : 0.0;
}
BENCHMARK(BM_PoolExecutor_Ladder)
    ->ArgsProduct({{100, 1000, 10000}, {1, 2, 4, 8, 16}})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

// The CI scaling ladder: batch=1 pooled runs at 1, 4, 8 and 16 workers
// whose counters let tools/ci.sh assert real work-stealing scaling instead
// of silently passing on a 1-cpu runner. effective_parallelism is process
// CPU time over wall time across the measured runs: ~1.0 means the workers
// serialized (or the runner has one core), ~W means W workers were busy --
// futex-parked idle workers burn no CPU, so oversized pools don't inflate
// it. Busy is not the same as useful: workers spinning on a contended cache
// line count as parallelism too, so the 1- and 4-worker rows give the
// real speedup (tools/bench.sh prints the 1000-node 1 -> 4 ratio).
// hardware_concurrency rides along so a reader (and tools/bench.sh) can
// tell "scheduler regressed" from "machine cannot scale".
void BM_PoolExecutor_LadderScaling(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  const auto workers = static_cast<std::size_t>(state.range(1));
  const StreamGraph& g = ladder_of(nodes);
  runtime::PoolExecutor pool(workers);
  exec::Session session(g, workloads::passthrough_kernels(g));
  exec::RunSpec spec;
  spec.backend = exec::Backend::Pooled;
  spec.pool = &pool;
  spec.mode = runtime::DummyMode::None;
  spec.num_inputs = kItems;
  spec.batch = 1;
  std::uint64_t processed = 0;
  double wall = 0.0;
  const std::clock_t cpu_start = std::clock();
  for (auto _ : state) {
    const auto r = session.run(spec);
    SDAF_ASSERT(r.completed);
    processed += kItems;
    wall += r.wall_seconds;
  }
  const double cpu_seconds =
      static_cast<double>(std::clock() - cpu_start) / CLOCKS_PER_SEC;
  state.counters["nodes"] = static_cast<double>(g.node_count());
  state.counters["workers"] = static_cast<double>(workers);
  state.counters["items_per_second"] =
      wall > 0 ? static_cast<double>(processed) / wall : 0.0;
  state.counters["effective_parallelism"] = wall > 0 ? cpu_seconds / wall : 0.0;
  state.counters["hardware_concurrency"] =
      static_cast<double>(std::thread::hardware_concurrency());
}
BENCHMARK(BM_PoolExecutor_LadderScaling)
    ->ArgsProduct({{100, 1000}, {1, 4, 8, 16}})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

// Pooled data plane under filtering: the same ladder with Bernoulli
// filtering and Propagation avoidance armed, at pass rates 1.0 / 0.5 / 0.1.
// Low pass rates make the wire traffic dummy-dominated, which is the regime
// dummy run-length coalescing and batched channel ops are built for.
void BM_PoolExecutor_Filtering(benchmark::State& state) {
  constexpr std::uint32_t kFilterBatch = 32;
  const auto pass_pct = static_cast<double>(state.range(0)) / 100.0;
  const StreamGraph& g = ladder_of(100);
  const auto compiled = core::compile(g);
  SDAF_ASSERT(compiled.ok);
  runtime::PoolExecutor pool(2);
  exec::Session session(g, workloads::relay_kernels(g, pass_pct, 1234));
  exec::RunSpec spec;
  spec.backend = exec::Backend::Pooled;
  spec.pool = &pool;
  spec.mode = runtime::DummyMode::Propagation;
  spec.apply(compiled);
  spec.num_inputs = 512;
  spec.batch = kFilterBatch;
  std::uint64_t processed = 0;
  std::uint64_t dummies = 0;
  double wall = 0.0;
  for (auto _ : state) {
    const auto r = session.run(spec);
    SDAF_ASSERT(r.completed);
    processed += spec.num_inputs;
    dummies += r.total_dummies();
    wall += r.wall_seconds;
  }
  state.counters["pass_rate"] = pass_pct;
  state.counters["items_per_second"] =
      wall > 0 ? static_cast<double>(processed) / wall : 0.0;
  state.counters["dummies_per_run"] = static_cast<double>(
      dummies / std::max<std::uint64_t>(1, state.iterations()));
}
BENCHMARK(BM_PoolExecutor_Filtering)
    ->Arg(100)
    ->Arg(50)
    ->Arg(10)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

// Compile-pass amortization for multi-tenant submission: first submission
// pays CS4 decomposition + intervals; the next 63 hit core::CompileCache.
void BM_CompileCache_Resubmission(benchmark::State& state) {
  const StreamGraph& g = ladder_of(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    core::CompileCache cache(16);
    for (int i = 0; i < 64; ++i) {
      auto r = cache.get_or_compile(g);
      benchmark::DoNotOptimize(r);
    }
    const auto s = cache.stats();
    SDAF_ASSERT(s.misses == 1 && s.hits == 63);
  }
  state.counters["nodes"] =
      static_cast<double>(g.node_count());
}
BENCHMARK(BM_CompileCache_Resubmission)->Arg(100)->Arg(1000);

void BM_Compile_NoCache(benchmark::State& state) {
  const StreamGraph& g = ladder_of(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      auto r = core::compile(g);
      benchmark::DoNotOptimize(r);
    }
  }
  state.counters["nodes"] = static_cast<double>(g.node_count());
}
BENCHMARK(BM_Compile_NoCache)->Arg(100)->Arg(1000);

}  // namespace
