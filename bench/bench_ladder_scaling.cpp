// E7/E8 -- SP-ladder compile scaling (Section VI):
//   * Propagation, paper recurrence:  O(|G|)   (Section VI.A)
//   * Non-Propagation:                O(|G|^3) (Section VI.B)
//   * the whole core::compile pass (recognition, intervals, forward set)
//     under Propagation: O(|G|), with the process's peak RSS
// plus full-graph exponential baseline on small ladders for the blow-up
// contrast. Sizes are rung counts, except for the compile rows, which
// count nodes; component_edges scales |G| per rung.
#include <benchmark/benchmark.h>

#include <fstream>
#include <map>
#include <string>

#include "src/core/compile.h"
#include "src/cs4/decompose.h"
#include "src/intervals/baseline.h"
#include "src/support/contracts.h"
#include "src/support/prng.h"
#include "src/workloads/random_ladder.h"

namespace {

using namespace sdaf;

struct LadderCase {
  StreamGraph graph;
  Cs4Analysis analysis;
};

const LadderCase& ladder_of(std::size_t rungs) {
  static std::map<std::size_t, LadderCase> cache;
  auto it = cache.find(rungs);
  if (it == cache.end()) {
    Prng rng(0xABCD + rungs);
    workloads::RandomLadderOptions opt;
    opt.rungs = rungs;
    opt.left_interior = rungs;
    opt.right_interior = rungs;
    opt.component_edges = 3;
    opt.max_buffer = 16;
    LadderCase c{workloads::random_ladder(rng, opt), {}};
    c.analysis = analyze_cs4(c.graph);
    SDAF_ASSERT(c.analysis.is_cs4);
    it = cache.emplace(rungs, std::move(c)).first;
  }
  return it->second;
}

void BM_LadderProp_PaperRecurrence(benchmark::State& state) {
  const auto& c = ladder_of(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto iv = cs4_propagation_intervals(c.graph, c.analysis);
    benchmark::DoNotOptimize(iv);
  }
  state.counters["edges"] = static_cast<double>(c.graph.edge_count());
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LadderProp_PaperRecurrence)
    ->RangeMultiplier(4)
    ->Range(2, 512)
    ->Complexity(benchmark::oN);

void BM_LadderNonProp(benchmark::State& state) {
  const auto& c = ladder_of(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto iv = cs4_nonprop_intervals(c.graph, c.analysis);
    benchmark::DoNotOptimize(iv);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LadderNonProp)
    ->RangeMultiplier(4)
    ->Range(2, 128)
    ->Complexity(benchmark::oNCubed);

// Ladder recognition + decomposition (skeleton extraction, outer cycle,
// rung layout): the compile step before the interval engines.
void BM_LadderRecognition(benchmark::State& state) {
  const auto& c = ladder_of(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto a = analyze_cs4(c.graph);
    benchmark::DoNotOptimize(a);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LadderRecognition)
    ->RangeMultiplier(4)
    ->Range(2, 128)
    ->Complexity(benchmark::oN);

void BM_LadderProp_ExponentialBaseline(benchmark::State& state) {
  const auto& c = ladder_of(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto iv = propagation_intervals_exact(c.graph);
    benchmark::DoNotOptimize(iv);
  }
}
BENCHMARK(BM_LadderProp_ExponentialBaseline)->RangeMultiplier(2)->Range(2, 8);

// Peak resident set of this process, in MiB, since the last reset (Linux
// resets VmHWM on writing "5" to clear_refs).
void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024;
  return 0;
}

// End-to-end core::compile of a ladder shaped like perfbench's wide_ladder
// workload: r rungs between sides of 2r interior vertices each, so
// 4r + 2 nodes; the argument is the node count.
void BM_Compile_Ladder(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  Prng rng(1);
  workloads::RandomLadderOptions opt;
  opt.rungs = (nodes - 2) / 4;
  opt.left_interior = 2 * opt.rungs;
  opt.right_interior = 2 * opt.rungs;
  opt.max_buffer = 4;
  const StreamGraph g = workloads::random_ladder(rng, opt);
  SDAF_ASSERT(g.node_count() == nodes);
  reset_peak_rss();
  for (auto _ : state) {
    auto compiled = core::compile(g);
    SDAF_ASSERT(compiled.ok);
    benchmark::DoNotOptimize(compiled);
  }
  state.counters["edges"] = static_cast<double>(g.edge_count());
  state.counters["peak_rss_mib"] = peak_rss_mib();
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Compile_Ladder)
    ->Arg(1002)
    ->Arg(2002)
    ->Arg(8002)
    ->Arg(32002)
    ->Unit(benchmark::kMillisecond)
    ->Complexity(benchmark::oN);

}  // namespace
