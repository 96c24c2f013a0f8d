#include "src/sim/simulation.h"

#include <gtest/gtest.h>

#include "src/core/compile.h"
#include "src/runtime/pool_executor.h"
#include "src/workloads/filters.h"
#include "src/workloads/topologies.h"

namespace sdaf::sim {
namespace {

using runtime::DummyMode;
using runtime::Kernel;
using runtime::RelayKernel;

std::vector<std::shared_ptr<Kernel>> triangle_kernels(std::uint64_t prefix) {
  std::vector<std::shared_ptr<Kernel>> kernels;
  kernels.push_back(std::make_shared<RelayKernel>(
      workloads::adversarial_prefix_filter(1, prefix)));
  kernels.push_back(runtime::pass_through_kernel());
  kernels.push_back(runtime::pass_through_kernel());
  return kernels;
}

TEST(Sim, PipelineCompletes) {
  const StreamGraph g = workloads::pipeline(4, 2);
  Simulation sim(g, workloads::passthrough_kernels(g));
  exec::RunSpec opt;
  opt.mode = DummyMode::None;
  opt.num_inputs = 100;
  const auto r = sim.run(opt);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.sink_data.back(), 100u);
}

TEST(Sim, Fig2DeadlocksWithoutDummies) {
  const StreamGraph g = workloads::fig2_triangle(2, 2, 2);
  Simulation sim(g, triangle_kernels(100));
  exec::RunSpec opt;
  opt.mode = DummyMode::None;
  opt.num_inputs = 100;
  const auto r = sim.run(opt);
  EXPECT_TRUE(r.deadlocked);
  EXPECT_FALSE(r.completed);
}

TEST(Sim, Fig2DeadlockThresholdTracksBufferSlack) {
  // Deadlock needs the A->B->C path full while A->C stays empty. The total
  // slack on the full side is b1 + b2 buffer slots plus scheduler-dependent
  // in-hand messages, so the minimal deadlocking adversarial prefix must be
  // finite, strictly beyond the buffer capacity, and deadlock must be
  // monotone in the prefix length.
  for (const std::int64_t b : {1, 2, 3}) {
    const StreamGraph g = workloads::fig2_triangle(b, b, 2);
    const auto deadlocks = [&](std::uint64_t prefix) {
      Simulation sim(g, triangle_kernels(prefix));
      exec::RunSpec opt;
      opt.mode = DummyMode::None;
      opt.num_inputs = 1000;
      const auto r = sim.run(opt);
      EXPECT_NE(r.completed, r.deadlocked);
      return r.deadlocked;
    };
    std::uint64_t threshold = 0;
    for (std::uint64_t p = 1; p <= 3 * static_cast<std::uint64_t>(b) + 4;
         ++p) {
      if (deadlocks(p)) {
        threshold = p;
        break;
      }
    }
    ASSERT_GT(threshold, 0u) << "no finite prefix deadlocked, b=" << b;
    // The theory's lower bound: while fewer than b1+b2 items have entered
    // the full side, it cannot be full, so no deadlock.
    EXPECT_GT(threshold, static_cast<std::uint64_t>(2 * b)) << "b=" << b;
    // Monotone: anything at or past the threshold also deadlocks.
    EXPECT_TRUE(deadlocks(threshold + 1));
    EXPECT_TRUE(deadlocks(threshold + 7));
    EXPECT_FALSE(deadlocks(threshold - 1));
  }
}

TEST(Sim, Fig2SafeWithIntervals) {
  const StreamGraph g = workloads::fig2_triangle(2, 2, 2);
  const auto compiled = core::compile(g);
  Simulation sim(g, triangle_kernels(1000));
  exec::RunSpec opt;
  opt.mode = DummyMode::Propagation;
  opt.intervals = compiled.integer_intervals(core::Rounding::Floor);
  opt.forward_on_filter = compiled.forward_on_filter();
  opt.num_inputs = 1000;
  const auto r = sim.run(opt);
  EXPECT_TRUE(r.completed);
  EXPECT_GT(r.total_dummies(), 0u);
}

TEST(Sim, MatchesExecutorTrafficExactly) {
  // Identical kernels and seeds: the deterministic simulator and the
  // pooled executor must produce identical per-edge message counts.
  const StreamGraph g = workloads::fig1_splitjoin(3);
  const auto compiled = core::compile(g);
  const auto intervals = compiled.integer_intervals(core::Rounding::Floor);
  const auto forward = compiled.forward_on_filter();
  for (const double p : {0.3, 0.7, 1.0}) {
    exec::RunSpec sopt;
    sopt.mode = DummyMode::Propagation;
    sopt.intervals = intervals;
    sopt.forward_on_filter = forward;
    sopt.num_inputs = 300;
    Simulation sim(g, workloads::relay_kernels(g, p, 42));
    const auto sr = sim.run(sopt);
    ASSERT_TRUE(sr.completed);

    exec::RunSpec xopt;
    xopt.mode = DummyMode::Propagation;
    xopt.intervals = intervals;
    xopt.forward_on_filter = forward;
    xopt.num_inputs = 300;
    runtime::PoolExecutor pool(2);
    const auto xr = pool.run(g, workloads::relay_kernels(g, p, 42), xopt);
    ASSERT_TRUE(xr.completed);

    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      EXPECT_EQ(sr.edges[e].data, xr.edges[e].data) << "edge " << e;
      EXPECT_EQ(sr.edges[e].dummies, xr.edges[e].dummies) << "edge " << e;
    }
    EXPECT_EQ(sr.fires, xr.fires);
    EXPECT_EQ(sr.sink_data, xr.sink_data);
  }
}

TEST(Sim, DeterministicAcrossRuns) {
  const StreamGraph g = workloads::fig1_splitjoin(2);
  exec::RunSpec opt;
  opt.mode = DummyMode::NonPropagation;
  opt.intervals.assign(g.edge_count(), 2);
  opt.num_inputs = 500;
  Simulation a(g, workloads::relay_kernels(g, 0.5, 7));
  Simulation b(g, workloads::relay_kernels(g, 0.5, 7));
  const auto ra = a.run(opt);
  const auto rb = b.run(opt);
  EXPECT_EQ(ra.sweeps, rb.sweeps);
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    EXPECT_EQ(ra.edges[e].data, rb.edges[e].data);
    EXPECT_EQ(ra.edges[e].dummies, rb.edges[e].dummies);
  }
}

TEST(Sim, MaxOccupancyBounded) {
  const StreamGraph g = workloads::fig1_splitjoin(3);
  Simulation sim(g, workloads::passthrough_kernels(g));
  exec::RunSpec opt;
  opt.mode = DummyMode::None;
  opt.num_inputs = 100;
  const auto r = sim.run(opt);
  for (EdgeId e = 0; e < g.edge_count(); ++e)
    EXPECT_LE(r.edges[e].max_occupancy, g.edge(e).buffer);
}

TEST(Sim, SweepGuardReportsNeither) {
  const StreamGraph g = workloads::pipeline(3, 1);
  Simulation sim(g, workloads::passthrough_kernels(g));
  exec::RunSpec opt;
  opt.mode = DummyMode::None;
  opt.num_inputs = 1000;
  opt.max_sweeps = 3;  // far too few
  const auto r = sim.run(opt);
  EXPECT_FALSE(r.completed);
  EXPECT_FALSE(r.deadlocked);
}

}  // namespace
}  // namespace sdaf::sim
