#include "src/sim/simulation.h"

#include <gtest/gtest.h>

#include <chrono>
#include <initializer_list>

#include "src/core/compile.h"
#include "src/exec/session.h"
#include "src/exec/stream.h"
#include "src/obs/metrics.h"
#include "src/runtime/pool_executor.h"
#include "src/support/prng.h"
#include "src/workloads/filters.h"
#include "src/workloads/random_ladder.h"
#include "src/workloads/random_sp.h"
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


// FNV-1a over 64-bit words: the reference digest below.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ull;
  }
  void add(std::initializer_list<std::uint64_t> vs) {
    for (const std::uint64_t v : vs) add(v);
  }
};

void digest_report(Fnv& f, const exec::RunReport& r) {
  f.add({r.completed ? 1u : 0u, r.deadlocked ? 1u : 0u, r.sweeps,
         r.edges.size()});
  for (const exec::EdgeTraffic& t : r.edges)
    f.add({t.data, t.dummies, static_cast<std::uint64_t>(t.max_occupancy)});
  for (const std::uint64_t v : r.fires) f.add(v);
  for (const std::uint64_t v : r.sink_data) f.add(v);
}

// Every obs counter except full_stalls and empty_waits, which count retry
// attempts (a scheduling artifact), not traffic.
void digest_metrics(Fnv& f, const obs::MetricsRegistry& m) {
  for (NodeId n = 0; n < m.node_count(); ++n) {
    const obs::NodeCounters& c = m.node(n);
    f.add({c.fires.load(), c.data_out.load(), c.dummy_out.load(),
           c.eos_out.load(), c.data_in.load(), c.dummy_in.load()});
  }
  for (EdgeId e = 0; e < m.edge_count(); ++e) {
    const obs::ChannelCounters& c = m.channel(e);
    f.add({c.data_pushed.load(), c.dummies_pushed.load(), c.pops.load(),
           static_cast<std::uint64_t>(c.high_water.load())});
  }
}

// One compiled, metered Simulation::run folded into the digest.
void digest_run(Fnv& f, const StreamGraph& g, DummyMode mode,
                core::Algorithm algorithm, std::uint32_t batch,
                double pass_rate, std::uint64_t seed) {
  core::CompileOptions copt;
  copt.algorithm = algorithm;
  const auto compiled = core::compile(g, copt);
  ASSERT_TRUE(compiled.ok) << compiled.diagnostics;
  obs::MetricsRegistry metrics(g.node_count(), g.edge_count());
  exec::RunSpec spec;
  spec.mode = mode;
  spec.apply(compiled);
  spec.num_inputs = 400;
  spec.batch = batch;
  spec.metrics = &metrics;
  Simulation sim(g, workloads::relay_kernels(g, pass_rate, seed));
  const exec::RunReport r = sim.run(spec);
  EXPECT_TRUE(r.completed) << "seed " << seed << " batch " << batch;
  digest_report(f, r);
  digest_metrics(f, metrics);
}

// The sim reference pinned to a digest: per-edge traffic and high water,
// fires, sink deliveries, sweeps and verdicts, plus the obs counters, over
// random ladders and SP graphs in both dummy modes at batch 1 and 64, a
// wedging unprotected triangle, and a snapshot -> restore. The sim and the
// pooled backend share their channel code, so the sim == pooled parity
// tests cannot see a change to it; this digest, recorded before the sim
// moved onto runtime::BoundedChannel, does.
TEST(Sim, ReferenceDigestPinned) {
  Fnv f;
  const DummyMode modes[] = {DummyMode::Propagation,
                             DummyMode::NonPropagation};
  const core::Algorithm algorithms[] = {core::Algorithm::Propagation,
                                        core::Algorithm::NonPropagation};
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Prng rng(seed);
    workloads::RandomLadderOptions lopt;
    lopt.rungs = 2 + seed;
    lopt.component_edges = 2;
    lopt.max_buffer = 4;
    const StreamGraph ladder = workloads::random_ladder(rng, lopt);
    workloads::RandomSpOptions sopt;
    sopt.target_edges = 10 + 4 * seed;
    sopt.max_buffer = 4;
    const StreamGraph sp = workloads::random_sp(rng, sopt).graph;
    for (const StreamGraph* g : {&ladder, &sp})
      for (int m = 0; m < 2; ++m)
        for (const std::uint32_t batch : {1u, 64u})
          digest_run(f, *g, modes[m], algorithms[m], batch, 0.3, seed);
  }

  {
    // Unprotected Fig. 2 triangle: the exact sweep verdict and the wedge.
    const StreamGraph g = workloads::fig2_triangle(2, 2, 2);
    obs::MetricsRegistry metrics(g.node_count(), g.edge_count());
    exec::RunSpec spec;
    spec.mode = DummyMode::None;
    spec.num_inputs = 100;
    spec.metrics = &metrics;
    Simulation sim(g, triangle_kernels(100));
    const exec::RunReport r = sim.run(spec);
    EXPECT_TRUE(r.deadlocked);
    digest_report(f, r);
    digest_metrics(f, metrics);
  }

  {
    // Snapshot a ladder stream mid-way, restore it, replay the tail.
    Prng rng(7);
    workloads::RandomLadderOptions lopt;
    lopt.max_buffer = 4;
    const StreamGraph g = workloads::random_ladder(rng, lopt);
    const auto compiled = core::compile(g);
    ASSERT_TRUE(compiled.ok) << compiled.diagnostics;
    exec::StreamSpec ss;
    ss.run.backend = exec::Backend::Sim;
    ss.run.mode = DummyMode::Propagation;
    ss.run.apply(compiled);
    ckpt::StreamSnapshot snap;
    {
      exec::Session session(g, workloads::relay_kernels(g, 0.3, 7));
      exec::Stream stream = session.open(ss);
      for (std::int64_t i = 0; i < 150; ++i)
        ASSERT_TRUE(stream.input(0).push(runtime::Value(i)));
      auto taken = stream.snapshot(std::chrono::milliseconds(5000));
      ASSERT_TRUE(taken.has_value());
      snap = std::move(*taken);
      (void)stream.finish();
    }
    f.add({snap.barrier_seq, snap.sweeps, snap.taps[0].residue.size()});
    for (const ckpt::NodeCut& c : snap.nodes) {
      f.add({c.done, c.fires, c.sink_data, c.source_seq});
      for (const std::int64_t v : c.last_sent)
        f.add(static_cast<std::uint64_t>(v));
    }
    for (const ckpt::EdgeCut& c : snap.edges)
      f.add({c.data_pushed, c.dummies_pushed});
    exec::Session session(g, workloads::relay_kernels(g, 0.3, 7));
    auto restored = session.restore(ss, snap);
    ASSERT_TRUE(restored.has_value());
    for (std::int64_t i = 150; i < 400; ++i)
      ASSERT_TRUE(restored->input(0).push(runtime::Value(i)));
    restored->input(0).close();
    std::uint64_t delivered = 0;
    while (restored->output(0).next().has_value()) ++delivered;
    const exec::RunReport r = restored->finish();
    EXPECT_TRUE(r.completed);
    f.add(delivered);
    digest_report(f, r);
  }

  EXPECT_EQ(f.h, 0x4e273403fb98735dull) << "digest 0x" << std::hex << f.h;
}

}  // namespace
}  // namespace sdaf::sim
