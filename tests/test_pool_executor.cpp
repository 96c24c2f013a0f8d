#include "src/runtime/pool_executor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <thread>

#include "src/core/compile.h"
#include "src/exec/session.h"
#include "src/exec/stream.h"
#include "src/obs/metrics.h"
#include "src/sim/simulation.h"
#include "src/support/prng.h"
#include "src/workloads/filters.h"
#include "src/workloads/random_ladder.h"
#include "src/workloads/topologies.h"
#include "tests/harness/stress_harness.h"

namespace sdaf::runtime {
namespace {

// The differential harness: one workload through the deterministic
// simulator and the pooled scheduler must produce bit-identical sink data,
// per-edge traffic, and the same completion/deadlock verdict -- they
// implement one semantics.
struct ParityCase {
  const StreamGraph& graph;
  DummyMode mode;
  std::vector<std::int64_t> intervals;
  std::vector<std::uint8_t> forward_on_filter;
  std::uint64_t num_inputs = 0;
  double pass_rate = 1.0;
  std::uint64_t seed = 0;
};

std::vector<std::shared_ptr<Kernel>> case_kernels(const ParityCase& c) {
  return workloads::relay_kernels(c.graph, c.pass_rate, c.seed);
}

exec::RunReport run_sim(const ParityCase& c) {
  sim::Simulation s(c.graph, case_kernels(c));
  exec::RunSpec opt;
  opt.mode = c.mode;
  opt.intervals = c.intervals;
  opt.forward_on_filter = c.forward_on_filter;
  opt.num_inputs = c.num_inputs;
  return s.run(opt);
}

exec::RunSpec executor_options(const ParityCase& c) {
  exec::RunSpec opt;
  opt.mode = c.mode;
  opt.intervals = c.intervals;
  opt.forward_on_filter = c.forward_on_filter;
  opt.num_inputs = c.num_inputs;
  return opt;
}

void expect_parity(const exec::RunReport& expected,
                   const exec::RunReport& actual, const std::string& label) {
  ASSERT_EQ(expected.deadlocked, actual.deadlocked) << label;
  ASSERT_EQ(expected.completed, actual.completed) << label;
  ASSERT_EQ(expected.sink_data, actual.sink_data) << label;
  ASSERT_EQ(expected.fires, actual.fires) << label;
  ASSERT_EQ(expected.edges.size(), actual.edges.size()) << label;
  for (std::size_t e = 0; e < expected.edges.size(); ++e) {
    EXPECT_EQ(expected.edges[e].data, actual.edges[e].data)
        << label << " edge " << e;
    EXPECT_EQ(expected.edges[e].dummies, actual.edges[e].dummies)
        << label << " edge " << e;
  }
}

void check_pool_parity(PoolExecutor& pool, const ParityCase& c,
                       const std::string& label) {
  const auto expected = run_sim(c);
  const auto pooled = pool.run(c.graph, case_kernels(c), executor_options(c));
  expect_parity(expected, pooled, label + " [pool]");
}

TEST(PoolExecutor, PipelineDeliversEverything) {
  const StreamGraph g = workloads::pipeline(4, 2);
  PoolExecutor pool(2);
  exec::RunSpec opt;
  opt.mode = DummyMode::None;
  opt.num_inputs = 100;
  const auto r = pool.run(g, workloads::passthrough_kernels(g), opt);
  EXPECT_TRUE(r.completed);
  EXPECT_FALSE(r.deadlocked);
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    EXPECT_EQ(r.edges[e].data, 100u);
    EXPECT_EQ(r.edges[e].dummies, 0u);
  }
  EXPECT_EQ(r.sink_data.back(), 100u);
}

TEST(PoolExecutor, Fig2DeadlockVerdictIsExact) {
  // Fig. 2's triangle with the adversarial filter and no dummies: the
  // simulator proves deadlock; the pool's quiescence check must agree
  // without any timing.
  const StreamGraph g = workloads::fig2_triangle(2, 2, 2);
  auto kernels = [&] {
    std::vector<std::shared_ptr<Kernel>> k;
    k.push_back(std::make_shared<RelayKernel>(
        workloads::adversarial_prefix_filter(1, 100)));
    k.push_back(pass_through_kernel());
    k.push_back(pass_through_kernel());
    return k;
  };
  sim::Simulation s(g, kernels());
  exec::RunSpec sopt;
  sopt.mode = DummyMode::None;
  sopt.num_inputs = 100;
  const auto expected = s.run(sopt);
  ASSERT_TRUE(expected.deadlocked);

  PoolExecutor pool(2);
  exec::RunSpec opt;
  opt.mode = DummyMode::None;
  opt.num_inputs = 100;
  const auto r = pool.run(g, kernels(), opt);
  EXPECT_TRUE(r.deadlocked);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(expected.sink_data, r.sink_data);
}

TEST(PoolExecutor, Fig2SafeWithCompiledIntervalsBothModes) {
  const StreamGraph g = workloads::fig2_triangle(2, 2, 2);
  PoolExecutor pool(2);
  for (const auto algorithm :
       {core::Algorithm::Propagation, core::Algorithm::NonPropagation}) {
    core::CompileOptions copt;
    copt.algorithm = algorithm;
    const auto compiled = core::compile(g, copt);
    ASSERT_TRUE(compiled.ok);
    ParityCase c{g,
                 algorithm == core::Algorithm::Propagation
                     ? DummyMode::Propagation
                     : DummyMode::NonPropagation,
                 compiled.integer_intervals(core::Rounding::Floor),
                 {},
                 /*num_inputs=*/100,
                 /*pass_rate=*/1.0,
                 /*seed=*/7};
    if (algorithm == core::Algorithm::Propagation)
      c.forward_on_filter = compiled.forward_on_filter();
    // The triangle needs the adversarial kernels, not relays: build inline.
    std::vector<std::shared_ptr<Kernel>> kernels;
    kernels.push_back(std::make_shared<RelayKernel>(
        workloads::adversarial_prefix_filter(1, 100)));
    kernels.push_back(pass_through_kernel());
    kernels.push_back(pass_through_kernel());
    const auto r = pool.run(g, std::move(kernels), executor_options(c));
    EXPECT_TRUE(r.completed) << to_string(algorithm);
    EXPECT_GT(r.edges[2].dummies, 0u) << to_string(algorithm);  // A->C
    EXPECT_EQ(r.sink_data[2], 100u);
  }
}

TEST(PoolExecutor, RandomizedParityWithSimulatorBothModes) {
  // >= 100 randomized workloads x both dummy algorithms, bit-identical
  // against the simulator. SP-DAGs and SP-ladders, random filtering; ported
  // onto the stress harness, which prints a one-line repro on mismatch.
  Prng rng(0x9A417EE5);
  PoolExecutor pool(3);
  int cases = 0;
  for (int i = 0; i < 55; ++i) {
    for (const auto mode :
         {DummyMode::Propagation, DummyMode::NonPropagation}) {
      harness::CaseSpec spec;
      spec.topology =
          i < 30 ? harness::Topology::Sp : harness::Topology::Ladder;
      spec.seed = rng.next_u64();
      spec.num_inputs = 40 + rng.next_below(60);
      spec.pass_rate = 0.3 + 0.7 * rng.next_double();
      spec.mode = mode;
      spec.batch = 1;
      const auto failure = harness::run_differential(spec, &pool);
      ASSERT_FALSE(failure.has_value()) << *failure;
      ++cases;
    }
  }
  EXPECT_GE(cases, 100);
}

TEST(PoolExecutor, MultiTenantInstancesInterleave) {
  // Several concurrent instances of different graphs on one pool: each
  // result must match its own simulator run, untouched by co-tenants.
  const StreamGraph pipeline = workloads::pipeline(6, 2);
  const StreamGraph splitjoin = workloads::splitjoin(3, 2, 4);
  const StreamGraph triangle = workloads::fig2_triangle(2, 2, 2);
  const auto compiled = core::compile(triangle);
  ASSERT_TRUE(compiled.ok);

  PoolExecutor pool(3);
  struct Submitted {
    ParityCase c;
    PoolExecutor::TicketId ticket;
  };
  std::vector<Submitted> submitted;
  for (int round = 0; round < 4; ++round) {
    ParityCase p{pipeline, DummyMode::None, {}, {}, 120, 0.8,
                 0x50u + static_cast<std::uint64_t>(round)};
    ParityCase s{splitjoin, DummyMode::None, {}, {}, 90, 1.0,
                 0x60u + static_cast<std::uint64_t>(round)};
    ParityCase t{triangle,
                 DummyMode::Propagation,
                 compiled.integer_intervals(core::Rounding::Floor),
                 compiled.forward_on_filter(),
                 70,
                 0.5,
                 0x70u + static_cast<std::uint64_t>(round)};
    for (const auto& c : {p, s, t})
      submitted.push_back(
          {c, pool.submit(c.graph, case_kernels(c), executor_options(c))});
  }
  for (auto& sub : submitted)
    expect_parity(run_sim(sub.c), pool.wait(sub.ticket), "multi-tenant");
}

TEST(PoolExecutor, TenThousandNodeLadderOnSixteenThreads) {
  // The scaling claim: a >= 10k-node graph runs on a fixed pool (the
  // paper's thread-per-node model would need >= 10k OS threads here).
  workloads::RandomLadderOptions opt;
  opt.rungs = 2500;
  opt.left_interior = 5000;
  opt.right_interior = 5000;
  opt.component_edges = 1;
  opt.max_buffer = 4;
  Prng rng(0xFEED);
  const StreamGraph g = workloads::random_ladder(rng, opt);
  ASSERT_GE(g.node_count(), 10000u);

  PoolExecutor pool(8);
  ASSERT_LE(pool.worker_count(), 16u);
  exec::RunSpec eopt;
  eopt.mode = DummyMode::None;
  eopt.num_inputs = 3;
  const auto r = pool.run(g, workloads::passthrough_kernels(g), eopt);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.sink_data[g.unique_sink()],
            3u * g.in_degree(g.unique_sink()));
}

TEST(PoolExecutor, TinyRingExercisesOverflowAndSleepPath) {
  // A 4-slot deque forces constant ring growth and steal contention while
  // workers sleep and wake, hammering the paths a 256 ring rarely reaches.
  // Results must stay bit-identical to the simulator.
  PoolExecutor::Options popt;
  popt.workers = 3;
  popt.max_steps_per_quantum = 2;  // frequent yields: maximal re-queuing
  popt.deque_capacity = 4;
  PoolExecutor pool(popt);
  const StreamGraph g = workloads::splitjoin(4, 3, 2);
  for (int round = 0; round < 5; ++round) {
    ParityCase c{g,      DummyMode::None,
                 {},     {},
                 200,    0.7,
                 0xABCu + static_cast<std::uint64_t>(round)};
    check_pool_parity(pool, c, "tiny-ring round " + std::to_string(round));
  }
}

// ---- scheduler-v2 quiescence regressions: exact verdicts while steals
// ---- and futex parks are in flight ----

// An adversarial pool for the quiescence regressions: more workers than the
// workload has nodes (every local enqueue is typically drained by a thief),
// 2-slot deques (rings grow mid-steal), 1-step quanta (tasks bounce through
// the injector constantly) and heavy injected yielding. Under these options
// the instance reaches its quiescence point over and over with steal CASes
// and park/wake handshakes genuinely in flight.
PoolExecutor::Options adversarial_options(std::uint64_t seed) {
  PoolExecutor::Options popt;
  popt.workers = 6;
  popt.deque_capacity = 2;
  popt.max_steps_per_quantum = 1;
  popt.perturb_yield_in_256 = 96;
  popt.seed = seed;
  return popt;
}

TEST(PoolExecutor, DeadlockVerdictExactWhileStealsInFlight) {
  // The Fig. 2 wedge on the adversarial pool: the deadlock verdict must be
  // exactly the simulator's, certified by quiescence alone -- a task held
  // by a thief between its winning steal CAS and run_task still counts as
  // pending work, so the distributed queues never produce a false verdict.
  const StreamGraph g = workloads::fig2_triangle(2, 2, 2);
  auto kernels = [&] {
    std::vector<std::shared_ptr<Kernel>> k;
    k.push_back(std::make_shared<RelayKernel>(
        workloads::adversarial_prefix_filter(1, 100)));
    k.push_back(pass_through_kernel());
    k.push_back(pass_through_kernel());
    return k;
  };
  sim::Simulation s(g, kernels());
  exec::RunSpec sopt;
  sopt.mode = DummyMode::None;
  sopt.num_inputs = 100;
  const auto expected = s.run(sopt);
  ASSERT_TRUE(expected.deadlocked);

  exec::RunSpec opt;
  opt.mode = DummyMode::None;
  opt.num_inputs = 100;
  for (std::uint64_t round = 0; round < 8; ++round) {
    PoolExecutor pool(adversarial_options(0x5DEA1 + round));
    const auto r = pool.run(g, kernels(), opt);
    EXPECT_TRUE(r.deadlocked) << "round " << round;
    EXPECT_FALSE(r.completed) << "round " << round;
    EXPECT_EQ(expected.sink_data, r.sink_data) << "round " << round;
    EXPECT_FALSE(r.state_dump.empty()) << "round " << round;
  }
}

TEST(PoolExecutor, RandomizedWedgeVerdictsExactUnderPerturbation) {
  // Randomized wedge-capable workloads (avoidance off, message-at-a-time):
  // completion/deadlock verdict, traffic, fires and sink data bit-identical
  // to the simulator under the steal-heavy and park-storm regimes. The
  // harness builds the perturbed pool itself from spec.sched.
  Prng rng(0x3D9E);
  int deadlocks = 0;
  for (int i = 0; i < 24; ++i) {
    harness::CaseSpec spec;
    spec.topology = i % 3 == 0 ? harness::Topology::Triangle
                               : harness::Topology::Sp;
    spec.seed = rng.next_u64();
    spec.num_inputs = 30 + rng.next_below(50);
    spec.pass_rate = 0.3 + 0.7 * rng.next_double();
    spec.mode = DummyMode::None;
    spec.batch = 1;
    spec.sched = i % 2 == 0 ? harness::Sched::StealHeavy
                            : harness::Sched::ParkStorm;
    bool deadlocked = false;
    const auto failure = harness::run_differential(spec, nullptr, &deadlocked);
    ASSERT_FALSE(failure.has_value()) << *failure;
    if (deadlocked) ++deadlocks;
  }
  // The sweep is only a quiescence regression if some cases actually wedge.
  EXPECT_GE(deadlocks, 1);
}

TEST(PoolExecutor, OpenPortStreamIdlesNotDeadlocksUnderAdversarialSchedule) {
  // A live stream on the adversarial pool, pushed in bursts with full
  // drains between them: the instance quiesces mid-steal after every burst,
  // and each time the open ports must hold the verdict ("idle, awaiting the
  // caller") rather than let a racing finalize declare deadlock or
  // completion early.
  const StreamGraph g = workloads::pipeline(3, 2);
  PoolExecutor pool(adversarial_options(0x0BEA7));
  exec::Session session(g, workloads::passthrough_kernels(g));
  exec::StreamSpec ss;
  ss.run.backend = exec::Backend::Pooled;
  ss.run.pool = &pool;
  ss.run.mode = DummyMode::None;
  exec::Stream stream = session.open(ss);
  std::vector<exec::OutputPort::Item> got;
  for (std::int64_t burst = 0; burst < 10; ++burst) {
    for (std::int64_t i = 0; i < 6; ++i)
      ASSERT_TRUE(stream.input(0).push(Value(burst * 6 + i)));
    // Drain everything this burst produced: the instance goes fully
    // quiescent (all tasks parked, workers futex-parked) with the port
    // still open before the next burst arrives.
    while (got.size() < static_cast<std::size_t>((burst + 1) * 6))
      if (auto item = stream.output(0).poll()) got.push_back(*item);
  }
  stream.input(0).close();
  const exec::RunReport report = stream.finish();
  EXPECT_TRUE(report.completed);
  EXPECT_FALSE(report.deadlocked);
  ASSERT_EQ(got.size(), 60u);
  for (std::size_t k = 0; k < got.size(); ++k)
    EXPECT_EQ(got[k].value.as<std::int64_t>(), static_cast<std::int64_t>(k));
}

TEST(PoolExecutor, DeadlockVerdictNotHeldByBusyCoTenant) {
  // Liveness of the worker-held quiescence credits: a worker keeps each
  // park's `active` decrement as a credit and returns it when it goes idle
  // *or* starts a task of another instance. Here a live stream keeps every
  // worker busy -- 32 equally costly stages on deep buffers, fed faster
  // than they drain, so there are always more runnable stages than workers
  // and no worker goes idle while the Fig. 2 wedge runs beside it. The
  // wedge's verdict must still arrive, sim-exact, with the stream open.
  // (Credits returned only on going idle would hang here.)
  const StreamGraph tri = workloads::fig2_triangle(2, 2, 2);
  auto tri_kernels = [] {
    std::vector<std::shared_ptr<Kernel>> k;
    k.push_back(std::make_shared<RelayKernel>(
        workloads::adversarial_prefix_filter(1, 100)));
    k.push_back(pass_through_kernel());
    k.push_back(pass_through_kernel());
    return k;
  };
  exec::RunSpec opt;
  opt.mode = DummyMode::None;
  opt.num_inputs = 100;
  const auto expected = sim::Simulation(tri, tri_kernels()).run(opt);
  ASSERT_TRUE(expected.deadlocked);

  PoolExecutor pool(4);
  const StreamGraph busy = workloads::pipeline(32, 256);
  std::vector<std::shared_ptr<Kernel>> work;
  for (NodeId n = 0; n < busy.node_count(); ++n)
    work.push_back(std::make_shared<WorkKernel>(
        5000, [](std::uint64_t, std::size_t) { return true; }));
  exec::Session session(busy, std::move(work));
  exec::StreamSpec ss;
  ss.run.backend = exec::Backend::Pooled;
  ss.run.pool = &pool;
  ss.run.mode = DummyMode::None;
  ss.feed_capacity = 4096;
  ss.capture_outputs = false;
  exec::Stream stream = session.open(ss);
  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> pushed{0};
  std::thread pusher([&] {
    std::int64_t next = 0;
    while (!stop.load(std::memory_order_relaxed))
      if (stream.input(0).try_push(Value(next))) pushed.store(++next);
  });
  // Let the stream saturate the pool before the wedge arrives.
  while (pushed.load() < 256) std::this_thread::yield();

  const auto r = pool.run(tri, tri_kernels(), opt);
  // The verdict came while the stream was open and still absorbing input.
  const std::int64_t at_verdict = pushed.load();
  while (pushed.load() < at_verdict + 16) std::this_thread::yield();
  stop.store(true);
  pusher.join();
  expect_parity(expected, r, "wedge beside a busy stream");
  EXPECT_TRUE(r.deadlocked);

  stream.input(0).close();
  EXPECT_TRUE(stream.finish().completed);
}

TEST(PoolExecutor, BarrierSnapshotPendingMidStealRestoresExactly) {
  // The crash differential with a barrier snapshot racing the steal-heavy
  // regime: push a random prefix, take an asynchronous barrier snapshot on
  // the perturbed pool (markers are occupancy-neutral pending work, so the
  // barrier must complete even though every marker hop crosses a steal),
  // destroy the stream, restore and replay -- bit-identical to an
  // uninterrupted run. Cross-checks tests/test_ckpt.cpp from the scheduler
  // side.
  Prng rng(0xC4A5);
  for (int i = 0; i < 4; ++i) {
    harness::CaseSpec spec;
    spec.topology =
        i % 2 == 0 ? harness::Topology::Ladder : harness::Topology::Sp;
    spec.seed = rng.next_u64();
    spec.num_inputs = 40;
    spec.pass_rate = 0.6;
    spec.mode = DummyMode::Propagation;
    spec.batch = 1;
    spec.feed = harness::FeedMode::Port;
    spec.chunk = 5;
    spec.sched =
        i < 2 ? harness::Sched::StealHeavy : harness::Sched::ParkStorm;
    const auto failure = harness::run_crash_differential(
        spec, exec::Backend::Pooled, rng.next_u64(), nullptr);
    ASSERT_FALSE(failure.has_value()) << *failure;
  }
}

TEST(PoolExecutor, IdleWorkerWakesStayWithinParks) {
  // The idle-worker wake is claimed: a publisher wakes one parked worker,
  // and only when no claimed wake is in flight, so wake syscalls track
  // parks instead of every flush that finds a registered waiter. A herd
  // wake on a 1000-node batch-1 ladder issues thousands per round.
  workloads::RandomLadderOptions lopt;
  lopt.rungs = 250;
  lopt.left_interior = 500;
  lopt.right_interior = 500;
  lopt.component_edges = 1;
  lopt.max_buffer = 4;
  Prng rng(0xBEEF ^ 1000);
  const StreamGraph g = workloads::random_ladder(rng, lopt);
  constexpr std::uint64_t kRounds = 20;
  for (const std::size_t workers : {4u, 16u}) {
    PoolExecutor pool(workers);
    exec::RunSpec opt;
    opt.mode = DummyMode::None;
    opt.num_inputs = 32;
    opt.batch = 1;
    for (std::uint64_t round = 0; round < kRounds; ++round) {
      const auto r = pool.run(g, workloads::passthrough_kernels(g), opt);
      ASSERT_TRUE(r.completed);
    }
    std::uint64_t parks = 0;
    std::uint64_t wakes = 0;
    for (const auto& m : pool.worker_metrics()) {
      parks += m.futex_parks;
      wakes += m.futex_wakes;
    }
    EXPECT_LE(wakes, 2 * parks + 2 * kRounds)
        << workers << " workers: " << wakes << " wake syscalls, " << parks
        << " parks";
  }
}

TEST(PoolExecutor, RepeatedRunsAreIndependent) {
  const StreamGraph g = workloads::fig1_splitjoin(2);
  PoolExecutor pool(2);
  exec::RunSpec opt;
  opt.mode = DummyMode::None;
  opt.num_inputs = 20;
  const auto r1 = pool.run(g, workloads::passthrough_kernels(g), opt);
  const auto r2 = pool.run(g, workloads::passthrough_kernels(g), opt);
  EXPECT_TRUE(r1.completed);
  EXPECT_TRUE(r2.completed);
  EXPECT_EQ(r1.total_data(), r2.total_data());
}

// A batch instance is built once per shape and rewound for each later
// submit of that shape. Every rewound round must report what a fresh
// pool's first round reports: traffic, fires, sink deliveries, verdict and
// the wedge dump. The sequence walks the values Wiring::reset rebinds --
// dummy mode, batch, num_inputs (which re-sizes the token feeds), tracer
// and metrics, a restore -- and resets over a wedge's full channels and
// over two alternating shapes of the same size.
TEST(PoolExecutor, ResetInstanceReportsEqualFreshOnes) {
  workloads::RandomLadderOptions lopt;
  lopt.rungs = 6;
  lopt.left_interior = 12;
  lopt.right_interior = 12;
  lopt.component_edges = 1;
  lopt.max_buffer = 3;
  Prng rng_a(0xA11CE);
  Prng rng_b(0xB0B);
  const StreamGraph a = workloads::random_ladder(rng_a, lopt);
  const StreamGraph b = workloads::random_ladder(rng_b, lopt);
  ASSERT_EQ(a.node_count(), b.node_count());
  ASSERT_EQ(a.edge_count(), b.edge_count());
  bool same_edges = true;
  for (EdgeId e = 0; e < a.edge_count(); ++e)
    same_edges &= a.edge(e).from == b.edge(e).from &&
                  a.edge(e).to == b.edge(e).to &&
                  a.edge(e).buffer == b.edge(e).buffer;
  ASSERT_FALSE(same_edges) << "the two ladders must differ in shape";
  // Ladder a's shape under other node names: it reuses a's instance, and
  // its wedge dump must name its own nodes.
  StreamGraph renamed = a;
  for (NodeId n = 0; n < renamed.node_count(); ++n) {
    std::string name = "r";
    name += std::to_string(n);
    renamed.set_node_name(n, std::move(name));
  }
  const StreamGraph triangle = workloads::fig2_triangle(2, 2, 2);

  const auto spec_for = [](const StreamGraph& g, DummyMode mode,
                           std::uint32_t batch, std::uint64_t num_inputs) {
    exec::RunSpec spec;
    spec.mode = mode;
    spec.batch = batch;
    spec.num_inputs = num_inputs;
    if (mode != DummyMode::None) {
      core::CompileOptions copt;
      copt.algorithm = mode == DummyMode::Propagation
                           ? core::Algorithm::Propagation
                           : core::Algorithm::NonPropagation;
      const auto compiled = core::compile(g, copt);
      EXPECT_TRUE(compiled.ok);
      spec.intervals = compiled.integer_intervals(core::Rounding::Floor);
      if (mode == DummyMode::Propagation)
        spec.forward_on_filter = compiled.forward_on_filter();
    }
    return spec;
  };
  const auto relays = [](const StreamGraph& g, std::uint64_t seed) {
    return [&g, seed] { return workloads::relay_kernels(g, 0.5, seed); };
  };
  const auto wedge_kernels = [] {
    std::vector<std::shared_ptr<Kernel>> k;
    k.push_back(std::make_shared<RelayKernel>(
        workloads::adversarial_prefix_filter(1, 100)));
    k.push_back(pass_through_kernel());
    k.push_back(pass_through_kernel());
    return k;
  };

  // A hand-made cut of ladder a: the source finished (so its channels
  // carry the re-created EOS and its consumers are runnable at the kick),
  // every other node live with restored counters and traffic.
  ckpt::StreamSnapshot cut;
  cut.nodes.resize(a.node_count());
  cut.edges.resize(a.edge_count());
  for (NodeId n = 0; n < a.node_count(); ++n) {
    ckpt::NodeCut& nc = cut.nodes[n];
    nc.fires = 10 + n;
    nc.sink_data = 3 * n;
    nc.last_sent.assign(a.out_degree(n), -1);
  }
  const NodeId src = a.unique_source();
  cut.nodes[src].done = 1;
  cut.nodes[src].source_seq = 30;
  cut.nodes[src].last_sent.assign(a.out_degree(src), 29);
  for (EdgeId e = 0; e < a.edge_count(); ++e) cut.edges[e] = {30, e};

  obs::MetricsRegistry registry(a.node_count(), a.edge_count());
  Tracer tracer(1 << 12);

  struct Round {
    std::string label;
    const StreamGraph* g;
    std::function<std::vector<std::shared_ptr<Kernel>>()> kernels;
    exec::RunSpec spec;
    bool wedges = false;
  };
  std::vector<Round> rounds;
  rounds.push_back({"a prop batch 1", &a, relays(a, 1),
                    spec_for(a, DummyMode::Propagation, 1, 40)});
  rounds.push_back({"a nonprop batch 64", &a, relays(a, 2),
                    spec_for(a, DummyMode::NonPropagation, 64, 40)});
  // Unprotected, this ladder wedges: the next round resets over its full
  // channels.
  rounds.push_back({"a none batch 1", &a, relays(a, 3),
                    spec_for(a, DummyMode::None, 1, 40), true});
  rounds.push_back({"a renamed, wedged", &renamed, relays(renamed, 3),
                    spec_for(renamed, DummyMode::None, 1, 40), true});
  rounds.push_back({"a prop 100 inputs", &a, relays(a, 4),
                    spec_for(a, DummyMode::Propagation, 1, 100)});
  rounds.push_back({"a traced", &a, relays(a, 5),
                    spec_for(a, DummyMode::Propagation, 1, 40)});
  rounds.back().spec.tracer = &tracer;
  rounds.back().spec.metrics = &registry;
  rounds.push_back({"a untraced", &a, relays(a, 5),
                    spec_for(a, DummyMode::Propagation, 1, 40)});
  rounds.push_back({"a restored", &a, relays(a, 6),
                    spec_for(a, DummyMode::Propagation, 1, 0)});
  rounds.back().spec.restore = &cut;
  for (int i = 0; i < 2; ++i) {
    rounds.push_back({"b", &b, relays(b, 7),
                      spec_for(b, DummyMode::Propagation, 1, 40)});
    rounds.push_back({"a after b", &a, relays(a, 8),
                      spec_for(a, DummyMode::NonPropagation, 1, 40)});
  }
  rounds.push_back({"triangle wedge", &triangle, wedge_kernels,
                    spec_for(triangle, DummyMode::None, 1, 100), true});
  rounds.push_back({"triangle after wedge", &triangle, wedge_kernels,
                    spec_for(triangle, DummyMode::Propagation, 1, 100)});

  PoolExecutor shared(3);
  std::uint64_t traced_fires = 0;
  std::uint64_t traced_data = 0;
  for (const Round& r : rounds) {
    const exec::RunReport reused = shared.run(*r.g, r.kernels(), r.spec);
    // The traced round's fresh twin gets its own tracer and registry, so
    // the shared round's are left as it wrote them.
    exec::RunSpec fresh_spec = r.spec;
    obs::MetricsRegistry fresh_registry(r.g->node_count(),
                                        r.g->edge_count());
    Tracer fresh_tracer(1 << 12);
    if (r.spec.metrics != nullptr) fresh_spec.metrics = &fresh_registry;
    if (r.spec.tracer != nullptr) fresh_spec.tracer = &fresh_tracer;
    PoolExecutor fresh(3);
    const exec::RunReport expected = fresh.run(*r.g, r.kernels(), fresh_spec);
    expect_parity(expected, reused, r.label);
    EXPECT_EQ(expected.state_dump, reused.state_dump) << r.label;
    EXPECT_EQ(reused.deadlocked, r.wedges) << r.label;
    if (r.spec.metrics != nullptr) {
      for (NodeId n = 0; n < a.node_count(); ++n) {
        EXPECT_EQ(registry.node(n).fires.load(std::memory_order_relaxed),
                  reused.fires[n])
            << r.label << " node " << n;
        traced_fires += reused.fires[n];
      }
      for (EdgeId e = 0; e < a.edge_count(); ++e) {
        EXPECT_EQ(
            registry.channel(e).data_pushed.load(std::memory_order_relaxed),
            reused.edges[e].data)
            << r.label << " edge " << e;
        traced_data += reused.edges[e].data;
      }
    }
  }
  // The rounds after the traced one ran without metrics: the registry
  // kept the traced round's counts.
  std::uint64_t registry_fires = 0;
  for (NodeId n = 0; n < a.node_count(); ++n)
    registry_fires += registry.node(n).fires.load(std::memory_order_relaxed);
  EXPECT_EQ(registry_fires, traced_fires);
  std::uint64_t registry_data = 0;
  for (EdgeId e = 0; e < a.edge_count(); ++e)
    registry_data +=
        registry.channel(e).data_pushed.load(std::memory_order_relaxed);
  EXPECT_EQ(registry_data, traced_data);
  EXPECT_GT(tracer.size(), 0u);
  // The pool keeps one retired instance: ladder a's serves its first
  // eight rounds (also under its other name), then b and a alternate and
  // each of those four rounds builds, and the triangle builds once and is
  // rewound after its wedge. A same-size shape never takes another's.
  EXPECT_EQ(shared.instances_built(), 6u);
}

// The build counter: rounds of one topology build one instance. The pool
// keeps one retired instance, so a run of rounds of another topology builds
// once more, and two topologies that alternate build every round.
TEST(PoolExecutor, RoundsOfOneTopologyBuildOneInstance) {
  const StreamGraph g = workloads::fig1_splitjoin(2);
  const StreamGraph h = workloads::pipeline(4, 2);
  exec::RunSpec opt;
  opt.mode = DummyMode::None;
  opt.num_inputs = 8;
  {
    PoolExecutor pool(2);
    for (int round = 0; round < 100; ++round)
      ASSERT_TRUE(pool.run(g, workloads::passthrough_kernels(g), opt).completed);
    EXPECT_EQ(pool.instances_built(), 1u);
  }
  {
    PoolExecutor pool(2);
    for (int round = 0; round < 50; ++round)
      ASSERT_TRUE(pool.run(g, workloads::passthrough_kernels(g), opt).completed);
    for (int round = 0; round < 50; ++round)
      ASSERT_TRUE(pool.run(h, workloads::passthrough_kernels(h), opt).completed);
    EXPECT_EQ(pool.instances_built(), 2u);
  }
  PoolExecutor pool(2);
  for (int round = 0; round < 5; ++round) {
    ASSERT_TRUE(pool.run(g, workloads::passthrough_kernels(g), opt).completed);
    ASSERT_TRUE(pool.run(h, workloads::passthrough_kernels(h), opt).completed);
  }
  EXPECT_EQ(pool.instances_built(), 10u);
}

}  // namespace
}  // namespace sdaf::runtime
