#include "src/exec/session.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "src/core/compile.h"
#include "src/runtime/pool_executor.h"
#include "src/support/prng.h"
#include "src/workloads/filters.h"
#include "src/workloads/topologies.h"
#include "tests/harness/stress_harness.h"

namespace sdaf::exec {
namespace {

using runtime::DummyMode;
using runtime::Kernel;

constexpr Backend kBackends[] = {Backend::Sim, Backend::Pooled};

// The facade-level differential harness: the same RunSpec through every
// backend must produce identical verdicts, per-edge traffic, firing counts
// and sink deliveries -- one semantics behind one API.
void expect_same_report(const RunReport& expected, const RunReport& actual,
                        const std::string& label) {
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

std::vector<std::shared_ptr<Kernel>> wedge_kernels() {
  std::vector<std::shared_ptr<Kernel>> kernels;
  kernels.push_back(std::make_shared<runtime::RelayKernel>(
      workloads::adversarial_prefix_filter(1, 100)));
  kernels.push_back(runtime::pass_through_kernel());
  kernels.push_back(runtime::pass_through_kernel());
  return kernels;
}

TEST(Session, RandomizedWorkloadsIdenticalAcrossBackendsAndModes) {
  // Ported onto the stress harness (tests/harness/stress_harness.h): the
  // same randomized SP/ladder sweep through both backends and both
  // dummy modes at a random firing quantum, now with a one-line repro
  // command on any mismatch.
  Prng rng(0xC0FFEE);
  runtime::PoolExecutor pool(3);
  int cases = 0;
  for (int i = 0; i < 11; ++i) {
    for (const auto mode :
         {DummyMode::Propagation, DummyMode::NonPropagation}) {
      harness::CaseSpec spec;
      spec.topology =
          i < 6 ? harness::Topology::Sp : harness::Topology::Ladder;
      spec.seed = rng.next_u64();
      spec.num_inputs = 30 + rng.next_below(50);
      spec.pass_rate = 0.3 + 0.7 * rng.next_double();
      spec.mode = mode;
      // Random firing quantum: batching must never change the traffic.
      spec.batch = 1 + static_cast<std::uint32_t>(rng.next_below(16));
      const auto failure = harness::run_differential(spec, &pool);
      ASSERT_FALSE(failure.has_value()) << *failure;
      ++cases;
    }
  }
  EXPECT_GE(cases, 22);
}

// The coalescing differential: the continuation ladder floods dense runs of
// consecutive-sequence dummies (every item the filter stage drops continues
// down the relay chain as a dummy), so coalesced segments cross every
// sink's batched paths. Every backend, both dummy modes, and every batch
// quantum must produce bit-identical traffic -- batching amortizes cost,
// never changes semantics.
TEST(Session, DummyRunCoalescingIdenticalAcrossBackendsAndBatches) {
  const StreamGraph g = workloads::continuation_ladder(3, 32, 1);
  runtime::PoolExecutor pool(2);
  for (const auto mode :
       {DummyMode::Propagation, DummyMode::NonPropagation}) {
    core::CompileOptions copt;
    copt.algorithm = mode == DummyMode::Propagation
                         ? core::Algorithm::Propagation
                         : core::Algorithm::NonPropagation;
    const auto compiled = core::compile(g, copt);
    ASSERT_TRUE(compiled.ok) << compiled.diagnostics;
    for (const double pass_rate : {0.05, 0.4}) {
      Session session(g, workloads::relay_kernels(g, pass_rate, 0xD00D));
      RunSpec spec;
      spec.mode = mode;
      spec.apply(compiled);
      spec.num_inputs = 400;
      spec.pool = &pool;
      RunSpec ref_spec = spec;
      ref_spec.backend = Backend::Sim;
      ref_spec.batch = 1;
      const RunReport reference = session.run(ref_spec);
      ASSERT_TRUE(reference.completed);
      EXPECT_GT(reference.total_dummies(), reference.total_data())
          << "workload not dummy-heavy; the coalescing path is not covered";
      for (const Backend backend : kBackends) {
        for (const std::uint32_t batch : {1u, 7u, 64u}) {
          spec.backend = backend;
          spec.batch = batch;
          const std::string label = std::string(to_string(backend)) +
                                    " batch=" + std::to_string(batch) +
                                    " p=" + std::to_string(pass_rate);
          expect_same_report(reference, session.run(spec), label);
        }
      }
    }
  }
}

TEST(Session, Fig2WedgeSameVerdictAndStateDumpOnEveryBackend) {
  // The Fig. 2 triangle with the adversarial filter and no avoidance must
  // wedge on every backend, and every backend must surface a usable
  // post-mortem through RunReport::state_dump.
  const StreamGraph g = workloads::fig2_triangle(2, 2, 2);
  for (const Backend backend : kBackends) {
    // Batching adds at most `batch` held outputs per node -- far below the
    // 100-seq adversarial prefix that forces this wedge -- so the deadlock
    // must manifest and certify exactly at both quanta.
    for (const std::uint32_t batch : {1u, 64u}) {
      Session session(g, wedge_kernels());
      RunSpec spec;
      spec.backend = backend;
      spec.mode = DummyMode::None;
      spec.num_inputs = 100;
      spec.pool_workers = 2;
      spec.batch = batch;
      const auto report = session.run(spec);
      const std::string label = std::string(to_string(backend)) +
                                " batch=" + std::to_string(batch);
      EXPECT_TRUE(report.deadlocked) << label;
      EXPECT_FALSE(report.completed) << label;
      ASSERT_FALSE(report.state_dump.empty()) << label;
      EXPECT_NE(report.state_dump.find("edge "), std::string::npos) << label;
      EXPECT_NE(report.state_dump.find("node "), std::string::npos) << label;
      if (backend == Backend::Sim)
        EXPECT_GT(report.sweeps, 0u);
      else
        EXPECT_EQ(report.sweeps, 0u);
    }
  }
}

TEST(Session, Fig2CompiledIntervalsCompleteOnEveryBackend) {
  const StreamGraph g = workloads::fig2_triangle(2, 2, 2);
  for (const Backend backend : kBackends) {
    Session session(g, wedge_kernels());
    RunSpec spec;
    spec.backend = backend;
    spec.num_inputs = 100;
    spec.pool_workers = 2;
    const auto [compiled, report] = session.compile_and_run(spec);
    ASSERT_TRUE(compiled->ok);
    EXPECT_TRUE(report.completed) << to_string(backend);
    EXPECT_TRUE(report.state_dump.empty()) << to_string(backend);
    EXPECT_EQ(report.sink_data[2], 100u) << to_string(backend);
  }
}

// The tracer rides on the shared NodeState, so both backends must record
// the same per-message events; only ordering and ticks may differ between
// the deterministic sweep and the concurrent backend.
TEST(Session, TracerEventMultisetIdenticalAcrossBackends) {
  const StreamGraph g = workloads::fig2_triangle(2, 2, 2);
  const auto compiled = core::compile(g);
  ASSERT_TRUE(compiled.ok);

  using Key = std::tuple<int, NodeId, std::size_t, std::uint64_t>;
  const auto event_multiset = [](const runtime::Tracer& tracer) {
    std::vector<Key> keys;
    for (const auto& e : tracer.snapshot())
      keys.emplace_back(static_cast<int>(e.kind), e.node, e.slot, e.seq);
    std::sort(keys.begin(), keys.end());
    return keys;
  };

  std::vector<Key> reference;
  for (const Backend backend : kBackends) {
    runtime::Tracer tracer(1u << 20);
    Session session(g, workloads::relay_kernels(g, 0.5, 11));
    RunSpec spec;
    spec.backend = backend;
    spec.apply(compiled);
    spec.num_inputs = 200;
    spec.pool_workers = 2;
    spec.tracer = &tracer;
    const auto report = session.run(spec);
    ASSERT_TRUE(report.completed) << to_string(backend);
    ASSERT_EQ(tracer.dropped(), 0u) << to_string(backend);
    auto keys = event_multiset(tracer);
    EXPECT_FALSE(keys.empty());
    if (backend == Backend::Sim)
      reference = std::move(keys);
    else
      EXPECT_EQ(reference, keys) << to_string(backend);
  }
}

TEST(Session, CompileAndRunChainsTheCache) {
  const StreamGraph g = workloads::fig1_splitjoin(3);
  core::CompileCache cache(8);
  Session session(g, workloads::relay_kernels(g, 0.6, 5));
  session.set_compile_cache(&cache);
  RunSpec spec;
  spec.num_inputs = 500;
  const auto first = session.compile_and_run(spec);
  ASSERT_TRUE(first.compiled->ok);
  EXPECT_TRUE(first.report.completed);
  EXPECT_GT(first.report.total_data(), 0u);
  const auto second = session.compile_and_run(spec);
  EXPECT_TRUE(second.report.completed);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  // Deterministic backend + same spec: bit-identical traffic.
  expect_same_report(first.report, second.report, "cache round-trip");
}

TEST(Session, CompileRejectionSurfacesWithoutRunning) {
  const StreamGraph g = workloads::fig4_butterfly(2);
  Session session(g, workloads::passthrough_kernels(g));
  core::CompileOptions copt;
  copt.general_policy = core::GeneralPolicy::Reject;
  core::CompileCache cache(4);
  session.set_compile_cache(&cache);
  RunSpec spec;
  spec.num_inputs = 10;
  const auto [compiled, report] = session.compile_and_run(spec, copt);
  EXPECT_FALSE(compiled->ok);
  EXPECT_FALSE(compiled->diagnostics.empty());
  EXPECT_FALSE(report.completed);
  EXPECT_FALSE(report.deadlocked);
  EXPECT_TRUE(report.fires.empty());  // nothing ran
}

TEST(Session, ApplyAdoptsCompiledConfiguration) {
  // The continuation-edge counterexample graph: forward_on_filter is
  // non-trivial ({0,1,0}), so apply() must carry it in Propagation mode and
  // drop it in Non-Propagation mode.
  StreamGraph g;
  const NodeId u = g.add_node("u");
  const NodeId a = g.add_node("a");
  const NodeId b = g.add_node("b");
  g.add_edge(u, a, 5);
  g.add_edge(a, b, 5);
  g.add_edge(u, b, 1);
  const auto compiled = core::compile(g);
  ASSERT_TRUE(compiled.ok);

  RunSpec prop;
  prop.mode = DummyMode::Propagation;
  prop.apply(compiled);
  EXPECT_EQ(prop.intervals.size(), g.edge_count());
  EXPECT_EQ(prop.forward_on_filter, (std::vector<std::uint8_t>{0, 1, 0}));

  RunSpec nonprop;
  nonprop.mode = DummyMode::NonPropagation;
  nonprop.apply(compiled);
  EXPECT_EQ(nonprop.intervals.size(), g.edge_count());
  EXPECT_TRUE(nonprop.forward_on_filter.empty());
}

TEST(Session, PooledSubmitInterleavesTenantsAndMatchesSim) {
  const StreamGraph g = workloads::splitjoin(3, 2, 4);
  runtime::PoolExecutor pool(3);
  struct Tenant {
    std::uint64_t seed;
    Session::Pending pending;
  };
  std::vector<Tenant> tenants;
  for (std::uint64_t t = 0; t < 6; ++t) {
    Session session(g, workloads::relay_kernels(g, 0.8, 0x90 + t));
    RunSpec spec;
    spec.backend = Backend::Pooled;
    spec.mode = DummyMode::None;
    spec.num_inputs = 120;
    spec.pool = &pool;
    tenants.push_back({0x90 + t, session.submit(spec)});
  }
  for (auto& tenant : tenants) {
    Session session(g, workloads::relay_kernels(g, 0.8, tenant.seed));
    RunSpec spec;
    spec.mode = DummyMode::None;
    spec.num_inputs = 120;
    const auto expected = session.run(spec);
    expect_same_report(expected, tenant.pending.get(),
                       "tenant " + std::to_string(tenant.seed));
  }
}

}  // namespace
}  // namespace sdaf::exec
