// sdaf::qos -- the multi-tenant subsystem's unit and integration tests:
// the interval-aware cost model (predictions from compile-time facts), the
// admission ledger (budgets, typed rejections, exact release), the credit
// gauge (all-or-nothing and partial acquire), the admission-aware
// Session::open overload (typed OpenDecision + lease-bound release),
// end-to-end per-tenant credit backpressure on every backend (bit-identical
// to uncredited runs), and the injector's per-tenant ledger.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "src/core/compile.h"
#include "src/exec/session.h"
#include "src/exec/stream.h"
#include "src/qos/admission.h"
#include "src/qos/cost.h"
#include "src/qos/credit.h"
#include "src/runtime/pool_executor.h"
#include "src/runtime/wrapper.h"
#include "src/workloads/filters.h"
#include "src/workloads/topologies.h"

namespace sdaf {
namespace {

using namespace std::chrono_literals;

StreamGraph pipeline3() {
  StreamGraph g;
  const NodeId a = g.add_node("A");
  const NodeId m = g.add_node("B");
  const NodeId z = g.add_node("C");
  g.add_edge(a, m, 4);
  g.add_edge(m, z, 4);
  return g;
}

// --- cost model -----------------------------------------------------------

TEST(QosCost, PredictsSlotsBytesNodesFromTheGraph) {
  const StreamGraph g = pipeline3();
  const qos::TenantCost cost = qos::estimate(g, std::vector<std::int64_t>{});
  EXPECT_EQ(cost.nodes, 3u);
  EXPECT_EQ(cost.channel_slots, 8u);  // 4 + 4
  EXPECT_EQ(cost.channel_bytes, cost.channel_slots * sizeof(runtime::Message));
  // No finite intervals -> no predicted avoidance overhead.
  EXPECT_DOUBLE_EQ(cost.dummy_overhead_ratio, 0.0);
}

TEST(QosCost, DummyRatioIsMeanInverseIntervalOverFiniteEdges) {
  const StreamGraph g = pipeline3();
  // Edge 0 at interval 4 (1/4), edge 1 infinite: mean over finite = 0.25.
  const qos::TenantCost cost =
      qos::estimate(g, {4, runtime::kInfiniteInterval});
  EXPECT_DOUBLE_EQ(cost.dummy_overhead_ratio, 0.25);
  // Both finite: mean of 1/4 and 1/2.
  const qos::TenantCost both = qos::estimate(g, {4, 2});
  EXPECT_DOUBLE_EQ(both.dummy_overhead_ratio, 0.375);
}

TEST(QosCost, CompiledIntervalsMatchTheExplicitOverload) {
  const StreamGraph g = workloads::fig2_triangle(2, 2, 2);
  const auto compiled = core::compile(g);
  ASSERT_TRUE(compiled.ok);
  const qos::TenantCost a = qos::estimate(g, compiled);
  exec::RunSpec rs;
  rs.apply(compiled);
  const qos::TenantCost b = qos::estimate(g, rs.intervals);
  EXPECT_EQ(a.channel_slots, b.channel_slots);
  EXPECT_DOUBLE_EQ(a.dummy_overhead_ratio, b.dummy_overhead_ratio);
}

// --- admission ledger -----------------------------------------------------

TEST(QosAdmission, ZeroBudgetsAdmitEverything) {
  qos::Admission adm;
  qos::TenantCost cost;
  cost.channel_slots = 1u << 30;
  cost.nodes = 1u << 20;
  EXPECT_FALSE(adm.admit("t", cost).has_value());
  EXPECT_EQ(adm.admitted_total(), 1u);
  EXPECT_EQ(adm.rejected_total(), 0u);
}

TEST(QosAdmission, RejectionNamesTheExceededBudgetAndCarriesThePrediction) {
  qos::Budgets b;
  b.max_nodes = 2;
  qos::Admission adm(b);
  qos::TenantCost cost;
  cost.nodes = 3;
  const auto rejected = adm.admit("t", cost);
  ASSERT_TRUE(rejected.has_value());
  EXPECT_NE(rejected->reason.find("nodes"), std::string::npos);
  EXPECT_EQ(rejected->predicted.nodes, 3u);
  // Nothing was reserved.
  EXPECT_EQ(adm.usage().nodes, 0u);
  EXPECT_EQ(adm.rejected_total(), 1u);
}

TEST(QosAdmission, ReleaseReturnsTheExactReservation) {
  qos::Budgets b;
  b.max_channel_slots = 10;
  qos::Admission adm(b);
  qos::TenantCost cost;
  cost.channel_slots = 6;
  ASSERT_FALSE(adm.admit("t", cost).has_value());
  // A second stream of the same shape exceeds the budget...
  EXPECT_TRUE(adm.admit("t", cost).has_value());
  // ...until the first retires.
  adm.release("t", cost);
  EXPECT_EQ(adm.usage().channel_slots, 0u);
  EXPECT_FALSE(adm.admit("t", cost).has_value());
}

TEST(QosAdmission, TenantFanoutBudgets) {
  qos::Budgets b;
  b.max_tenants = 1;
  b.max_streams_per_tenant = 2;
  qos::Admission adm(b);
  const qos::TenantCost cost;
  ASSERT_FALSE(adm.admit("a", cost).has_value());
  ASSERT_FALSE(adm.admit("a", cost).has_value());
  // Third stream for "a" trips max_streams_per_tenant.
  EXPECT_TRUE(adm.admit("a", cost).has_value());
  // A second distinct tenant trips max_tenants.
  EXPECT_TRUE(adm.admit("b", cost).has_value());
  // Tenant "a" fully retiring frees the tenant slot.
  adm.release("a", cost);
  adm.release("a", cost);
  EXPECT_FALSE(adm.admit("b", cost).has_value());
}

TEST(QosAdmission, DummyRatioIsAPerStreamCap) {
  qos::Budgets b;
  b.max_dummy_ratio = 0.2;
  qos::Admission adm(b);
  qos::TenantCost cost;
  cost.dummy_overhead_ratio = 0.5;
  const auto rejected = adm.admit("t", cost);
  ASSERT_TRUE(rejected.has_value());
  EXPECT_NE(rejected->reason.find("dummy"), std::string::npos);
  cost.dummy_overhead_ratio = 0.1;
  EXPECT_FALSE(adm.admit("t", cost).has_value());
}

// --- credit gauge ---------------------------------------------------------

TEST(QosCredit, AcquireIsAllOrNothingAndUptoIsPartial) {
  qos::CreditGauge g(4);
  EXPECT_TRUE(g.try_acquire(3));
  EXPECT_FALSE(g.try_acquire(2));  // 3 + 2 > 4: nothing taken
  EXPECT_EQ(g.in_flight(), 3u);
  EXPECT_EQ(g.try_acquire_upto(10), 1u);  // partial fill to the limit
  EXPECT_EQ(g.in_flight(), 4u);
  g.release(4);
  EXPECT_EQ(g.in_flight(), 0u);
}

TEST(QosCredit, UnlimitedGaugeNeverBlocks) {
  qos::CreditGauge g(0);
  EXPECT_TRUE(g.unlimited());
  EXPECT_TRUE(g.try_acquire(1u << 20));
  EXPECT_EQ(g.try_acquire_upto(1u << 20), 1u << 20);
  g.release(1u << 20);  // no-op, no underflow
  EXPECT_EQ(g.in_flight(), 0u);
}

TEST(QosCredit, TenantTableInternsStableGauges) {
  qos::TenantTable table(8);
  qos::CreditGauge* a = table.gauge("a");
  EXPECT_EQ(a, table.gauge("a"));
  EXPECT_NE(a, table.gauge("b"));
  EXPECT_EQ(a->limit(), 8u);
  ASSERT_TRUE(a->try_acquire(3));
  const auto entries = table.entries();
  ASSERT_EQ(entries.size(), 2u);
  for (const auto& e : entries)
    EXPECT_EQ(e.in_flight, e.tenant == "a" ? 3u : 0u);
  a->release(3);
}

// --- admission-aware Session::open ---------------------------------------

TEST(QosSession, OpenDecisionRejectsOverBudgetBeforeAllocating) {
  const StreamGraph g = pipeline3();
  exec::Session session(g, workloads::passthrough_kernels(g));
  qos::Budgets b;
  b.max_nodes = 1;
  qos::Admission adm(b);
  exec::StreamSpec spec;
  spec.run.backend = exec::Backend::Sim;
  auto decision = session.open(std::move(spec), adm);
  EXPECT_FALSE(decision.stream.has_value());
  ASSERT_TRUE(decision.rejected.has_value());
  EXPECT_EQ(decision.predicted.nodes, 3u);
  EXPECT_EQ(adm.usage().nodes, 0u);
}

TEST(QosSession, LeaseReleasesTheReservationWhenTheStreamDies) {
  const StreamGraph g = pipeline3();
  exec::Session session(g, workloads::passthrough_kernels(g));
  qos::Budgets b;
  b.max_streams_per_tenant = 1;
  qos::Admission adm(b);
  {
    exec::StreamSpec spec;
    spec.run.backend = exec::Backend::Sim;
    auto decision = session.open(std::move(spec), adm);
    ASSERT_TRUE(decision.stream.has_value());
    EXPECT_EQ(adm.usage().streams, 1u);
    // The budget is taken while the stream lives...
    exec::StreamSpec again;
    again.run.backend = exec::Backend::Sim;
    auto second = session.open(std::move(again), adm);
    EXPECT_TRUE(second.rejected.has_value());
    decision.stream->input(0).close();
    (void)decision.stream->finish();
  }
  // ...and returns exactly when the Stream is destroyed.
  EXPECT_EQ(adm.usage().streams, 0u);
  exec::StreamSpec spec;
  spec.run.backend = exec::Backend::Sim;
  auto third = session.open(std::move(spec), adm);
  ASSERT_TRUE(third.stream.has_value());
  third.stream->input(0).close();
  (void)third.stream->finish();
}

// --- credit backpressure through the ports --------------------------------

// A credited stream's pushes stop at the window and resume as the source
// drains its feed; the completed run is bit-identical to an uncredited one.
void credit_backpressure_roundtrip(exec::Backend backend) {
  const StreamGraph g = pipeline3();
  const std::uint64_t kItems = 200;

  const auto run_with = [&](qos::CreditGauge* credits) {
    exec::Session session(g, workloads::passthrough_kernels(g));
    exec::StreamSpec spec;
    spec.run.backend = backend;
    spec.run.pool_workers = 2;
    spec.run.credits = credits;
    exec::Stream stream = session.open(std::move(spec));
    std::thread drainer;
    if (backend != exec::Backend::Sim)
      drainer = std::thread([&] {
        while (stream.output(0).next().has_value()) {
        }
      });
    for (std::uint64_t i = 0; i < kItems; ++i)
      EXPECT_TRUE(stream.input(0).push());
    stream.input(0).close();
    if (backend == exec::Backend::Sim)
      while (stream.output(0).next().has_value()) {
      }
    else
      drainer.join();
    return stream.finish();
  };

  qos::CreditGauge tight(3);  // smaller than every channel on the path
  const exec::RunReport credited = run_with(&tight);
  const exec::RunReport baseline = run_with(nullptr);
  EXPECT_TRUE(credited.completed);
  EXPECT_EQ(tight.in_flight(), 0u) << "credits leaked";
  EXPECT_EQ(credited.fires, baseline.fires);
  EXPECT_EQ(credited.sink_data, baseline.sink_data);
  ASSERT_EQ(credited.edges.size(), baseline.edges.size());
  for (std::size_t e = 0; e < credited.edges.size(); ++e) {
    EXPECT_EQ(credited.edges[e].data, baseline.edges[e].data) << e;
    EXPECT_EQ(credited.edges[e].dummies, baseline.edges[e].dummies) << e;
  }
}

TEST(QosBackpressure, SimRoundTripUnderTightWindow) {
  credit_backpressure_roundtrip(exec::Backend::Sim);
}

TEST(QosBackpressure, PooledRoundTripUnderTightWindow) {
  credit_backpressure_roundtrip(exec::Backend::Pooled);
}

// A window another stream (here: the test itself) exhausted surfaces as
// backpressure -- try_push refuses without blocking, try_push_for times
// out -- and clears the instant credits return.
TEST(QosBackpressure, ExhaustedWindowSurfacesAsBackpressure) {
  const StreamGraph g = pipeline3();
  exec::Session session(g, workloads::passthrough_kernels(g));
  qos::CreditGauge credits(4);
  ASSERT_TRUE(credits.try_acquire(4));  // co-tenant holds the whole window
  exec::StreamSpec spec;
  spec.run.backend = exec::Backend::Pooled;
  spec.run.pool_workers = 2;
  spec.run.credits = &credits;
  exec::Stream stream = session.open(std::move(spec));
  EXPECT_FALSE(stream.input(0).try_push());
  EXPECT_EQ(stream.input(0).try_push_for(runtime::Value{}, 1ms),
            exec::PortPushOutcome::TimedOut);
  credits.release(4);  // the co-tenant drains; the window reopens
  EXPECT_TRUE(stream.input(0).try_push());
  stream.input(0).close();
  std::thread drainer([&] {
    while (stream.output(0).next().has_value()) {
    }
  });
  drainer.join();
  const auto report = stream.finish();
  EXPECT_TRUE(report.completed);
  // Exactly the one admitted item traversed the pipeline's final edge.
  ASSERT_EQ(report.edges.size(), 2u);
  EXPECT_EQ(report.edges[1].data, 1u);
  EXPECT_EQ(credits.in_flight(), 0u);
}

// --- injector ledger -----------------------------------------------------

// Two tenants run concurrently on one pool: each gets its own ledger row,
// every task it put in the shared FIFO came back out, and nothing of it
// is left queued at quiescence.
TEST(QosScheduler, InjectorLedgerBalancesPerTenant) {
  runtime::PoolExecutor pool(2);
  const StreamGraph g = pipeline3();
  const auto run_tenant = [&](const std::string& tenant) {
    exec::Session session(g, workloads::passthrough_kernels(g));
    exec::RunSpec rs;
    rs.backend = exec::Backend::Pooled;
    rs.pool = &pool;
    rs.num_inputs = 50;
    rs.tenant = tenant;
    const auto run = session.compile_and_run(rs);
    EXPECT_TRUE(run.report.completed) << tenant;
  };
  std::thread gold(run_tenant, "gold");
  std::thread bronze(run_tenant, "bronze");
  gold.join();
  bronze.join();

  const auto rows = pool.tenant_metrics();
  ASSERT_EQ(rows.size(), 2u);
  for (const auto& t : rows) {
    EXPECT_TRUE(t.tenant == "gold" || t.tenant == "bronze") << t.tenant;
    EXPECT_GT(t.enqueued, 0u) << t.tenant;  // at least the submit kicks
    EXPECT_EQ(t.enqueued, t.dequeued) << t.tenant;
    EXPECT_EQ(t.queue_depth, 0u) << t.tenant;
    EXPECT_GE(t.queue_depth_max, 1u) << t.tenant;
  }
  EXPECT_NE(rows[0].tenant, rows[1].tenant);
}

}  // namespace
}  // namespace sdaf
