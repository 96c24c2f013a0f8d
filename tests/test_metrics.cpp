// sdaf::obs acceptance tests.
//
// The load-bearing property is *backend invariance*: node counters are
// incremented at shared runtime::NodeState sites (emission where outputs are
// queued, consumption where heads are popped), so for a deterministic
// workload the simulator's counts are a bit-exact reference for the
// pooled backend -- per node and per channel, completed or wedged.
// Scheduling-shaped counters (full_stalls, empty_waits, worker stats) are
// intentionally NOT asserted equal; they measure contention, which is
// backend-specific by nature.
//
// The exporters are schema-stable interfaces: tests pin the JSON key set
// and the Prometheus family names/types so downstream dashboards never
// break silently.
#include "src/obs/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "src/core/compile.h"
#include "src/exec/session.h"
#include "src/obs/export.h"
#include "src/runtime/pool_executor.h"
#include "src/runtime/trace.h"
#include "src/workloads/filters.h"
#include "src/workloads/topologies.h"
#include "tests/harness/stress_harness.h"

namespace sdaf {
namespace {

using exec::Backend;

struct MeteredRun {
  exec::RunReport report;
  obs::MetricsRegistry registry;
};

MeteredRun run_metered(const StreamGraph& g, const harness::CaseSpec& cs,
                       Backend backend, runtime::PoolExecutor* pool) {
  MeteredRun out{exec::RunReport{},
                 obs::MetricsRegistry(g.node_count(), g.edge_count())};
  exec::Session session(g, harness::build_kernels(g, cs));
  exec::RunSpec spec;
  spec.backend = backend;
  spec.mode = cs.mode;
  spec.num_inputs = cs.num_inputs;
  spec.batch = cs.batch;
  spec.pool = pool;
  spec.metrics = &out.registry;
  if (cs.mode == runtime::DummyMode::None)
    out.report = session.run(spec);
  else
    out.report = session.compile_and_run(spec).report;
  return out;
}

TEST(MetricsRegistry, BumpSnapshotReset) {
  const StreamGraph g = workloads::pipeline(2, 4);
  obs::MetricsRegistry reg(g.node_count(), g.edge_count());
  obs::bump(reg.node(0).fires, 3);
  obs::bump(reg.node(1).data_in, 2);
  obs::bump(reg.channel(0).data_pushed, 5);
  obs::bump(reg.channel(0).pops, 2);
  reg.channel(0).note_high_water(3);

  obs::SnapshotOptions opts;
  opts.backend = "sim";
  const auto s = obs::snapshot(g, reg, opts);
  ASSERT_EQ(s.nodes.size(), 2u);
  ASSERT_EQ(s.channels.size(), 1u);
  EXPECT_EQ(s.nodes[0].fires, 3u);
  EXPECT_EQ(s.nodes[1].data_in, 2u);
  EXPECT_EQ(s.channels[0].data_pushed, 5u);
  EXPECT_EQ(s.channels[0].occupancy, 3);  // 5 pushed - 2 popped
  EXPECT_EQ(s.channels[0].high_water, 3);
  EXPECT_EQ(s.tenant.items_fired, 3u);
  EXPECT_EQ(s.tenant.data_items, 5u);

  reg.reset();
  const auto z = obs::snapshot(g, reg, opts);
  EXPECT_EQ(z.nodes[0].fires, 0u);
  EXPECT_EQ(z.channels[0].data_pushed, 0u);
  EXPECT_EQ(z.channels[0].high_water, 0);
}

TEST(MetricsDifferential, CountersBitIdenticalAcrossBackends) {
  // The sim is the reference; pooled must agree with it per node on
  // fires / data_out / dummy_out / eos_out / data_in / dummy_in and per
  // channel on data_pushed / dummies_pushed / pops -- exact at quiescence,
  // completed AND wedged. The sweep covers all topologies, both avoidance
  // modes plus avoidance-off, and batched firing.
  runtime::PoolExecutor pool(3);
  std::vector<harness::CaseSpec> cases;
  {
    harness::CaseSpec c;
    c.topology = harness::Topology::Sp;
    c.seed = 11;
    c.num_inputs = 60;
    c.pass_rate = 0.5;
    c.mode = runtime::DummyMode::Propagation;
    c.batch = 1;
    cases.push_back(c);
    c.topology = harness::Topology::Ladder;
    c.seed = 12;
    c.mode = runtime::DummyMode::NonPropagation;
    c.batch = 7;
    cases.push_back(c);
    c.topology = harness::Topology::Continuation;
    c.seed = 13;
    c.mode = runtime::DummyMode::Propagation;
    c.batch = 64;
    cases.push_back(c);
    c.topology = harness::Topology::Triangle;  // the known wedge
    c.seed = 14;
    c.pass_rate = 0.3;
    c.mode = runtime::DummyMode::None;
    c.batch = 1;
    cases.push_back(c);
  }
  for (const auto& cs : cases) {
    SCOPED_TRACE(harness::to_string(cs));
    const StreamGraph g = harness::build_topology(cs);
    const MeteredRun ref = run_metered(g, cs, Backend::Sim, nullptr);
    // Registry agrees with the report's own accounting on the reference.
    for (NodeId n = 0; n < g.node_count(); ++n)
      ASSERT_EQ(ref.registry.node(n).fires.load(), ref.report.fires[n]) << n;
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      ASSERT_EQ(ref.registry.channel(e).data_pushed.load(),
                ref.report.edges[e].data)
          << e;
      ASSERT_EQ(ref.registry.channel(e).dummies_pushed.load(),
                ref.report.edges[e].dummies)
          << e;
    }
    const MeteredRun got = run_metered(g, cs, Backend::Pooled, &pool);
    ASSERT_EQ(got.report.deadlocked, ref.report.deadlocked);
    for (NodeId n = 0; n < g.node_count(); ++n) {
      const auto& want = ref.registry.node(n);
      const auto& have = got.registry.node(n);
      ASSERT_EQ(have.fires.load(), want.fires.load()) << "node " << n;
      ASSERT_EQ(have.data_out.load(), want.data_out.load()) << "node " << n;
      ASSERT_EQ(have.dummy_out.load(), want.dummy_out.load()) << "node " << n;
      ASSERT_EQ(have.eos_out.load(), want.eos_out.load()) << "node " << n;
      ASSERT_EQ(have.data_in.load(), want.data_in.load()) << "node " << n;
      ASSERT_EQ(have.dummy_in.load(), want.dummy_in.load()) << "node " << n;
    }
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      const auto& want = ref.registry.channel(e);
      const auto& have = got.registry.channel(e);
      ASSERT_EQ(have.data_pushed.load(), want.data_pushed.load())
          << "edge " << e;
      ASSERT_EQ(have.dummies_pushed.load(), want.dummies_pushed.load())
          << "edge " << e;
      ASSERT_EQ(have.pops.load(), want.pops.load()) << "edge " << e;
    }
  }
}

TEST(MetricsDifferential, DummyOverheadRatioMatchesTracer) {
  // The snapshot's dummy_overhead_ratio must equal what an event trace
  // counts: with batch = 1 every queued dummy is one DummySent event.
  const StreamGraph g = workloads::fig2_triangle(2, 2, 2);
  std::vector<std::shared_ptr<runtime::Kernel>> kernels;
  kernels.push_back(std::make_shared<runtime::RelayKernel>(
      workloads::adversarial_prefix_filter(1, 1000)));
  kernels.push_back(runtime::pass_through_kernel());
  kernels.push_back(runtime::pass_through_kernel());
  exec::Session session(g, kernels);

  obs::MetricsRegistry reg(g.node_count(), g.edge_count());
  runtime::Tracer tracer(1u << 18);
  exec::RunSpec spec;
  spec.mode = runtime::DummyMode::Propagation;
  spec.num_inputs = 100;
  spec.metrics = &reg;
  spec.tracer = &tracer;
  ASSERT_TRUE(session.compile_and_run(spec).report.completed);

  const std::uint64_t traced_dummies =
      tracer.filter(runtime::TraceKind::DummySent).size();
  std::uint64_t counted_dummies = 0;
  for (NodeId n = 0; n < g.node_count(); ++n)
    counted_dummies += reg.node(n).dummy_out.load();
  ASSERT_GT(traced_dummies, 0u);
  EXPECT_EQ(counted_dummies, traced_dummies);

  obs::SnapshotOptions opts;
  opts.backend = "sim";
  const auto s = obs::snapshot(g, reg, opts);
  EXPECT_EQ(s.tenant.dummy_items, traced_dummies);
  const double expect_ratio =
      static_cast<double>(traced_dummies) /
      static_cast<double>(s.tenant.data_items + s.tenant.dummy_items);
  EXPECT_DOUBLE_EQ(s.tenant.dummy_overhead_ratio, expect_ratio);
}

TEST(MetricsExport, JsonSchemaStable) {
  const StreamGraph g = workloads::pipeline(2, 4);
  obs::MetricsRegistry reg(g.node_count(), g.edge_count());
  obs::bump(reg.node(0).fires, 7);
  obs::bump(reg.channel(0).data_pushed, 7);

  obs::SnapshotOptions opts;
  opts.backend = "pooled";
  opts.tenant = "we\"ird\\tenant";
  opts.bytes_per_slot = 16;
  auto s = obs::snapshot(g, reg, opts);
  obs::PortMetrics port;
  port.node = 0;
  port.name = g.node_name(0);
  port.input = true;
  port.pushed = 7;
  port.capacity = 256;
  s.ports.push_back(port);

  const std::string j = obs::to_json(s);
  // Envelope and key set -- the schema tag is the compatibility contract.
  EXPECT_NE(j.find("\"schema\":\"sdaf.metrics.v1\""), std::string::npos) << j;
  EXPECT_NE(j.find("\"backend\":\"pooled\""), std::string::npos);
  EXPECT_NE(j.find("\"tenant\":{\"name\":\"we\\\"ird\\\\tenant\""),
            std::string::npos)
      << j;
  for (const char* key :
       {"\"runs\":", "\"items_fired\":", "\"data_items\":", "\"dummy_items\":",
        "\"dummy_overhead_ratio\":", "\"channel_slots\":", "\"channel_bytes\":",
        "\"wall_seconds\":", "\"ckpt\":{", "\"snapshots_taken\":",
        "\"snapshot_pending\":", "\"last_snapshot_seconds\":",
        "\"nodes\":[", "\"channels\":[", "\"workers\":[",
        "\"ports\":[", "\"fires\":7", "\"data_pushed\":7", "\"dir\":\"in\"",
        "\"occupancy\":", "\"high_water\":"})
    EXPECT_NE(j.find(key), std::string::npos) << key << " missing in " << j;
  // Balanced braces; no trailing garbage.
  EXPECT_EQ(j.front(), '{');
  EXPECT_EQ(j.back(), '}');
}

TEST(MetricsExport, PrometheusExpositionStable) {
  const StreamGraph g = workloads::pipeline(2, 4);
  obs::MetricsRegistry reg(g.node_count(), g.edge_count());
  obs::bump(reg.node(1).fires, 9);
  obs::bump(reg.channel(0).dummies_pushed, 4);

  obs::SnapshotOptions opts;
  opts.backend = "pooled";
  opts.tenant = "t\"x\\y";
  auto s = obs::snapshot(g, reg, opts);
  obs::WorkerMetrics w;
  w.worker = 0;
  w.task_runs = 3;
  w.depth_avg = 1.5;
  s.workers.push_back(w);

  const std::string p = obs::to_prometheus(s);
  for (const char* family :
       {"# TYPE sdaf_node_fires_total counter",
        "# TYPE sdaf_node_dummy_out_total counter",
        "# TYPE sdaf_channel_data_pushed_total counter",
        "# TYPE sdaf_channel_occupancy gauge",
        "# TYPE sdaf_worker_task_runs_total counter",
        "# TYPE sdaf_worker_queue_depth_avg gauge",
        "# TYPE sdaf_tenant_dummy_overhead_ratio gauge",
        "# TYPE sdaf_stream_epoch gauge",
        "# TYPE sdaf_snapshots_total counter",
        "# TYPE sdaf_snapshot_pending gauge",
        "# TYPE sdaf_snapshot_duration_seconds gauge"})
    EXPECT_NE(p.find(family), std::string::npos) << family << " missing";
  // Label escaping: backslash then quote, each escaped.
  EXPECT_NE(p.find("tenant=\"t\\\"x\\\\y\""), std::string::npos) << p;
  // A concrete sample line with its value.
  const std::string fires_line = "sdaf_node_fires_total{tenant=\"t\\\"x\\\\y\""
                                 ",node=\"" +
                                 std::string(g.node_name(1)) + "\"} 9";
  EXPECT_NE(p.find(fires_line), std::string::npos) << p;
  EXPECT_NE(p.find("sdaf_tenant_dummy_items_total{tenant=\"t\\\"x\\\\y\"} 4"),
            std::string::npos)
      << p;
}

TEST(StreamMetrics, LiveSnapshotAcrossBackends) {
  for (const Backend backend : {Backend::Sim, Backend::Pooled}) {
    SCOPED_TRACE(to_string(backend));
    const StreamGraph g = workloads::pipeline(3, 2);
    exec::Session session(g, workloads::passthrough_kernels(g));
    exec::StreamSpec sspec;
    sspec.run.backend = backend;
    sspec.run.mode = runtime::DummyMode::None;
    exec::Stream stream = session.open(sspec);

    for (int i = 0; i < 10; ++i) ASSERT_TRUE(stream.input(0).push());
    auto live = stream.metrics();
    EXPECT_EQ(live.schema, "sdaf.metrics.v1");
    EXPECT_EQ(live.backend, to_string(backend));
    ASSERT_EQ(live.ports.size(), 2u);  // one feed, one tap
    EXPECT_TRUE(live.ports[0].input);
    EXPECT_EQ(live.ports[0].pushed, 10u);
    EXPECT_FALSE(live.ports[1].input);

    stream.input(0).close();
    std::size_t polled = 0;
    while (auto item = stream.output(0).next()) ++polled;
    EXPECT_EQ(polled, 10u);
    ASSERT_TRUE(stream.finish().completed);

    const auto final_snap = stream.metrics();
    // 3 passthrough nodes x 10 items, counted by the shared NodeState.
    EXPECT_EQ(final_snap.tenant.items_fired, 30u);
    ASSERT_EQ(final_snap.nodes.size(), 3u);
    for (const auto& n : final_snap.nodes) EXPECT_EQ(n.fires, 10u);
    EXPECT_EQ(final_snap.ports[1].pushed, 10u);  // tap saw every item
    if (backend == Backend::Pooled) {
      ASSERT_FALSE(final_snap.workers.empty());
      std::uint64_t runs = 0;
      for (const auto& w : final_snap.workers) runs += w.task_runs;
      EXPECT_GT(runs, 0u);
    } else {
      EXPECT_TRUE(final_snap.workers.empty());
    }
  }
}

// Checkpoint instrumentation on a live stream: a completed barrier bumps
// the snapshot counter, clears the pending gauge, and latches a duration;
// a restored stream reports its bumped epoch.
TEST(StreamMetrics, CheckpointCountersSurfaceInMetrics) {
  const StreamGraph g = workloads::pipeline(3, 2);
  exec::Session session(g, workloads::passthrough_kernels(g));
  exec::StreamSpec sspec;
  sspec.run.mode = runtime::DummyMode::None;
  exec::Stream stream = session.open(sspec);

  auto before = stream.metrics();
  EXPECT_EQ(before.ckpt.epoch, 0u);
  EXPECT_EQ(before.ckpt.snapshots_taken, 0u);
  EXPECT_FALSE(before.ckpt.snapshot_pending);

  for (int i = 0; i < 10; ++i) ASSERT_TRUE(stream.input(0).push());
  const auto snap = stream.snapshot(std::chrono::milliseconds(5000));
  ASSERT_TRUE(snap.has_value());

  auto after = stream.metrics();
  EXPECT_EQ(after.ckpt.snapshots_taken, 1u);
  EXPECT_FALSE(after.ckpt.snapshot_pending);
  EXPECT_GE(after.ckpt.last_snapshot_seconds, 0.0);
  const std::string page = obs::to_prometheus(after);
  EXPECT_NE(page.find("sdaf_snapshots_total{tenant=\"default\"} 1"),
            std::string::npos)
      << page;

  stream.input(0).close();
  while (stream.output(0).next()) {
  }
  ASSERT_TRUE(stream.finish().completed);

  exec::Session session2(g, workloads::passthrough_kernels(g));
  auto restored = session2.restore(sspec, *snap);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->metrics().ckpt.epoch, 1u);
  restored->input(0).close();
  while (restored->output(0).next()) {
  }
  (void)restored->finish();
}

TEST(StreamMetrics, DisabledRegistryStillReportsPorts) {
  const StreamGraph g = workloads::pipeline(2, 2);
  exec::Session session(g, workloads::passthrough_kernels(g));
  exec::StreamSpec sspec;
  sspec.run.mode = runtime::DummyMode::None;
  sspec.metrics = false;  // zero-overhead baseline
  exec::Stream stream = session.open(sspec);
  ASSERT_TRUE(stream.input(0).push());
  const auto snap = stream.metrics();
  EXPECT_TRUE(snap.nodes.empty());  // no registry attached
  ASSERT_EQ(snap.ports.size(), 2u);
  EXPECT_EQ(snap.ports[0].pushed, 1u);  // port gauges still live
  stream.input(0).close();
  (void)stream.finish();
}

TEST(SessionMetrics, TenantLedgerAccumulates) {
  const StreamGraph g = workloads::pipeline(3, 2);
  exec::Session session(g, workloads::passthrough_kernels(g));
  exec::RunSpec spec;
  spec.mode = runtime::DummyMode::None;
  spec.num_inputs = 10;
  spec.tenant = "alpha";
  ASSERT_TRUE(session.run(spec).completed);
  ASSERT_TRUE(session.run(spec).completed);
  spec.tenant = "beta";
  spec.num_inputs = 5;
  ASSERT_TRUE(session.run(spec).completed);

  const auto tenants = session.metrics();
  ASSERT_EQ(tenants.size(), 2u);  // sorted by name
  EXPECT_EQ(tenants[0].tenant, "alpha");
  EXPECT_EQ(tenants[0].runs, 2u);
  EXPECT_EQ(tenants[0].items_fired, 60u);  // 3 nodes x 10 x 2 runs
  EXPECT_EQ(tenants[0].data_items, 40u);   // 2 edges x 10 x 2 runs
  EXPECT_EQ(tenants[0].dummy_items, 0u);
  EXPECT_EQ(tenants[0].channel_slots, 4u);  // 2 edges x buffer 2
  EXPECT_EQ(tenants[0].channel_bytes, 4u * sizeof(runtime::Message));
  EXPECT_GE(tenants[0].wall_seconds, 0.0);
  EXPECT_EQ(tenants[1].tenant, "beta");
  EXPECT_EQ(tenants[1].runs, 1u);
  EXPECT_EQ(tenants[1].items_fired, 15u);
}

TEST(StreamMetrics, ReadableWhileStreaming) {
  // Stream::metrics is safe from another thread while traffic is in flight
  // on a concurrent backend (TSan checks the reads in the stress tier), and
  // exact once the stream finished.
  const StreamGraph g = workloads::pipeline(3, 2);
  exec::Session session(g, workloads::passthrough_kernels(g));
  exec::StreamSpec sspec;
  sspec.run.backend = Backend::Pooled;
  sspec.run.mode = runtime::DummyMode::None;
  exec::Stream stream = session.open(sspec);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::atomic<bool> monotonic{true};
  std::thread reader([&] {
    std::uint64_t last = 0;
    while (!stop.load()) {
      const std::uint64_t fired = stream.metrics().tenant.items_fired;
      if (fired < last || fired > 600) monotonic.store(false);
      last = fired;
      reads.fetch_add(1);
    }
  });
  while (reads.load() == 0) std::this_thread::yield();
  for (int i = 0; i < 200; ++i) ASSERT_TRUE(stream.input(0).push());
  stream.input(0).close();
  while (stream.output(0).next().has_value()) {
  }
  ASSERT_TRUE(stream.finish().completed);
  stop.store(true);
  reader.join();
  EXPECT_TRUE(monotonic.load());

  const obs::MetricsSnapshot m = stream.metrics();
  EXPECT_EQ(m.tenant.items_fired, 600u);
  ASSERT_EQ(m.channels.size(), g.edge_count());
  for (const obs::ChannelMetrics& ch : m.channels) {
    EXPECT_GE(ch.high_water, 1) << ch.edge;
    EXPECT_LE(ch.high_water, g.edge(ch.edge).buffer) << ch.edge;
  }
  EXPECT_FALSE(m.workers.empty());
}

}  // namespace
}  // namespace sdaf
