#include "src/runtime/trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>
#include <tuple>
#include <vector>

#include "src/core/compile.h"
#include "src/exec/session.h"
#include "src/workloads/filters.h"
#include "src/workloads/topologies.h"

namespace sdaf::runtime {
namespace {

TEST(Tracer, RecordsAndSnapshots) {
  Tracer t(8);
  t.record(TraceEvent{TraceKind::Fire, 3, 0, 42, 7});
  t.record(TraceEvent{TraceKind::DataSent, 3, 1, 42, 7});
  const auto events = t.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, TraceKind::Fire);
  EXPECT_EQ(events[1].slot, 1u);
  EXPECT_EQ(t.dropped(), 0u);
}

TEST(Tracer, BoundedDropsOldest) {
  Tracer t(3);
  for (std::uint64_t i = 0; i < 10; ++i)
    t.record(TraceEvent{TraceKind::Fire, 0, 0, i, i});
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.dropped(), 7u);
  const auto events = t.snapshot();
  EXPECT_EQ(events.front().seq, 7u);
  EXPECT_EQ(events.back().seq, 9u);
}

TEST(Tracer, FilterAndForNode) {
  Tracer t(16);
  t.record(TraceEvent{TraceKind::Fire, 1, 0, 0, 0});
  t.record(TraceEvent{TraceKind::DummySent, 1, 0, 0, 0});
  t.record(TraceEvent{TraceKind::Fire, 2, 0, 0, 0});
  EXPECT_EQ(t.filter(TraceKind::Fire).size(), 2u);
  EXPECT_EQ(t.filter(TraceKind::DummySent).size(), 1u);
  EXPECT_EQ(t.for_node(1).size(), 2u);
  EXPECT_EQ(t.for_node(9).size(), 0u);
}

TEST(Tracer, EventToString) {
  const TraceEvent e{TraceKind::DummySent, 4, 2, 17, 99};
  const std::string s = e.to_string();
  EXPECT_NE(s.find("dummy_sent"), std::string::npos);
  EXPECT_NE(s.find("node=4"), std::string::npos);
  EXPECT_NE(s.find("seq=17"), std::string::npos);
}

TEST(TracerDeathTest, RejectsZeroCapacity) {
  EXPECT_DEATH(Tracer(0), "precondition");
}

TEST(Tracer, TailForNode) {
  Tracer t(32);
  for (std::uint64_t i = 0; i < 10; ++i)
    t.record(TraceEvent{TraceKind::Fire, static_cast<NodeId>(i % 2), 0, i, i});
  const auto tail = t.tail_for_node(0, 3);
  ASSERT_EQ(tail.size(), 3u);
  // The *last* three node-0 events (seqs 4, 6, 8), oldest first.
  EXPECT_EQ(tail[0].seq, 4u);
  EXPECT_EQ(tail[2].seq, 8u);
  EXPECT_TRUE(t.tail_for_node(7, 3).empty());
}

TEST(Tracer, SnapshotUnderConcurrentWritersIsBoundedAndOrdered) {
  // The snapshot path copies the ring in bounded chunks, releasing the lock
  // between chunks so a hot writer is stalled for at most one chunk at a
  // time. Events a writer laps while the reader is off the lock are
  // *skipped*, never duplicated or torn: every snapshot must be a strictly
  // increasing subsequence of the recorded seqs, bounded by the capacity.
  constexpr std::size_t kCapacity = 1u << 10;
  constexpr std::uint64_t kRecords = 200'000;  // laps the ring ~200 times
  Tracer t(kCapacity);
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (std::uint64_t seq = 0; seq < kRecords; ++seq)
      t.record(TraceEvent{TraceKind::Fire, 0, 0, seq, 0});
    done.store(true, std::memory_order_release);
  });
  while (!done.load(std::memory_order_acquire)) {
    const auto events = t.snapshot();
    ASSERT_LE(events.size(), kCapacity);
    for (std::size_t i = 1; i < events.size(); ++i)
      ASSERT_LT(events[i - 1].seq, events[i].seq) << "torn snapshot";
  }
  writer.join();
  // Quiescent now: the final snapshot is the exact ring tail.
  const auto events = t.snapshot();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.back().seq - events.front().seq + 1, events.size());
}

TEST(SimTracing, PipelineEventAccounting) {
  const StreamGraph g = workloads::pipeline(3, 2);
  exec::Session session(g, workloads::passthrough_kernels(g));
  Tracer tracer(1u << 16);
  exec::RunSpec spec;
  spec.mode = DummyMode::None;
  spec.num_inputs = 20;
  spec.tracer = &tracer;
  const auto r = session.run(spec);
  ASSERT_TRUE(r.completed);
  // 3 nodes x 20 firings, 2 edges x 20 data sends/consumes, 2 EOS floods.
  EXPECT_EQ(tracer.filter(TraceKind::Fire).size(), 60u);
  EXPECT_EQ(tracer.filter(TraceKind::DataSent).size(), 40u);
  EXPECT_EQ(tracer.filter(TraceKind::DataConsumed).size(), 40u);
  EXPECT_EQ(tracer.filter(TraceKind::EosSent).size(), 2u);
  EXPECT_EQ(tracer.filter(TraceKind::DummySent).size(), 0u);
}

TEST(SimTracing, DummyOriginationAndForwardingVisible) {
  // Fig. 2 with A filtering A->C: the trace shows dummies originating at A
  // (node 0) on its second out-slot and being consumed by C.
  const StreamGraph g = workloads::fig2_triangle(2, 2, 2);
  const auto compiled = core::compile(g);
  std::vector<std::shared_ptr<Kernel>> kernels;
  kernels.push_back(std::make_shared<RelayKernel>(
      workloads::adversarial_prefix_filter(1, 1000)));
  kernels.push_back(pass_through_kernel());
  kernels.push_back(pass_through_kernel());
  exec::Session session(g, kernels);
  Tracer tracer(1u << 16);
  exec::RunSpec spec;
  spec.mode = DummyMode::Propagation;
  spec.intervals = compiled.integer_intervals(core::Rounding::Floor);
  spec.forward_on_filter = compiled.forward_on_filter();
  spec.num_inputs = 100;
  spec.tracer = &tracer;
  ASSERT_TRUE(session.run(spec).completed);

  const auto sent = tracer.filter(TraceKind::DummySent);
  ASSERT_FALSE(sent.empty());
  for (const auto& e : sent) {
    EXPECT_EQ(e.node, 0u);   // only A originates here
    EXPECT_EQ(e.slot, 1u);   // on A->C
  }
  const auto consumed = tracer.filter(TraceKind::DummyConsumed);
  ASSERT_FALSE(consumed.empty());
  for (const auto& e : consumed) EXPECT_EQ(e.node, 2u);  // C consumed them

  // Sequence numbers on A->C respect the compiled interval: consecutive
  // dummy sends are at most [A->C] apart.
  const auto interval =
      compiled.integer_intervals(core::Rounding::Floor)[2];
  for (std::size_t i = 1; i < sent.size(); ++i)
    EXPECT_LE(sent[i].seq - sent[i - 1].seq,
              static_cast<std::uint64_t>(interval));
}

TEST(PooledTracing, WallClockTimestampsAttached) {
  // Off the simulator there is no sweep tick, so trace events carry a
  // steady-clock ts_ns instead (and tick stays 0). The sim keeps ts_ns == 0
  // -- its deterministic tick is the timestamp.
  const StreamGraph g = workloads::pipeline(3, 2);
  exec::Session session(g, workloads::passthrough_kernels(g));
  Tracer tracer(1u << 14);
  exec::RunSpec spec;
  spec.backend = exec::Backend::Pooled;
  spec.pool_workers = 2;
  spec.mode = DummyMode::None;
  spec.num_inputs = 20;
  spec.tracer = &tracer;
  ASSERT_TRUE(session.run(spec).completed);
  const auto events = tracer.snapshot();
  ASSERT_FALSE(events.empty());
  for (const auto& e : events) {
    EXPECT_NE(e.ts_ns, 0u);
    EXPECT_EQ(e.tick, 0u);
  }
  // to_string surfaces the timestamp for state_dump readers.
  EXPECT_NE(events.front().to_string().find("ts_ns="), std::string::npos);

  Tracer sim_tracer(1u << 14);
  exec::RunSpec sim_spec = spec;
  sim_spec.backend = exec::Backend::Sim;
  sim_spec.tracer = &sim_tracer;
  ASSERT_TRUE(session.run(sim_spec).completed);
  const auto sim_events = sim_tracer.snapshot();
  ASSERT_FALSE(sim_events.empty());
  for (const auto& e : sim_events) EXPECT_EQ(e.ts_ns, 0u);
}

TEST(SimTracing, TicksAreMonotone) {
  const StreamGraph g = workloads::fig1_splitjoin(2);
  exec::Session session(g, workloads::relay_kernels(g, 0.5, 3));
  Tracer tracer(1u << 14);
  const auto compiled = core::compile(g);
  exec::RunSpec spec;
  spec.mode = DummyMode::Propagation;
  spec.intervals = compiled.integer_intervals(core::Rounding::Floor);
  spec.forward_on_filter = compiled.forward_on_filter();
  spec.num_inputs = 50;
  spec.tracer = &tracer;
  ASSERT_TRUE(session.run(spec).completed);
  const auto events = tracer.snapshot();
  for (std::size_t i = 1; i < events.size(); ++i)
    EXPECT_LE(events[i - 1].tick, events[i].tick);
}

// Dummy runs are decided a run at a time (NodeWrapper::dummy_run), but the
// trace still records one DummyConsumed/DummySent event per message, in
// the order r message-at-a-time firings record them. A traced Sim run of
// the continuation ladder (the dense-dummy regime) at batch 64 must show,
// per node, exactly the events of the batch-1 run; and its full dummy
// event stream, sweep ticks included, is pinned to a digest recorded with
// the per-message implementation.
TEST(SimTracing, DummyRunEventsMatchPerMessageFirings) {
  struct Case {
    DummyMode mode;
    core::Algorithm algorithm;
    std::int64_t tight;     // the ladder's short edge
    std::size_t events;     // pinned: DummyConsumed + DummySent at batch 64
    std::uint64_t digest;   // pinned: FNV-1a over (kind,node,slot,seq,tick)
  };
  // Tight 1 is the benchmark's shape (every interval 1); tight 32 gives
  // Non-Propagation intervals > 1, so runs emit strided dummies.
  const Case cases[] = {
      {DummyMode::Propagation, core::Algorithm::Propagation, 1, 35360,
       0x8028d9f45f690dfeull},
      {DummyMode::NonPropagation, core::Algorithm::NonPropagation, 32, 6068,
       0x298742a1dabba005ull},
  };
  using Key = std::tuple<TraceKind, std::size_t, std::uint64_t>;
  for (const Case& c : cases) {
    const StreamGraph g = workloads::continuation_ladder(4, 64, c.tight);
    core::CompileOptions copt;
    copt.algorithm = c.algorithm;
    const auto compiled = core::compile(g, copt);
    ASSERT_TRUE(compiled.ok) << compiled.diagnostics;
    std::map<NodeId, std::vector<Key>> per_node[2];
    std::size_t count = 0;
    std::uint64_t digest = 0xcbf29ce484222325ull;
    for (const std::uint32_t batch : {1u, 64u}) {
      exec::Session session(g, workloads::relay_kernels(g, 0.1, 0xD00D));
      Tracer tracer(1u << 20);
      exec::RunSpec spec;
      spec.mode = c.mode;
      spec.apply(compiled);
      spec.num_inputs = 3000;
      spec.batch = batch;
      spec.tracer = &tracer;
      ASSERT_TRUE(session.run(spec).completed);
      ASSERT_EQ(tracer.dropped(), 0u);
      for (const TraceEvent& e : tracer.snapshot()) {
        if (e.kind != TraceKind::DummyConsumed &&
            e.kind != TraceKind::DummySent)
          continue;
        per_node[batch == 1 ? 0 : 1][e.node].emplace_back(e.kind, e.slot,
                                                           e.seq);
        if (batch != 64) continue;
        ++count;
        for (const std::uint64_t v :
             {static_cast<std::uint64_t>(e.kind),
              static_cast<std::uint64_t>(e.node),
              static_cast<std::uint64_t>(e.slot), e.seq, e.tick}) {
          digest ^= v;
          digest *= 0x100000001b3ull;
        }
      }
    }
    const std::string label = c.mode == DummyMode::Propagation ? "prop"
                                                               : "nonprop";
    EXPECT_FALSE(per_node[1].empty()) << label;
    EXPECT_EQ(per_node[0], per_node[1]) << label;
    EXPECT_EQ(count, c.events) << label;
    EXPECT_EQ(digest, c.digest) << label << " digest 0x" << std::hex << digest;
  }
}

}  // namespace
}  // namespace sdaf::runtime
