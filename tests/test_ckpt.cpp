// Checkpoint/restore for long-lived streams (src/ckpt, Stream::snapshot_*,
// Session::restore): asynchronous barrier snapshots complete without
// stopping the stream on every backend, the serialized format round-trips,
// a restored stream resumes bit-identically (outputs, counters, verdicts),
// and the marker/EOS interleavings -- snapshot after close, back-to-back
// barriers, a barrier racing a deadlock verdict, a wedged deadline-bounded
// snapshot -- all behave.
#include "src/ckpt/snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "src/core/compile.h"
#include "src/exec/session.h"
#include "src/exec/stream.h"
#include "src/runtime/pool_executor.h"
#include "src/workloads/filters.h"
#include "src/workloads/topologies.h"

namespace sdaf::exec {
namespace {

using runtime::DummyMode;
using runtime::Kernel;
using runtime::Value;

constexpr Backend kBackends[] = {Backend::Sim, Backend::Pooled};

constexpr std::chrono::milliseconds kSnapTimeout{5000};

// A stateful kernel: emits the running sum of its inputs, so any restore
// that loses kernel state (or replays/skips an item) diverges loudly in
// every later output.
class CumSumKernel final : public Kernel {
 public:
  void fire(std::uint64_t seq, const std::vector<std::optional<Value>>& inputs,
            runtime::Emitter& out) override {
    std::int64_t v = static_cast<std::int64_t>(seq);
    for (const auto& in : inputs)
      if (in.has_value() && in->has_value()) v = in->as<std::int64_t>();
    total_ += v;
    for (std::size_t slot = 0; slot < out.slots(); ++slot)
      out.emit(slot, Value(total_));
  }
  void save_state(std::string& out) const override {
    out.assign(reinterpret_cast<const char*>(&total_), sizeof(total_));
  }
  void load_state(const std::string& in) override {
    ASSERT_EQ(in.size(), sizeof(total_));
    std::memcpy(&total_, in.data(), sizeof(total_));
  }

 private:
  std::int64_t total_ = 0;
};

// pipeline(3) with a stateful middle stage. Fresh instances per session --
// kernel state is per-run.
std::vector<std::shared_ptr<Kernel>> cumsum_kernels() {
  return {runtime::pass_through_kernel(), std::make_shared<CumSumKernel>(),
          runtime::pass_through_kernel()};
}

std::vector<std::shared_ptr<Kernel>> wedge_kernels() {
  return {std::make_shared<runtime::RelayKernel>(
              workloads::adversarial_prefix_filter(1, 100)),
          runtime::pass_through_kernel(), runtime::pass_through_kernel()};
}

// Two independent sources joining: the lagging-port arming path needs a
// port that is genuinely behind the barrier.
StreamGraph two_source_join() {
  StreamGraph g;
  const NodeId a = g.add_node("srcA");
  const NodeId b = g.add_node("srcB");
  const NodeId j = g.add_node("join");
  const NodeId y = g.add_node("sink");
  g.add_edge(a, j, 4);
  g.add_edge(b, j, 4);
  g.add_edge(j, y, 4);
  return g;
}

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

// An in-flight snapshot must not disturb the stream: all items flow, the
// marker never surfaces at the ports, and the snapshot describes the graph
// at the barrier.
TEST(Ckpt, SnapshotMidStreamCompletesOnEveryBackend) {
  const StreamGraph g = workloads::pipeline(3, 4);
  for (const Backend backend : kBackends) {
    const std::string label = to_string(backend);
    Session session(g, workloads::passthrough_kernels(g));
    StreamSpec ss;
    ss.run.backend = backend;
    ss.run.mode = DummyMode::None;
    ss.run.pool_workers = 2;
    Stream stream = session.open(ss);
    EXPECT_EQ(stream.epoch(), 0u) << label;
    for (std::int64_t i = 0; i < 50; ++i)
      ASSERT_TRUE(stream.input(0).push(Value(i * 10)));
    ASSERT_TRUE(stream.snapshot_begin()) << label;
    // Keep the stream busy while the barrier drains; the caller's own polls
    // consume (and acknowledge) the tap marker on the way.
    std::vector<OutputPort::Item> got;
    std::optional<ckpt::StreamSnapshot> snap;
    const auto deadline = std::chrono::steady_clock::now() + kSnapTimeout;
    while (!snap.has_value()) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline) << label;
      while (auto item = stream.output(0).poll()) got.push_back(*item);
      snap = stream.snapshot_poll();
    }
    EXPECT_EQ(snap->barrier_seq, 50u) << label;
    EXPECT_EQ(snap->epoch, 0u) << label;
    EXPECT_EQ(snap->nodes.size(), g.node_count()) << label;
    EXPECT_EQ(snap->edges.size(), g.edge_count()) << label;
    ASSERT_EQ(snap->ports.size(), 1u) << label;
    EXPECT_EQ(snap->ports[0].closed, 0) << label;
    EXPECT_EQ(snap->ports[0].next_seq, 50u) << label;
    ASSERT_EQ(snap->taps.size(), 1u) << label;
    EXPECT_FALSE(snap->signature.empty()) << label;
    // The stream runs on, unaffected.
    for (std::int64_t i = 50; i < 100; ++i)
      ASSERT_TRUE(stream.input(0).push(Value(i * 10)));
    stream.input(0).close();
    while (auto item = stream.output(0).next()) got.push_back(*item);
    ASSERT_EQ(got.size(), 100u) << label;
    for (std::size_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(got[k].seq, k) << label;
      EXPECT_EQ(got[k].value.as<std::int64_t>(),
                static_cast<std::int64_t>(k) * 10)
          << label;
    }
    const RunReport report = stream.finish();
    EXPECT_TRUE(report.completed) << label;
  }
}

// The same mid-stream barrier on a scheduler-adversarial pool: more workers
// than nodes, 2-slot deques, 1-step quanta and injected yields, so every
// marker hop crosses a steal and the instance futex-parks between pushes.
// Barrier markers are occupancy-neutral pending work -- the snapshot must
// complete (not hang a quiescence verdict) and describe the same cut.
TEST(Ckpt, SnapshotCompletesOnPerturbedPool) {
  const StreamGraph g = workloads::pipeline(3, 4);
  runtime::PoolExecutor::Options popt;
  popt.workers = 6;
  popt.deque_capacity = 2;
  popt.max_steps_per_quantum = 1;
  popt.perturb_yield_in_256 = 96;
  popt.seed = 0xC4A51;
  runtime::PoolExecutor pool(popt);
  Session session(g, workloads::passthrough_kernels(g));
  StreamSpec ss;
  ss.run.backend = Backend::Pooled;
  ss.run.pool = &pool;
  ss.run.mode = DummyMode::None;
  Stream stream = session.open(ss);
  for (std::int64_t i = 0; i < 50; ++i)
    ASSERT_TRUE(stream.input(0).push(Value(i * 10)));
  ASSERT_TRUE(stream.snapshot_begin());
  std::vector<OutputPort::Item> got;
  std::optional<ckpt::StreamSnapshot> snap;
  const auto deadline = std::chrono::steady_clock::now() + kSnapTimeout;
  while (!snap.has_value()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    while (auto item = stream.output(0).poll()) got.push_back(*item);
    snap = stream.snapshot_poll();
  }
  EXPECT_EQ(snap->barrier_seq, 50u);
  EXPECT_EQ(snap->nodes.size(), g.node_count());
  for (std::int64_t i = 50; i < 100; ++i)
    ASSERT_TRUE(stream.input(0).push(Value(i * 10)));
  stream.input(0).close();
  while (auto item = stream.output(0).next()) got.push_back(*item);
  ASSERT_EQ(got.size(), 100u);
  for (std::size_t k = 0; k < got.size(); ++k)
    EXPECT_EQ(got[k].value.as<std::int64_t>(),
              static_cast<std::int64_t>(k) * 10);
  EXPECT_TRUE(stream.finish().completed);
}

// The versioned blob round-trips exactly and rejects corruption.
TEST(Ckpt, SerializedSnapshotRoundTrips) {
  const StreamGraph g = workloads::pipeline(3, 4);
  Session session(g, workloads::passthrough_kernels(g));
  StreamSpec ss;
  ss.run.backend = Backend::Sim;
  ss.run.mode = DummyMode::None;
  Stream stream = session.open(ss);
  for (std::int64_t i = 0; i < 20; ++i)
    ASSERT_TRUE(stream.input(0).push(Value(i)));
  const auto snap = stream.snapshot(kSnapTimeout);
  ASSERT_TRUE(snap.has_value());
  // Nothing polled: everything the sink emitted by the cut is residue.
  EXPECT_FALSE(snap->taps[0].residue.empty());

  const std::vector<std::uint8_t> bytes = ckpt::serialize(*snap);
  const auto back = ckpt::deserialize(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->version, snap->version);
  EXPECT_EQ(back->signature, snap->signature);
  EXPECT_EQ(back->epoch, snap->epoch);
  EXPECT_EQ(back->barrier_seq, snap->barrier_seq);
  EXPECT_EQ(back->sweeps, snap->sweeps);
  ASSERT_EQ(back->nodes.size(), snap->nodes.size());
  for (std::size_t n = 0; n < snap->nodes.size(); ++n) {
    EXPECT_EQ(back->nodes[n].done, snap->nodes[n].done);
    EXPECT_EQ(back->nodes[n].fires, snap->nodes[n].fires);
    EXPECT_EQ(back->nodes[n].sink_data, snap->nodes[n].sink_data);
    EXPECT_EQ(back->nodes[n].source_seq, snap->nodes[n].source_seq);
    EXPECT_EQ(back->nodes[n].last_sent, snap->nodes[n].last_sent);
    EXPECT_EQ(back->nodes[n].kernel_state, snap->nodes[n].kernel_state);
  }
  ASSERT_EQ(back->edges.size(), snap->edges.size());
  for (std::size_t e = 0; e < snap->edges.size(); ++e) {
    EXPECT_EQ(back->edges[e].data_pushed, snap->edges[e].data_pushed);
    EXPECT_EQ(back->edges[e].dummies_pushed, snap->edges[e].dummies_pushed);
  }
  ASSERT_EQ(back->taps.size(), snap->taps.size());
  ASSERT_EQ(back->taps[0].residue.size(), snap->taps[0].residue.size());
  for (std::size_t k = 0; k < snap->taps[0].residue.size(); ++k)
    EXPECT_EQ(back->taps[0].residue[k].seq, snap->taps[0].residue[k].seq);

  // Corruption and truncation are detected, not crashed on.
  EXPECT_FALSE(ckpt::deserialize(bytes.data(), bytes.size() - 1).has_value());
  std::vector<std::uint8_t> bad = bytes;
  bad[0] ^= 0xFF;  // version
  EXPECT_FALSE(ckpt::deserialize(bad).has_value());
  (void)stream.finish();
}

// The crash-recovery differential, in-process: snapshot mid-stream, discard
// the original, restore into a fresh session, replay the cut's tail -- the
// delivered outputs and the final report must be bit-identical to an
// uninterrupted run. Stateful kernel included, so lost kernel state or a
// skipped/replayed item shows up in every subsequent sum.
TEST(Ckpt, RestoreResumesBitIdenticallyOnEveryBackend) {
  const StreamGraph g = workloads::pipeline(3, 4);
  constexpr std::int64_t kItems = 120;
  constexpr std::int64_t kCut = 47;
  // Reference: uninterrupted Sim run.
  std::vector<OutputPort::Item> want;
  RunReport want_report;
  {
    Session session(g, cumsum_kernels());
    StreamSpec ss;
    ss.run.backend = Backend::Sim;
    ss.run.mode = DummyMode::None;
    Stream stream = session.open(ss);
    for (std::int64_t i = 0; i < kItems; ++i)
      ASSERT_TRUE(stream.input(0).push(Value(i * 3)));
    stream.input(0).close();
    while (auto item = stream.output(0).next()) want.push_back(*item);
    want_report = stream.finish();
    ASSERT_TRUE(want_report.completed);
    ASSERT_EQ(want.size(), static_cast<std::size_t>(kItems));
  }
  for (const Backend backend : kBackends) {
    const std::string label = to_string(backend);
    StreamSpec ss;
    ss.run.backend = backend;
    ss.run.mode = DummyMode::None;
    ss.run.pool_workers = 2;
    // Phase 1: run to the cut, snapshot, then "crash" (discard the stream
    // and the session -- nothing delivered from it is kept).
    ckpt::StreamSnapshot snap;
    {
      Session session(g, cumsum_kernels());
      Stream stream = session.open(ss);
      for (std::int64_t i = 0; i < kCut; ++i)
        ASSERT_TRUE(stream.input(0).push(Value(i * 3)));
      auto taken = stream.snapshot(kSnapTimeout);
      ASSERT_TRUE(taken.has_value()) << label;
      snap = std::move(*taken);
      (void)stream.finish();
    }
    EXPECT_EQ(snap.ports[0].next_seq, static_cast<std::uint64_t>(kCut))
        << label;
    // Phase 2: restore into a fresh session (fresh kernel instances) and
    // replay the tail.
    Session session(g, cumsum_kernels());
    auto restored = session.restore(ss, snap);
    ASSERT_TRUE(restored.has_value()) << label;
    EXPECT_EQ(restored->epoch(), 1u) << label;
    ASSERT_EQ(restored->input(0).pushed(), static_cast<std::uint64_t>(kCut))
        << label;
    for (std::int64_t i = kCut; i < kItems; ++i)
      ASSERT_TRUE(restored->input(0).push(Value(i * 3))) << label;
    restored->input(0).close();
    std::vector<OutputPort::Item> got;
    while (auto item = restored->output(0).next()) got.push_back(*item);
    const RunReport report = restored->finish();
    // Outputs: residue + post-restore emissions = the full uninterrupted
    // sequence (nothing was delivered before the crash).
    ASSERT_EQ(got.size(), want.size()) << label;
    for (std::size_t k = 0; k < want.size(); ++k) {
      EXPECT_EQ(got[k].seq, want[k].seq) << label << " item " << k;
      EXPECT_EQ(got[k].value.as<std::int64_t>(),
                want[k].value.as<std::int64_t>())
          << label << " item " << k;
    }
    expect_same_report(want_report, report, label);
  }
}

// Snapshots are backend-portable: cut on Pooled, resume on Sim.
TEST(Ckpt, RestoreCrossesBackends) {
  const StreamGraph g = workloads::pipeline(3, 4);
  StreamSpec ss;
  ss.run.mode = DummyMode::None;
  ckpt::StreamSnapshot snap;
  {
    Session session(g, cumsum_kernels());
    ss.run.backend = Backend::Pooled;
    Stream stream = session.open(ss);
    for (std::int64_t i = 0; i < 30; ++i)
      ASSERT_TRUE(stream.input(0).push(Value(i)));
    auto taken = stream.snapshot(kSnapTimeout);
    ASSERT_TRUE(taken.has_value());
    snap = std::move(*taken);
    (void)stream.finish();
  }
  Session session(g, cumsum_kernels());
  ss.run.backend = Backend::Sim;
  auto restored = session.restore(ss, snap);
  ASSERT_TRUE(restored.has_value());
  for (std::int64_t i = 30; i < 60; ++i)
    ASSERT_TRUE(restored->input(0).push(Value(i)));
  restored->input(0).close();
  std::size_t got = 0;
  std::int64_t expected_sum = 0;
  while (auto item = restored->output(0).next()) {
    expected_sum += static_cast<std::int64_t>(got);
    EXPECT_EQ(item->seq, got);
    EXPECT_EQ(item->value.as<std::int64_t>(), expected_sum);
    ++got;
  }
  EXPECT_EQ(got, 60u);
  EXPECT_TRUE(restored->finish().completed);
}

// Restore validates: wrong avoidance configuration (signature), wrong
// version, and internally inconsistent blobs are refused, not half-applied.
TEST(Ckpt, RestoreRejectsMismatchedSnapshots) {
  const StreamGraph g = workloads::pipeline(3, 4);
  StreamSpec ss;
  ss.run.backend = Backend::Sim;
  ss.run.mode = DummyMode::None;
  Session session(g, workloads::passthrough_kernels(g));
  Stream stream = session.open(ss);
  ASSERT_TRUE(stream.input(0).push(Value(std::int64_t{1})));
  auto snap = stream.snapshot(kSnapTimeout);
  ASSERT_TRUE(snap.has_value());
  (void)stream.finish();

  ckpt::StreamSnapshot bad = *snap;
  bad.version = ckpt::kSnapshotVersion + 1;
  EXPECT_FALSE(session.restore(ss, bad).has_value());

  StreamSpec other = ss;
  other.run.mode = DummyMode::Propagation;  // different traffic config
  EXPECT_FALSE(session.restore(other, *snap).has_value());

  bad = *snap;
  bad.nodes.pop_back();
  EXPECT_FALSE(session.restore(ss, bad).has_value());

  bad = *snap;
  bad.ports[0].closed = 1;  // closed port whose source is not cut done
  bad.nodes[g.sources()[0]].done = 0;
  EXPECT_FALSE(session.restore(ss, bad).has_value());

  // The pristine snapshot restores fine (the rejects above were about the
  // blobs, not the stream).
  auto ok = session.restore(ss, *snap);
  ASSERT_TRUE(ok.has_value());
  ok->input(0).close();
  EXPECT_TRUE(ok->finish().completed);
}

// A port lagging behind the barrier stalls the cut only until it reaches
// S: the marker is injected exactly between S-1 and S.
TEST(Ckpt, LaggingPortArmsAndInjectsAtBarrier) {
  const StreamGraph g = two_source_join();
  for (const Backend backend : kBackends) {
    const std::string label = to_string(backend);
    Session session(g, workloads::passthrough_kernels(g));
    StreamSpec ss;
    ss.run.backend = backend;
    ss.run.mode = DummyMode::None;
    ss.run.pool_workers = 2;
    Stream stream = session.open(ss);
    for (std::int64_t i = 0; i < 10; ++i)
      ASSERT_TRUE(stream.input(0).push(Value(i)));
    for (std::int64_t i = 0; i < 3; ++i)
      ASSERT_TRUE(stream.input(1).push(Value(i)));
    ASSERT_TRUE(stream.snapshot_begin()) << label;
    // Port 1 is 7 short of S = 10: the barrier cannot complete yet (its
    // source has no marker to checkpoint on).
    for (int spin = 0; spin < 10; ++spin) {
      stream.pump();
      EXPECT_FALSE(stream.snapshot_poll().has_value()) << label;
    }
    for (std::int64_t i = 3; i < 10; ++i)
      ASSERT_TRUE(stream.input(1).push(Value(i)));
    std::optional<ckpt::StreamSnapshot> snap;
    const auto deadline = std::chrono::steady_clock::now() + kSnapTimeout;
    while (!snap.has_value()) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline) << label;
      while (stream.output(0).poll().has_value()) {
      }
      snap = stream.snapshot_poll();
    }
    EXPECT_EQ(snap->barrier_seq, 10u) << label;
    EXPECT_EQ(snap->ports[0].next_seq, 10u) << label;
    EXPECT_EQ(snap->ports[1].next_seq, 10u) << label;
    for (auto& port : {0, 1}) stream.input(port).close();
    EXPECT_TRUE(stream.finish().completed) << label;
  }
}

// Marker/EOS interleaving: a snapshot begun after every port closed is the
// terminal cut -- no markers, completion through the finished set alone --
// and restoring it yields an already-ended stream that re-delivers only
// the residue.
TEST(Ckpt, SnapshotAfterCloseIsTerminalCut) {
  const StreamGraph g = workloads::pipeline(3, 4);
  for (const Backend backend : kBackends) {
    const std::string label = to_string(backend);
    StreamSpec ss;
    ss.run.backend = backend;
    ss.run.mode = DummyMode::None;
    ss.run.pool_workers = 2;
    ckpt::StreamSnapshot snap;
    {
      Session session(g, workloads::passthrough_kernels(g));
      Stream stream = session.open(ss);
      for (std::int64_t i = 0; i < 25; ++i)
        ASSERT_TRUE(stream.input(0).push(Value(i * 2)));
      stream.input(0).close();
      auto taken = stream.snapshot(kSnapTimeout);
      ASSERT_TRUE(taken.has_value()) << label;
      snap = std::move(*taken);
      EXPECT_EQ(snap.ports[0].closed, 1) << label;
      EXPECT_EQ(snap.ports[0].next_seq, 25u) << label;
      // Terminal cut: every node drained to EOS, so every cut is final.
      for (const auto& n : snap.nodes) EXPECT_EQ(n.done, 1) << label;
      EXPECT_EQ(snap.taps[0].ended, 1) << label;
      EXPECT_EQ(snap.taps[0].residue.size(), 25u) << label;
      (void)stream.finish();
    }
    Session session(g, workloads::passthrough_kernels(g));
    auto restored = session.restore(ss, snap);
    ASSERT_TRUE(restored.has_value()) << label;
    EXPECT_TRUE(restored->input(0).closed()) << label;
    std::size_t got = 0;
    while (auto item = restored->output(0).poll()) {
      EXPECT_EQ(item->seq, got) << label;
      ++got;
    }
    EXPECT_EQ(got, 25u) << label;
    EXPECT_TRUE(restored->output(0).ended()) << label;
    EXPECT_TRUE(restored->finish().completed) << label;
  }
}

// Back-to-back snapshots serialize: a second begin while one barrier is
// pending is refused; after collection the next barrier runs at the newer
// cut, and each successive snapshot stands alone.
TEST(Ckpt, BackToBackSnapshotsSerialize) {
  const StreamGraph g = workloads::pipeline(3, 4);
  for (const Backend backend : kBackends) {
    const std::string label = to_string(backend);
    Session session(g, workloads::passthrough_kernels(g));
    StreamSpec ss;
    ss.run.backend = backend;
    ss.run.mode = DummyMode::None;
    ss.run.pool_workers = 2;
    Stream stream = session.open(ss);
    for (std::int64_t i = 0; i < 10; ++i)
      ASSERT_TRUE(stream.input(0).push(Value(i)));
    ASSERT_TRUE(stream.snapshot_begin()) << label;
    EXPECT_FALSE(stream.snapshot_begin()) << label;  // one at a time
    auto first = stream.snapshot(kSnapTimeout);  // polls the pending barrier
    ASSERT_TRUE(first.has_value()) << label;
    EXPECT_EQ(first->barrier_seq, 10u) << label;
    for (std::int64_t i = 10; i < 20; ++i)
      ASSERT_TRUE(stream.input(0).push(Value(i)));
    auto second = stream.snapshot(kSnapTimeout);
    ASSERT_TRUE(second.has_value()) << label;
    EXPECT_EQ(second->barrier_seq, 20u) << label;
    stream.input(0).close();
    while (stream.output(0).next().has_value()) {
    }
    EXPECT_TRUE(stream.finish().completed) << label;
  }
}

// A barrier racing a deadlock verdict: on a wedged stream the snapshot can
// never complete (a wedged node consumes no marker), and certification is
// byte-for-byte unaffected by the pending barrier.
TEST(Ckpt, SnapshotRacingDeadlockVerdictStaysPendingAndCertifies) {
  const StreamGraph g = workloads::fig2_triangle(2, 2, 2);
  RunSpec batch_rs;
  batch_rs.mode = DummyMode::None;
  batch_rs.num_inputs = 100;
  batch_rs.backend = Backend::Sim;
  Session batch_session(g, wedge_kernels());
  const RunReport reference = batch_session.run(batch_rs);
  ASSERT_TRUE(reference.deadlocked);
  for (const Backend backend : kBackends) {
    const std::string label = to_string(backend);
    Session session(g, wedge_kernels());
    StreamSpec ss;
    ss.run = batch_rs;
    ss.run.backend = backend;
    ss.run.pool_workers = 2;
    ss.feed_capacity = 128;
    Stream stream = session.open(ss);
    for (int i = 0; i < 100; ++i) ASSERT_TRUE(stream.input(0).push());
    ASSERT_TRUE(stream.snapshot_begin()) << label;
    stream.input(0).close();  // the wedge becomes certifiable
    EXPECT_FALSE(stream.snapshot_poll().has_value()) << label;
    const RunReport report = stream.finish();
    EXPECT_TRUE(report.deadlocked) << label;
    expect_same_report(reference, report, label);
  }
}

// A deadline-bounded snapshot on a wedged stream times out cleanly; the
// barrier stays pending (never falsely completes) and the stream remains
// fully usable afterwards.
TEST(Ckpt, WedgedStreamSnapshotTimesOut) {
  const StreamGraph g = workloads::fig2_triangle(2, 2, 2);
  for (const Backend backend : kBackends) {
    const std::string label = to_string(backend);
    Session session(g, wedge_kernels());
    StreamSpec ss;
    ss.run.backend = backend;
    ss.run.mode = DummyMode::None;
    ss.run.pool_workers = 2;
    ss.feed_capacity = 128;
    Stream stream = session.open(ss);
    for (int i = 0; i < 100; ++i) ASSERT_TRUE(stream.input(0).push());
    EXPECT_FALSE(
        stream.snapshot(std::chrono::milliseconds(100)).has_value())
        << label;
    EXPECT_FALSE(stream.snapshot_begin()) << label;  // still pending
    EXPECT_FALSE(stream.snapshot_poll().has_value()) << label;
    stream.input(0).close();
    EXPECT_TRUE(stream.finish().deadlocked) << label;
  }
}

// A port closed mid-barrier (before reaching S) cuts short: its marker
// precedes its EOS, the cut records its final count, and the barrier still
// completes.
TEST(Ckpt, PortClosedShortOfBarrierCutsAtFinalCount) {
  const StreamGraph g = two_source_join();
  for (const Backend backend : kBackends) {
    const std::string label = to_string(backend);
    Session session(g, workloads::passthrough_kernels(g));
    StreamSpec ss;
    ss.run.backend = backend;
    ss.run.mode = DummyMode::None;
    ss.run.pool_workers = 2;
    Stream stream = session.open(ss);
    for (std::int64_t i = 0; i < 8; ++i)
      ASSERT_TRUE(stream.input(0).push(Value(i)));
    for (std::int64_t i = 0; i < 5; ++i)
      ASSERT_TRUE(stream.input(1).push(Value(i)));
    ASSERT_TRUE(stream.snapshot_begin()) << label;
    stream.input(1).close();  // 3 short of S = 8: marker, then EOS
    std::optional<ckpt::StreamSnapshot> snap;
    const auto deadline = std::chrono::steady_clock::now() + kSnapTimeout;
    while (!snap.has_value()) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline) << label;
      stream.pump();
      while (stream.output(0).poll().has_value()) {
      }
      snap = stream.snapshot_poll();
    }
    EXPECT_EQ(snap->barrier_seq, 8u) << label;
    EXPECT_EQ(snap->ports[0].next_seq, 8u) << label;
    // Closed mid-barrier: cut open (the caller replays the close), at its
    // final accepted count.
    EXPECT_EQ(snap->ports[1].closed, 0) << label;
    EXPECT_EQ(snap->ports[1].next_seq, 5u) << label;
    stream.input(0).close();
    EXPECT_TRUE(stream.finish().completed) << label;
  }
}

// Destroying (finishing) a stream with a barrier pending abandons it
// cleanly -- stale markers drain with the teardown, no assert, exact
// verdict intact.
TEST(Ckpt, FinishWithPendingBarrierAbandonsIt) {
  const StreamGraph g = workloads::pipeline(3, 4);
  for (const Backend backend : kBackends) {
    Session session(g, workloads::passthrough_kernels(g));
    StreamSpec ss;
    ss.run.backend = backend;
    ss.run.mode = DummyMode::None;
    ss.run.pool_workers = 2;
    Stream stream = session.open(ss);
    for (std::int64_t i = 0; i < 30; ++i)
      ASSERT_TRUE(stream.input(0).push(Value(i)));
    ASSERT_TRUE(stream.snapshot_begin()) << to_string(backend);
    const RunReport report = stream.finish();
    EXPECT_TRUE(report.completed) << to_string(backend);
  }
}

// A port-fed source pops its feed a run at a time (up to the quantum), and
// the run stops at the barrier marker -- so at batch 64, with the feed
// holding items on both sides of the barrier when it is taken, the cut is
// still exactly between S-1 and S: the same NodeCuts (source_seq = S,
// fires, kernel state) as at batch 1, and a restore that replays the tail
// ends bit-identical to the batch-1 restore.
TEST(Ckpt, BatchedFeedPopCutsAtTheBarrier) {
  const StreamGraph g = workloads::pipeline(3, 2);
  constexpr std::int64_t kCut = 300;
  constexpr std::int64_t kItems = 400;
  struct Outcome {
    ckpt::StreamSnapshot snap;
    std::vector<OutputPort::Item> got;
    RunReport report;
  };
  const auto run_at = [&](std::uint32_t batch) {
    Outcome out;
    StreamSpec ss;
    ss.run.backend = Backend::Pooled;
    ss.run.mode = DummyMode::None;
    ss.run.pool_workers = 2;
    ss.run.batch = batch;
    // A tiny tap the test leaves unpolled until the barrier is in the
    // feed: the sink parks, the pipeline backs up (each node holds at most
    // one quantum of outputs), and the source stops popping with
    // pre-barrier items still queued.
    ss.egress_capacity = 2;
    ss.feed_capacity = 512;
    {
      Session session(g, cumsum_kernels());
      Stream stream = session.open(ss);
      for (std::int64_t i = 0; i < kCut; ++i)
        EXPECT_TRUE(stream.input(0).push(Value(i * 3)));
      EXPECT_TRUE(stream.snapshot_begin());
      for (std::int64_t i = kCut; i < kCut + 40; ++i)  // behind the marker
        EXPECT_TRUE(stream.input(0).push(Value(i * 3)));
      // The feed holds items on both sides of the barrier.
      EXPECT_LT(stream.metrics().nodes[0].fires,
                static_cast<std::uint64_t>(kCut))
          << "batch " << batch;
      std::optional<ckpt::StreamSnapshot> snap;
      const auto deadline = std::chrono::steady_clock::now() + kSnapTimeout;
      while (!snap.has_value()) {
        if (std::chrono::steady_clock::now() >= deadline) {
          ADD_FAILURE() << "batch " << batch << ": snapshot timed out";
          return out;
        }
        while (stream.output(0).poll().has_value()) {
        }
        snap = stream.snapshot_poll();
      }
      out.snap = std::move(*snap);
      (void)stream.finish();
    }
    Session session(g, cumsum_kernels());
    auto restored = session.restore(ss, out.snap);
    if (!restored.has_value()) {
      ADD_FAILURE() << "batch " << batch << ": restore failed";
      return out;
    }
    for (std::int64_t i = kCut; i < kItems; ++i)
      EXPECT_TRUE(restored->input(0).push(Value(i * 3)));
    restored->input(0).close();
    // Tap residue re-delivered from the cut depends on how far the test's
    // polls got before the marker; the post-cut items do not.
    while (auto item = restored->output(0).next())
      if (item->seq >= static_cast<std::uint64_t>(kCut))
        out.got.push_back(*item);
    out.report = restored->finish();
    return out;
  };
  const Outcome one = run_at(1);
  const Outcome wide = run_at(64);
  ASSERT_FALSE(HasFailure());
  for (const Outcome* o : {&one, &wide}) {
    EXPECT_EQ(o->snap.barrier_seq, static_cast<std::uint64_t>(kCut));
    ASSERT_EQ(o->snap.nodes.size(), g.node_count());
    EXPECT_EQ(o->snap.nodes[0].source_seq, static_cast<std::uint64_t>(kCut));
    for (const ckpt::NodeCut& cut : o->snap.nodes)
      EXPECT_EQ(cut.fires, static_cast<std::uint64_t>(kCut));
    EXPECT_TRUE(o->report.completed);
    EXPECT_EQ(o->got.size(), static_cast<std::size_t>(kItems - kCut));
  }
  for (std::size_t n = 0; n < g.node_count(); ++n) {
    const std::string label = "node " + std::to_string(n);
    EXPECT_EQ(one.snap.nodes[n].source_seq, wide.snap.nodes[n].source_seq)
        << label;
    EXPECT_EQ(one.snap.nodes[n].fires, wide.snap.nodes[n].fires) << label;
    EXPECT_EQ(one.snap.nodes[n].sink_data, wide.snap.nodes[n].sink_data)
        << label;
    EXPECT_EQ(one.snap.nodes[n].last_sent, wide.snap.nodes[n].last_sent)
        << label;
    EXPECT_EQ(one.snap.nodes[n].kernel_state, wide.snap.nodes[n].kernel_state)
        << label;
  }
  ASSERT_EQ(one.got.size(), wide.got.size());
  for (std::size_t k = 0; k < one.got.size(); ++k) {
    EXPECT_EQ(one.got[k].seq, wide.got[k].seq) << "item " << k;
    EXPECT_EQ(one.got[k].value.as<std::int64_t>(),
              wide.got[k].value.as<std::int64_t>())
        << "item " << k;
  }
  expect_same_report(one.report, wide.report, "batch 1 vs 64 restore");
}

// A tap has one reader, shared by the caller's polls and the snapshot
// reaper. On a Propagation-mode split/join the sink forwards dummy runs
// onto its tap. The caller polls a few items, a barrier begins, the reaper
// alone reads the tap up to the marker (dropping dummies, parking data),
// and then the caller polls to EOS. Every output arrives exactly once and
// in order; the cut's residue is exactly what the reaper parked (the items
// between the caller's last poll and the marker); and a restore from the
// cut re-delivers that residue first.
TEST(Ckpt, PollAndReaperShareTheTapReader) {
  const StreamGraph g = workloads::splitjoin(3, 2, 3);
  const auto compiled = core::compile(g);
  ASSERT_TRUE(compiled.ok);
  constexpr std::int64_t kItems = 200;
  constexpr std::int64_t kCut = 120;
  constexpr std::size_t kPrePolled = 5;
  const auto kernels = [&] { return workloads::relay_kernels(g, 0.55, 0xAB); };
  StreamSpec ss;
  ss.run.mode = DummyMode::Propagation;
  ss.run.apply(compiled);
  ss.run.pool_workers = 2;
  const auto push_range = [](Stream& stream, std::int64_t from,
                             std::int64_t to) {
    for (std::int64_t i = from; i < to; ++i)
      if (!stream.input(0).push(Value(i * 7))) return false;
    return true;
  };
  // Reference: uninterrupted Sim run.
  std::vector<OutputPort::Item> want;
  RunReport want_report;
  {
    Session session(g, kernels());
    ss.run.backend = Backend::Sim;
    Stream stream = session.open(ss);
    ASSERT_TRUE(push_range(stream, 0, kItems));
    stream.input(0).close();
    while (auto item = stream.output(0).next()) want.push_back(*item);
    want_report = stream.finish();
    ASSERT_TRUE(want_report.completed);
  }
  // Dummies reach the sink, so its tap carries the runs it forwards.
  std::uint64_t sink_dummies = 0;
  for (EdgeId e = 0; e < static_cast<EdgeId>(g.edge_count()); ++e)
    if (g.edge(e).to == g.sinks()[0])
      sink_dummies += want_report.edges[e].dummies;
  ASSERT_GT(sink_dummies, 0u);
  const auto expect_items = [&](const std::vector<OutputPort::Item>& got,
                                std::size_t from, const std::string& label) {
    ASSERT_EQ(got.size(), want.size() - from) << label;
    for (std::size_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(got[k].seq, want[from + k].seq) << label << " item " << k;
      EXPECT_EQ(got[k].value.as<std::int64_t>(),
                want[from + k].value.as<std::int64_t>())
          << label << " item " << k;
    }
  };
  for (const Backend backend : kBackends) {
    const std::string label = to_string(backend);
    ss.run.backend = backend;
    ckpt::StreamSnapshot snap;
    {
      Session session(g, kernels());
      Stream stream = session.open(ss);
      ASSERT_TRUE(push_range(stream, 0, kCut)) << label;
      const auto deadline = std::chrono::steady_clock::now() + kSnapTimeout;
      std::vector<OutputPort::Item> got;
      while (got.size() < kPrePolled) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline) << label;
        if (auto item = stream.output(0).poll()) got.push_back(*item);
      }
      ASSERT_TRUE(stream.snapshot_begin()) << label;
      std::optional<ckpt::StreamSnapshot> taken;
      while (!taken.has_value()) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline) << label;
        taken = stream.snapshot_poll();
      }
      snap = std::move(*taken);
      ASSERT_EQ(snap.barrier_seq, static_cast<std::uint64_t>(kCut)) << label;
      ASSERT_EQ(snap.taps.size(), 1u) << label;
      ASSERT_FALSE(snap.taps[0].residue.empty()) << label;
      ASSERT_TRUE(push_range(stream, kCut, kItems)) << label;
      stream.input(0).close();
      while (!stream.output(0).ended()) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline) << label;
        if (auto item = stream.output(0).poll()) got.push_back(*item);
      }
      EXPECT_TRUE(stream.finish().completed) << label;
      expect_items(got, 0, label);
      // The caller's first polls after the cut return the residue, and the
      // residue runs up to the marker: below S, then the ring resumes at or
      // above S.
      const std::vector<ckpt::TapItem>& residue = snap.taps[0].residue;
      ASSERT_LE(kPrePolled + residue.size(), got.size()) << label;
      for (std::size_t k = 0; k < residue.size(); ++k) {
        EXPECT_EQ(residue[k].seq, got[kPrePolled + k].seq) << label;
        EXPECT_EQ(residue[k].value.as<std::int64_t>(),
                  got[kPrePolled + k].value.as<std::int64_t>())
            << label;
      }
      EXPECT_LT(residue.back().seq, static_cast<std::uint64_t>(kCut)) << label;
      if (kPrePolled + residue.size() < got.size()) {
        EXPECT_GE(got[kPrePolled + residue.size()].seq,
                  static_cast<std::uint64_t>(kCut))
            << label;
      }
    }
    // A restore delivers the residue first, then the replayed tail: every
    // output the caller had not polled before the cut.
    Session session(g, kernels());
    auto restored = session.restore(ss, snap);
    ASSERT_TRUE(restored.has_value()) << label;
    ASSERT_TRUE(push_range(*restored, kCut, kItems)) << label;
    restored->input(0).close();
    std::vector<OutputPort::Item> again;
    while (auto item = restored->output(0).next()) again.push_back(*item);
    expect_items(again, kPrePolled, label + " restore");
    expect_same_report(want_report, restored->finish(), label + " restore");
  }
}

}  // namespace
}  // namespace sdaf::exec
