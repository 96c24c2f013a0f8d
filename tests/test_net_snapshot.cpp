// Checkpoint/restore over the wire: the Snapshot/Restore frame pair against
// a live daemon. The load-bearing claims: (1) a stream snapshotted over the
// wire, killed by dropping its connection, and restored -- on the same
// daemon or a freshly restarted one -- delivers the exact item set and
// verdict of an uninterrupted run (replay from the cut + dedup by seq =
// exactly-once); (2) a client that vanishes mid-stream cannot leak its
// stream: the server aborts the ports, reaps the session, and counts it;
// (3) connect() rides out a restarting daemon via bounded jittered retry.
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/ckpt/snapshot.h"
#include "src/core/compile.h"
#include "src/exec/session.h"
#include "src/exec/stream.h"
#include "src/graph/io.h"
#include "src/net/client.h"
#include "src/net/frame.h"
#include "src/net/server.h"
#include "src/net/socket.h"
#include "src/net/workload.h"
#include "src/workloads/topologies.h"

namespace sdaf::net {
namespace {

using runtime::DummyMode;
using runtime::Value;

constexpr std::chrono::milliseconds kSnapTimeout{5000};

class NetSnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override { start_server(); }

  void TearDown() override { stop_server(); }

  void start_server() {
    ServerOptions opt;
    opt.unix_path = "/tmp/sdaf_snap_" + std::to_string(::getpid()) + "_" +
                    ::testing::UnitTest::GetInstance()
                        ->current_test_info()
                        ->name();
    opt.push_wait = std::chrono::milliseconds(100);
    server_ = std::make_unique<Server>(std::move(opt));
    ASSERT_TRUE(server_->start());
    thread_ = std::thread([this] { server_->run(); });
  }

  void stop_server() {
    if (!server_) return;
    server_->request_stop();
    thread_.join();
  }

  [[nodiscard]] Client connect() {
    auto c = Client::connect_unix(server_->unix_path());
    EXPECT_TRUE(c.has_value());
    return std::move(*c);
  }

  // Spins until the server has reaped every stream (teardown of a dropped
  // connection is asynchronous).
  void wait_streams_reaped() {
    for (int i = 0; i < 500; ++i) {
      if (server_->stats().streams_open == 0) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    FAIL() << "server never reaped its streams";
  }

  std::unique_ptr<Server> server_;
  std::thread thread_;
};

// Delivered items keyed by seq: re-delivery after a restore must carry the
// identical payload, and the union must be the uninterrupted set.
struct Delivered {
  std::map<std::uint64_t, std::int64_t> items;
  void add(const DeliverFrame& d) {
    for (const auto& item : d.items) {
      const std::int64_t v = item.value.as<std::int64_t>();
      const auto [it, inserted] = items.emplace(item.seq, v);
      if (!inserted) {
        EXPECT_EQ(it->second, v) << "seq " << item.seq;
      }
    }
  }
};

// Uninterrupted in-process reference through the server's own construction
// (net::make_kernels + the same StreamSpec mapping), Sim backend.
std::pair<std::map<std::uint64_t, std::int64_t>, exec::RunReport>
run_reference(const StreamGraph& g, const OpenFrame& spec,
              const std::vector<std::int64_t>& inputs) {
  exec::Session session(g, make_kernels(g, spec));
  exec::StreamSpec ss;
  ss.run.backend = static_cast<exec::Backend>(spec.backend);
  ss.run.mode = static_cast<DummyMode>(spec.mode);
  ss.run.batch = spec.batch;
  ss.run.pool_workers = 2;
  ss.feed_capacity = spec.feed_capacity;
  ss.egress_capacity = spec.egress_capacity;
  if (ss.run.mode != DummyMode::None) {
    core::CompileOptions copts;
    copts.algorithm = ss.run.mode == DummyMode::NonPropagation
                          ? core::Algorithm::NonPropagation
                          : core::Algorithm::Propagation;
    const auto compiled = core::compile(g, copts);
    EXPECT_TRUE(compiled.ok);
    ss.run.apply(compiled);
  }
  exec::Stream stream = session.open(ss);
  std::map<std::uint64_t, std::int64_t> out;
  for (const std::int64_t v : inputs) {
    EXPECT_TRUE(stream.input(0).push(Value(v)));
    while (auto item = stream.output(0).poll())
      out.emplace(item->seq, item->value.as<std::int64_t>());
  }
  stream.input(0).close();
  while (auto item = stream.output(0).next())
    out.emplace(item->seq, item->value.as<std::int64_t>());
  return {std::move(out), stream.finish()};
}

void expect_same_report(const exec::RunReport& expected,
                        const exec::RunReport& actual) {
  ASSERT_EQ(expected.deadlocked, actual.deadlocked);
  ASSERT_EQ(expected.completed, actual.completed);
  ASSERT_EQ(expected.sink_data, actual.sink_data);
  ASSERT_EQ(expected.fires, actual.fires);
  ASSERT_EQ(expected.edges.size(), actual.edges.size());
  for (std::size_t e = 0; e < expected.edges.size(); ++e) {
    EXPECT_EQ(expected.edges[e].data, actual.edges[e].data) << "edge " << e;
    EXPECT_EQ(expected.edges[e].dummies, actual.edges[e].dummies)
        << "edge " << e;
  }
}

OpenFrame relay_spec(const StreamGraph& g) {
  OpenFrame spec;
  spec.backend = 0;  // Sim: deterministic wire/reference differential
  spec.mode = 1;     // Propagation
  spec.kernel = KernelKind::Relay;
  spec.pass_rate = 0.55;
  spec.seed = 0xAB;
  spec.topology = to_text(g);
  return spec;
}

// The wire crash differential: push half, snapshot, kill the connection
// (the daemon aborts the orphaned stream), restore into a new stream on a
// fresh connection, replay from the cut -- outputs and verdict must match
// the uninterrupted run exactly.
TEST_F(NetSnapshotTest, SnapshotKillRestoreMatchesUninterruptedRun) {
  const StreamGraph g = workloads::splitjoin(3, 2, 3);
  std::vector<std::int64_t> inputs;
  for (std::int64_t i = 0; i < 100; ++i) inputs.push_back(i * 7);
  const auto [want, want_report] = run_reference(g, relay_spec(g), inputs);

  Delivered delivered;
  std::vector<std::uint8_t> bytes;
  {
    auto c1 = Client::connect_unix(server_->unix_path());
    ASSERT_TRUE(c1.has_value());
    ClientStream s1 = c1->open(1, relay_spec(g));
    EXPECT_EQ(s1.epoch(), 0u);
    for (std::size_t i = 0; i < 60; ++i) {
      EXPECT_EQ(s1.push(0, {Value(inputs[i])}), 1u);
      delivered.add(s1.poll(0, 128));
    }
    auto snap = s1.snapshot(kSnapTimeout);
    ASSERT_TRUE(snap.has_value());
    bytes = std::move(*snap);
    EXPECT_GE(server_->stats().snapshots_total, 1u);
    // Crash: the connection dies with the stream mid-flight. No close, no
    // finish -- the daemon must clean up on its own.
  }
  wait_streams_reaped();
  EXPECT_GE(server_->stats().sessions_aborted_total, 1u);

  // The snapshot is self-describing; the replay point is the port cut.
  const auto snap = ckpt::deserialize(bytes);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->epoch, 0u);
  ASSERT_EQ(snap->ports.size(), 1u);
  const std::uint64_t replay_from = snap->ports[0].next_seq;
  EXPECT_EQ(replay_from, 60u);

  Client c2 = connect();
  ClientStream s2 = c2.restore(2, relay_spec(g), bytes);
  EXPECT_EQ(s2.epoch(), 1u);
  EXPECT_GE(server_->stats().restores_total, 1u);
  for (std::size_t i = replay_from; i < inputs.size(); ++i) {
    EXPECT_EQ(s2.push(0, {Value(inputs[i])}), 1u);
    delivered.add(s2.poll(0, 128));
  }
  s2.close(0);
  for (;;) {
    const DeliverFrame d = s2.poll(0, 128);
    delivered.add(d);
    if (d.ended != 0) break;
  }
  const exec::RunReport report = s2.finish();

  expect_same_report(want_report, report);
  ASSERT_EQ(delivered.items.size(), want.size());
  for (const auto& [seq, value] : want) {
    const auto it = delivered.items.find(seq);
    ASSERT_NE(it, delivered.items.end()) << "missing seq " << seq;
    EXPECT_EQ(it->second, value) << "seq " << seq;
  }

  // Both the abort and the snapshot/restore surfaced on the stats page.
  const std::string page = c2.stats();
  EXPECT_NE(page.find("sdafd_snapshots_total"), std::string::npos);
  EXPECT_NE(page.find("sdafd_restores_total"), std::string::npos);
  EXPECT_NE(page.find("sdafd_sessions_aborted_total"), std::string::npos);
}

// Snapshots survive the daemon itself: cut on one daemon, kill it, boot a
// fresh one on the same socket, and restore there. The connect rides the
// restart window via the bounded retry (ENOENT / ECONNREFUSED while the
// new daemon is not yet bound).
TEST_F(NetSnapshotTest, SnapshotRestoresOnAFreshlyRestartedDaemon) {
  const StreamGraph g = workloads::pipeline(4, 3);
  std::vector<std::int64_t> inputs;
  for (std::int64_t i = 0; i < 80; ++i) inputs.push_back(i + 1);
  const auto [want, want_report] = run_reference(g, relay_spec(g), inputs);

  const std::string path = server_->unix_path();
  Delivered delivered;
  std::vector<std::uint8_t> bytes;
  {
    Client c1 = connect();
    ClientStream s1 = c1.open(1, relay_spec(g));
    for (std::size_t i = 0; i < 33; ++i) {
      EXPECT_EQ(s1.push(0, {Value(inputs[i])}), 1u);
      delivered.add(s1.poll(0, 128));
    }
    auto snap = s1.snapshot(kSnapTimeout);
    ASSERT_TRUE(snap.has_value());
    bytes = std::move(*snap);
  }

  // Daemon crash + restart: the old process is gone (compile cache and
  // all), a new one comes up on the same socket after a beat.
  stop_server();
  std::thread reboot([this] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    start_server();
  });
  ConnectOptions retry;
  retry.attempts = 50;
  retry.backoff = std::chrono::milliseconds(10);
  auto c2 = Client::connect_unix(path, retry);
  reboot.join();
  ASSERT_TRUE(c2.has_value());  // only reachable through the retry loop

  const auto snap = ckpt::deserialize(bytes);
  ASSERT_TRUE(snap.has_value());
  const std::uint64_t replay_from = snap->ports[0].next_seq;
  ClientStream s2 = c2->restore(1, relay_spec(g), bytes);
  EXPECT_EQ(s2.epoch(), 1u);
  for (std::size_t i = replay_from; i < inputs.size(); ++i) {
    EXPECT_EQ(s2.push(0, {Value(inputs[i])}), 1u);
    delivered.add(s2.poll(0, 128));
  }
  s2.close(0);
  for (;;) {
    const DeliverFrame d = s2.poll(0, 128);
    delivered.add(d);
    if (d.ended != 0) break;
  }
  expect_same_report(want_report, s2.finish());
  ASSERT_EQ(delivered.items.size(), want.size());
  for (const auto& [seq, value] : want)
    EXPECT_EQ(delivered.items.at(seq), value) << "seq " << seq;
}

// Satellite: a client that dies mid-push cannot wedge or leak the stream.
// The daemon closes the orphaned input ports (dynamic EOS), the stream
// completes or certifies, the session is reaped, and the abort is counted
// -- all while other connections keep flowing.
TEST_F(NetSnapshotTest, ClientKilledMidPushIsReapedAndCounted) {
  OpenFrame spec;
  spec.topology = "node a\nnode b\nedge a b 8\n";
  {
    auto doomed = Client::connect_unix(server_->unix_path());
    ASSERT_TRUE(doomed.has_value());
    ClientStream s = doomed->open(1, spec);
    for (std::int64_t i = 0; i < 20; ++i)
      EXPECT_EQ(s.push(0, {Value(i)}), 1u);
    // Connection dropped here: no close, no finish, undelivered output
    // still parked on the egress tap.
  }
  wait_streams_reaped();
  const ServiceStats stats = server_->stats();
  EXPECT_EQ(stats.streams_open, 0u);
  EXPECT_GE(stats.sessions_aborted_total, 1u);

  // The daemon is unharmed: a fresh stream runs end to end.
  Client client = connect();
  ClientStream s = client.open(1, spec);
  EXPECT_EQ(s.push(0, {Value(std::int64_t{42})}), 1u);
  s.close(0);
  EXPECT_TRUE(s.finish().completed);
  EXPECT_NE(client.stats().find("sdafd_sessions_aborted_total 1"),
            std::string::npos);
}

// Restore polices its spec: a snapshot cut under one mode cannot rehydrate
// a stream compiled under another (BadState over the wire), and malformed
// snapshot bytes are rejected outright (BadFrame). Every error except
// Draining is connection-fatal in this protocol, so each rejected attempt
// burns its own connection -- and the daemon shrugs it off.
TEST_F(NetSnapshotTest, RestoreRejectsMismatchAndGarbage) {
  const StreamGraph g = workloads::pipeline(3, 2);
  std::optional<std::vector<std::uint8_t>> bytes;
  {
    Client client = connect();
    ClientStream s1 = client.open(1, relay_spec(g));
    for (std::int64_t i = 0; i < 10; ++i)
      EXPECT_EQ(s1.push(0, {Value(i)}), 1u);
    bytes = s1.snapshot(kSnapTimeout);
    ASSERT_TRUE(bytes.has_value());
    s1.close(0);
    for (;;) {
      if (s1.poll(0, 128).ended != 0) break;
    }
    (void)s1.finish();
  }

  {
    Client client = connect();
    OpenFrame wrong_mode = relay_spec(g);
    wrong_mode.mode = 2;  // NonPropagation: different signature
    try {
      (void)client.restore(2, wrong_mode, *bytes);
      FAIL() << "mismatched restore was accepted";
    } catch (const ProtocolError& e) {
      EXPECT_EQ(e.code(), ErrorCode::BadState);
    }
  }
  {
    Client client = connect();
    std::vector<std::uint8_t> garbage = *bytes;
    garbage[0] ^= 0xFF;  // version byte
    EXPECT_THROW((void)client.restore(3, relay_spec(g), garbage),
                 ProtocolError);
  }

  // The good snapshot still restores after the failed attempts.
  Client client = connect();
  ClientStream s2 = client.restore(4, relay_spec(g), *bytes);
  EXPECT_EQ(s2.epoch(), 1u);
  s2.close(0);
  for (;;) {
    if (s2.poll(0, 128).ended != 0) break;
  }
  (void)s2.finish();
}

// A wedged stream never completes its barrier -- SnapshotOk keeps coming
// back pending instead of stalling the event loop -- and the stream still
// certifies its deadlock afterwards.
TEST_F(NetSnapshotTest, WedgedStreamSnapshotStaysPendingOverWire) {
  OpenFrame spec;
  spec.backend = 2;  // Pooled: exact quiescence-based detection
  spec.mode = 0;     // avoidance off; the wedge is free to bite
  spec.kernel = KernelKind::Wedge;
  spec.wedge_prefix = 1000;
  spec.feed_capacity = 4;
  spec.topology = to_text(workloads::fig2_triangle());

  Client client = connect();
  ClientStream s = client.open(1, spec);
  for (int i = 0; i < 40; ++i) {
    const PushAckFrame ack = s.push_some(0, {Value()});
    if (ack.accepted == 0 || ack.ended != 0) break;
  }
  // Each poll is one cheap round trip; the daemon answers pending every
  // time and keeps serving (the timeout here bounds the test, the barrier
  // simply stays pending server-side).
  EXPECT_FALSE(s.snapshot(std::chrono::milliseconds(300)).has_value());
  EXPECT_FALSE(s.snapshot_poll().has_value());

  s.close(0);
  const exec::RunReport report = s.finish();
  EXPECT_TRUE(report.deadlocked);
  EXPECT_FALSE(report.state_dump.empty());
}

}  // namespace
}  // namespace sdaf::net
