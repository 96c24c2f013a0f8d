// End-to-end loopback: a real net::Server on a Unix socket (own thread)
// driven by net::Client over the real wire. The core claim is the
// differential one -- payloads and verdicts over the wire are bit-identical
// to the same OpenFrame executed in-process -- plus the service-hardening
// claims: adversarial bytes error the connection without crashing or
// leaking streams, a wedged stream cannot stall the daemon past its push
// deadline, one connection multiplexes streams, and reopening a topology
// hits the compile cache.
#include <dirent.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/resource.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

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

// One live daemon per fixture: bound to an abstract-enough path under
// /tmp, served from a background thread, stopped in the destructor.
class LoopbackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServerOptions opt;
    opt.unix_path = "/tmp/sdaf_loopback_" +
                    std::to_string(::getpid()) + "_" +
                    ::testing::UnitTest::GetInstance()
                        ->current_test_info()
                        ->name();
    opt.push_wait = std::chrono::milliseconds(100);
    configure(opt);
    server_ = std::make_unique<Server>(std::move(opt));
    ASSERT_TRUE(server_->start());
    thread_ = std::thread([this] { server_->run(); });
  }

  void TearDown() override {
    server_->request_stop();
    thread_.join();
  }

  // Subclass hook: adjust the daemon's options before it boots.
  virtual void configure(ServerOptions& opt) { (void)opt; }

  [[nodiscard]] Client connect() {
    auto c = Client::connect_unix(server_->unix_path());
    EXPECT_TRUE(c.has_value());
    return std::move(*c);
  }

  std::unique_ptr<Server> server_;
  std::thread thread_;
};

struct Delivered {
  std::vector<std::uint64_t> seqs;
  std::vector<std::int64_t> values;
};

// Runs `spec` in-process through the exact construction the server uses
// (net::make_kernels + the same StreamSpec mapping), pushing `inputs` and
// draining the single output; returns outputs + the final report.
std::pair<Delivered, exec::RunReport> run_in_process(
    const StreamGraph& g, const OpenFrame& spec,
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
  Delivered out;
  for (const std::int64_t v : inputs) {
    EXPECT_TRUE(stream.input(0).push(Value(v)));
    while (auto item = stream.output(0).poll()) {
      out.seqs.push_back(item->seq);
      out.values.push_back(item->value.as<std::int64_t>());
    }
  }
  stream.input(0).close();
  while (auto item = stream.output(0).next()) {
    out.seqs.push_back(item->seq);
    out.values.push_back(item->value.as<std::int64_t>());
  }
  return {std::move(out), stream.finish()};
}

// Same workload, but over the wire against the fixture's daemon.
std::pair<Delivered, exec::RunReport> run_over_wire(
    Client& client, std::uint16_t stream_id, const OpenFrame& spec,
    const std::vector<std::int64_t>& inputs) {
  ClientStream s = client.open(stream_id, spec);
  EXPECT_EQ(s.input_count(), 1u);
  EXPECT_EQ(s.output_count(), 1u);
  Delivered out;
  const auto drain = [&](bool until_ended) {
    for (;;) {
      const DeliverFrame d = s.poll(0, 128);
      for (const auto& item : d.items) {
        out.seqs.push_back(item.seq);
        out.values.push_back(item.value.as<std::int64_t>());
      }
      if (d.ended != 0) return true;
      if (d.items.empty() && !until_ended) return false;
      if (d.items.empty()) std::this_thread::yield();
    }
  };
  std::vector<Value> batch;
  for (const std::int64_t v : inputs) {
    batch.clear();
    batch.emplace_back(v);
    EXPECT_EQ(s.push(0, batch), 1u);
    drain(false);
  }
  s.close(0);
  drain(true);
  return {std::move(out), s.finish()};
}

void expect_same_report(const exec::RunReport& expected,
                        const exec::RunReport& actual,
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

// The tentpole differential: every backend, both avoidance modes, a
// filtering relay workload -- the wire run must reproduce the in-process
// run bit for bit, payloads and verdict alike.
TEST_F(LoopbackTest, WireRunBitIdenticalToInProcess) {
  const StreamGraph g = workloads::splitjoin(3, 2, 3);
  std::vector<std::int64_t> inputs;
  for (std::int64_t i = 0; i < 120; ++i) inputs.push_back(i * 3);

  Client client = connect();
  std::uint16_t next_id = 1;
  for (const std::uint8_t backend : {0, 2}) {
    for (const std::uint8_t mode : {1, 2}) {
      OpenFrame spec;
      spec.backend = backend;
      spec.mode = mode;
      spec.kernel = KernelKind::Relay;
      spec.pass_rate = 0.55;
      spec.seed = 0xAB;
      spec.topology = to_text(g);
      const std::string label = "backend=" + std::to_string(backend) +
                                " mode=" + std::to_string(mode);

      auto [ref_out, ref_report] = run_in_process(g, spec, inputs);
      auto [wire_out, wire_report] =
          run_over_wire(client, next_id++, spec, inputs);

      expect_same_report(ref_report, wire_report, label);
      ASSERT_EQ(ref_out.seqs, wire_out.seqs) << label;
      ASSERT_EQ(ref_out.values, wire_out.values) << label;
    }
  }
}

// Exact deadlock certification crosses the wire intact: the Fig. 2 wedge
// with avoidance off deadlocks identically in-process and remotely, state
// dump included.
TEST_F(LoopbackTest, DeadlockVerdictCertifiedOverWire) {
  const StreamGraph g = workloads::fig2_triangle();
  OpenFrame spec;
  spec.backend = 2;  // Pooled: exact quiescence-based detection
  spec.mode = 0;     // avoidance off; the wedge is free to bite
  spec.kernel = KernelKind::Wedge;
  spec.wedge_prefix = 100;
  spec.topology = to_text(g);

  // In-process reference: push until backpressure wedges, then close.
  exec::Session session(g, make_kernels(g, spec));
  exec::StreamSpec ss;
  ss.run.backend = exec::Backend::Pooled;
  ss.run.mode = DummyMode::None;
  ss.run.pool_workers = 2;
  exec::Stream ref_stream = session.open(ss);
  for (int i = 0; i < 64; ++i) {
    if (ref_stream.input(0).try_push_for(Value(), std::chrono::milliseconds(
                                                      200)) !=
        exec::PortPushOutcome::Ok)
      break;
  }
  ref_stream.input(0).close();
  const exec::RunReport ref = ref_stream.finish();
  ASSERT_TRUE(ref.deadlocked);
  ASSERT_FALSE(ref.state_dump.empty());

  // Wire run: same pushes (the server's bounded push acks short once the
  // stream wedges), then Finish must certify the same deadlock.
  Client client = connect();
  ClientStream s = client.open(1, spec);
  std::size_t pushed = 0;
  while (pushed < 64) {
    const PushAckFrame ack = s.push_some(0, {Value()});
    pushed += ack.accepted;
    if (ack.accepted == 0 || ack.ended != 0) break;
  }
  s.close(0);
  const exec::RunReport wire = s.finish();
  EXPECT_TRUE(wire.deadlocked);
  EXPECT_FALSE(wire.completed);
  EXPECT_FALSE(wire.state_dump.empty());
}

// Adversarial bytes: a garbage frame earns an Error and a closed
// connection -- and the stream that connection had open is torn down, not
// leaked (streams_open returns to zero, the daemon keeps serving).
TEST_F(LoopbackTest, GarbageFrameErrorsConnectionWithoutLeakingStreams) {
  Client client = connect();
  OpenFrame spec;
  spec.topology = "node a\nnode b\nedge a b 4\n";
  ClientStream s = client.open(1, spec);
  EXPECT_EQ(s.push(0, {Value(std::int64_t{1})}), 1u);

  // Bypass the Client and write raw garbage on a second connection, after
  // opening a stream on it too.
  {
    Fd raw = net::connect_unix(server_->unix_path());
    ASSERT_TRUE(raw.valid());
    // A valid Hello first, so the garbage lands mid-protocol.
    Writer hw;
    encode(HelloFrame{}, hw);
    const auto hello = make_frame(FrameType::Hello, 0, std::move(hw));
    ASSERT_TRUE(send_all(raw, hello.data(), hello.size()));
    std::uint8_t reply[kHeaderSize];
    ASSERT_TRUE(recv_exact(raw, reply, kHeaderSize));  // HelloOk header
    const auto h = decode_header(reply);
    ASSERT_TRUE(h.has_value());
    std::vector<std::uint8_t> payload(h->length);
    ASSERT_TRUE(recv_exact(raw, payload.data(), payload.size()));

    const std::uint8_t garbage[] = {0xFF, 0xFF, 0xFF, 0xFF,
                                    0xFF, 0xFF, 0xFF, 0xFF};
    ASSERT_TRUE(send_all(raw, garbage, sizeof(garbage)));
    // The server answers Error (or just closes); either way the socket
    // reaches EOF rather than hanging.
    std::uint8_t drainbuf[256];
    while (recv_exact(raw, drainbuf, 1)) {
    }
  }

  // The daemon is still alive and still serving the first connection.
  EXPECT_EQ(s.push(0, {Value(std::int64_t{2})}), 1u);
  s.close(0);
  const exec::RunReport report = s.finish();
  EXPECT_TRUE(report.completed);

  // Both the garbage connection's stream (it never opened one) and the
  // finished stream are gone; errors were counted.
  for (int i = 0; i < 100; ++i) {  // the teardown is asynchronous
    if (server_->stats().streams_open == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const ServiceStats stats = server_->stats();
  EXPECT_EQ(stats.streams_open, 0u);
  EXPECT_GE(stats.errors_total, 1u);
}

// Same but nastier: random bytes straight onto the socket, no Hello. The
// server must error/close every time and keep serving.
TEST_F(LoopbackTest, RandomBytesNeverKillTheDaemon) {
  std::uint64_t state = 0x12345678;
  const auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::uint8_t>(state >> 33);
  };
  for (int trial = 0; trial < 20; ++trial) {
    Fd raw = net::connect_unix(server_->unix_path());
    ASSERT_TRUE(raw.valid());
    std::vector<std::uint8_t> junk(1 + trial * 13);
    for (auto& b : junk) b = next();
    (void)send_all(raw, junk.data(), junk.size());
    // Drop the connection without waiting: junk that happens to decode as
    // a valid header makes the server (correctly) wait for the payload, so
    // reading until EOF here would deadlock the test, not the daemon. The
    // liveness check below is the actual assertion.
  }
  // Still serving.
  Client client = connect();
  OpenFrame spec;
  spec.topology = "node a\nnode b\nedge a b 4\n";
  ClientStream s = client.open(1, spec);
  EXPECT_EQ(s.push(0, {Value(std::int64_t{7})}), 1u);
  s.close(0);
  EXPECT_TRUE(s.finish().completed);
}

// A raw connection past the Hello handshake, for tests that need byte-level
// control of what the client pipelines.
class RawClient {
 public:
  explicit RawClient(const std::string& path) : fd_(connect_unix(path)) {
    Writer w;
    encode(HelloFrame{}, w);
    const auto hello = make_frame(FrameType::Hello, 0, std::move(w));
    FrameType type{};
    ok_ = fd_.valid() && send_all(fd_, hello.data(), hello.size()) &&
          read_frame(&type) && type == FrameType::HelloOk;
  }

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] const Fd& fd() const { return fd_; }

  // Reads one whole frame (blocking), keeping only its type.
  bool read_frame(FrameType* type) {
    std::uint8_t header[kHeaderSize];
    if (!recv_exact(fd_, header, kHeaderSize)) return false;
    const auto h = decode_header(header);
    if (!h.has_value()) return false;
    std::vector<std::uint8_t> payload(h->length);
    if (!recv_exact(fd_, payload.data(), payload.size())) return false;
    *type = h->type;
    return true;
  }

 private:
  Fd fd_;
  bool ok_ = false;
};

// A client that pipelines requests without reading the replies is
// backpressured: the daemon stops taking its frames once a bounded write
// backlog is queued, so the client's send stalls after a bounded number of
// bytes; once it drains, every request is answered in order. Stats is the
// request: 8 bytes in, a metrics page of a few KiB out. Without the bound
// the daemon would keep reading and buffer every page; the send budget
// keeps that near 110 MiB (about 2.8 KiB per 8-byte request). With it the
// send stalls after about 20 KiB.
TEST_F(LoopbackTest, PipeliningClientIsBackpressuredNotBuffered) {
  constexpr std::size_t kChunkFrames = 512;
  constexpr std::size_t kSendBudget = 320u << 10;
  RawClient raw(server_->unix_path());
  ASSERT_TRUE(raw.ok());
  const int sndbuf = 4096;  // keep the kernel's share of the stall small
  ASSERT_EQ(::setsockopt(raw.fd().get(), SOL_SOCKET, SO_SNDBUF, &sndbuf,
                         sizeof(sndbuf)),
            0);

  std::vector<std::uint8_t> chunk;
  for (std::size_t i = 0; i < kChunkFrames; ++i) {
    const auto f = make_frame(FrameType::Stats, 0, Writer{});
    chunk.insert(chunk.end(), f.begin(), f.end());
  }
  const std::size_t frame_size = chunk.size() / kChunkFrames;
  ASSERT_TRUE(set_nonblocking(raw.fd(), true));
  std::size_t sent = 0;
  bool stalled = false;
  while (sent < kSendBudget) {
    const std::size_t off = sent % chunk.size();
    const ssize_t rc = ::send(raw.fd().get(), chunk.data() + off,
                              chunk.size() - off, MSG_NOSIGNAL);
    if (rc > 0) {
      sent += static_cast<std::size_t>(rc);
      continue;
    }
    ASSERT_TRUE(rc < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
        << std::strerror(errno);
    // A busy daemon frees socket space in bursts; a backpressured one
    // never does while nobody reads.
    pollfd p{raw.fd().get(), POLLOUT, 0};
    if (::poll(&p, 1, 1000) == 0) {
      stalled = true;
      break;
    }
  }
  ASSERT_TRUE(stalled) << "sent " << sent << " bytes without a stall";

  // Finish the partly sent frame, then read every answer.
  ASSERT_TRUE(set_nonblocking(raw.fd(), false));
  const std::size_t tail = (frame_size - sent % frame_size) % frame_size;
  const std::size_t off = sent % chunk.size();
  ASSERT_TRUE(send_all(raw.fd(), chunk.data() + off, tail));
  sent += tail;
  const std::size_t requests = sent / frame_size;
  FrameType type{};
  for (std::size_t i = 0; i < requests; ++i) {
    ASSERT_TRUE(raw.read_frame(&type)) << "reply " << i << " of " << requests;
    ASSERT_EQ(type, FrameType::StatsOk) << "reply " << i;
  }
  // Nothing extra: the connection is idle and still serves.
  ASSERT_TRUE(send_all(raw.fd(), chunk.data(), frame_size));
  ASSERT_TRUE(raw.read_frame(&type));
  EXPECT_EQ(type, FrameType::StatsOk);
}

// A frame of exactly kMaxPayload bytes pipelined with the next request is
// legal: both are answered, no "read buffer overflow".
TEST_F(LoopbackTest, MaximalFramePipelinedWithAnotherIsServed) {
  RawClient raw(server_->unix_path());
  ASSERT_TRUE(raw.ok());
  OpenFrame spec;
  spec.topology = "node a\nnode b\nedge a b 4\n";
  Writer ow;
  encode(spec, ow);
  const auto open = make_frame(FrameType::Open, 1, std::move(ow));
  ASSERT_TRUE(send_all(raw.fd(), open.data(), open.size()));
  FrameType type{};
  ASSERT_TRUE(raw.read_frame(&type));
  ASSERT_EQ(type, FrameType::OpenOk);

  // One string value padded so the PushBatch payload is exactly maximal.
  PushBatchFrame push;
  push.values.emplace_back(std::string());
  Writer probe;
  encode(push, probe);
  const std::size_t overhead = make_frame(FrameType::PushBatch, 1,
                                          std::move(probe)).size() -
                               kHeaderSize;
  push.values[0] = Value(std::string(kMaxPayload - overhead, 'x'));
  Writer pw;
  encode(push, pw);
  std::vector<std::uint8_t> bytes =
      make_frame(FrameType::PushBatch, 1, std::move(pw));
  ASSERT_EQ(bytes.size(), kHeaderSize + kMaxPayload);
  const auto stats = make_frame(FrameType::Stats, 0, Writer{});
  bytes.insert(bytes.end(), stats.begin(), stats.end());
  ASSERT_TRUE(send_all(raw.fd(), bytes.data(), bytes.size()));
  ASSERT_TRUE(raw.read_frame(&type));
  EXPECT_EQ(type, FrameType::PushAck);
  ASSERT_TRUE(raw.read_frame(&type));
  EXPECT_EQ(type, FrameType::StatsOk);
}

// The no-wedge-past-deadline acceptance criterion: a stream that has
// wedged itself (avoidance off) makes PushBatch come back as a *short ack
// within the server's push_wait bound*, and a healthy stream on another
// connection keeps flowing at full speed the whole time.
TEST_F(LoopbackTest, WedgedStreamCannotStallTheDaemonPastItsDeadline) {
  Client wedged = connect();
  OpenFrame wspec;
  wspec.backend = 2;
  wspec.mode = 0;
  wspec.kernel = KernelKind::Wedge;
  wspec.wedge_prefix = 1000;
  wspec.feed_capacity = 4;  // wedges after a handful of pushes
  wspec.topology = to_text(workloads::fig2_triangle());
  ClientStream ws = wedged.open(1, wspec);

  Client healthy = connect();
  OpenFrame hspec;
  hspec.topology = "node a\nnode b\nedge a b 8\n";
  ClientStream hs = healthy.open(1, hspec);

  // Feed the wedge until it stops accepting. Every round trip -- including
  // the ones that time out server-side -- must return within push_wait
  // (100ms here) plus generous scheduling slack.
  std::vector<Value> one = {Value()};
  bool saw_short_ack = false;
  for (int i = 0; i < 40 && !saw_short_ack; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    const PushAckFrame ack = ws.push_some(0, one);
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    EXPECT_LT(elapsed, std::chrono::milliseconds(2000));
    if (ack.accepted == 0) saw_short_ack = true;
  }
  EXPECT_TRUE(saw_short_ack) << "the wedge never bit; test is vacuous";
  EXPECT_GE(server_->stats().push_timeouts_total, 1u);

  // The healthy stream was never starved: a full push/poll cycle completes
  // while the wedged stream is still sitting there blocked.
  for (std::int64_t i = 0; i < 50; ++i)
    EXPECT_EQ(hs.push(0, {Value(i)}), 1u);
  hs.close(0);
  std::size_t got = 0;
  for (;;) {
    const DeliverFrame d = hs.poll(0, 64);
    got += d.items.size();
    if (d.ended != 0) break;
  }
  EXPECT_EQ(got, 50u);
  EXPECT_TRUE(hs.finish().completed);

  // The wedged stream still certifies its deadlock on demand.
  ws.close(0);
  const exec::RunReport report = ws.finish();
  EXPECT_TRUE(report.deadlocked);
  EXPECT_FALSE(report.state_dump.empty());
}

// One connection, several concurrent streams, interleaved traffic.
TEST_F(LoopbackTest, MultipleStreamsMultiplexOneConnection) {
  Client client = connect();
  OpenFrame spec;
  spec.topology = "node a\nnode b\nedge a b 8\n";
  ClientStream s1 = client.open(1, spec);
  ClientStream s2 = client.open(2, spec);

  for (std::int64_t i = 0; i < 32; ++i) {
    EXPECT_EQ(s1.push(0, {Value(i)}), 1u);
    EXPECT_EQ(s2.push(0, {Value(i * 100)}), 1u);
  }
  s1.close(0);
  s2.close(0);
  const auto drain = [](ClientStream& s) {
    std::vector<std::int64_t> got;
    for (;;) {
      const DeliverFrame d = s.poll(0, 64);
      for (const auto& item : d.items)
        got.push_back(item.value.as<std::int64_t>());
      if (d.ended != 0) break;
    }
    return got;
  };
  const auto got1 = drain(s1);
  const auto got2 = drain(s2);
  ASSERT_EQ(got1.size(), 32u);
  ASSERT_EQ(got2.size(), 32u);
  for (std::int64_t i = 0; i < 32; ++i) {
    EXPECT_EQ(got1[static_cast<std::size_t>(i)], i);
    EXPECT_EQ(got2[static_cast<std::size_t>(i)], i * 100);
  }
  EXPECT_TRUE(s1.finish().completed);
  EXPECT_TRUE(s2.finish().completed);

  // Reusing a live id is a protocol error.
  [[maybe_unused]] ClientStream s3 = client.open(3, spec);
  EXPECT_THROW((void)client.open(3, spec), ProtocolError);
}

// Backend byte 1 named the retired thread-per-node backend: sdafd answers
// an Open carrying it with Error(BadFrame) and runs nothing for it.
TEST_F(LoopbackTest, RetiredBackendByteEarnsBadFrame) {
  Client client = connect();
  OpenFrame spec;
  spec.backend = 1;
  spec.topology = "node a\nnode b\nedge a b 4\n";
  try {
    (void)client.open(1, spec);
    ADD_FAILURE() << "an Open with backend byte 1 was accepted";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.code(), ErrorCode::BadFrame) << e.what();
  }
  const ServiceStats stats = server_->stats();
  EXPECT_EQ(stats.streams_open, 0u);
  EXPECT_GE(stats.errors_total, 1u);
}

// A topology whose exact compile would enumerate past the daemon's cycle
// limit -- the complete DAG on 11 nodes -- earns Error(BadTopology) naming
// kOpenCycleLimit, which ends that connection, and the daemon keeps
// serving: a new connection opens and runs a small stream.
TEST_F(LoopbackTest, CycleLimitTopologyEarnsBadTopology) {
  Client client = connect();
  OpenFrame dense;
  dense.mode = 1;  // Propagation: the Open must compile
  for (int a = 0; a < 11; ++a)
    dense.topology += "node n" + std::to_string(a) + "\n";
  for (int a = 0; a < 11; ++a)
    for (int b = a + 1; b < 11; ++b)
      dense.topology += "edge n" + std::to_string(a) + " n" +
                        std::to_string(b) + " 1\n";
  try {
    (void)client.open(1, dense);
    ADD_FAILURE() << "an Open past the cycle limit was accepted";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.code(), ErrorCode::BadTopology) << e.what();
    EXPECT_NE(std::string(e.what()).find(std::to_string(kOpenCycleLimit)),
              std::string::npos)
        << e.what();
  }

  Client next = connect();
  OpenFrame small;
  small.mode = 1;
  small.topology = "node a\nnode b\nedge a b 4\n";
  ClientStream s = next.open(1, small);
  EXPECT_EQ(s.push(0, {Value(std::int64_t{3})}), 1u);
  s.close(0);
  EXPECT_TRUE(s.finish().completed);
}

// Opening the same topology twice hits the shared compile cache, and the
// OpenOk says so.
TEST_F(LoopbackTest, ReopeningTopologyHitsCompileCache) {
  Client client = connect();
  OpenFrame spec;
  spec.mode = 1;  // must compile for the cache to be consulted
  spec.topology = to_text(workloads::splitjoin(2, 2, 2));
  ClientStream s1 = client.open(1, spec);
  ClientStream s2 = client.open(2, spec);
  EXPECT_EQ(s2.cache_hit(), true);
  EXPECT_GE(server_->stats().compile_cache_hits_total, 1u);
  s1.close(0);
  s2.close(0);
  EXPECT_TRUE(s1.finish().completed);
  EXPECT_TRUE(s2.finish().completed);
}

// The Stats page: one merged Prometheus exposition with both per-stream
// sdaf_* families and the daemon's sdafd_* families, well-formed enough
// for tools/check_prom.sh (one TYPE per family, counters end _total).
TEST_F(LoopbackTest, StatsPageMergesStreamsAndServiceFamilies) {
  Client client = connect();
  OpenFrame spec;
  spec.tenant = "alpha";
  spec.topology = "node a\nnode b\nedge a b 4\n";
  ClientStream s1 = client.open(1, spec);
  ClientStream s2 = client.open(2, spec);
  EXPECT_EQ(s1.push(0, {Value(std::int64_t{1})}), 1u);
  EXPECT_EQ(s2.push(0, {Value(std::int64_t{2})}), 1u);

  const std::string page = client.stats();
  EXPECT_NE(page.find("# TYPE sdafd_connections_total counter"),
            std::string::npos);
  EXPECT_NE(page.find("sdafd_streams_open"), std::string::npos);
  EXPECT_NE(page.find("sdafd_frames_total"), std::string::npos);
  // Two live streams of the same tenant must surface as distinct series
  // under ONE type header per family.
  EXPECT_NE(page.find("tenant=\"alpha/"), std::string::npos);
  const auto count_type = [&page](const std::string& family) {
    const std::string needle = "# TYPE " + family + " ";
    std::size_t n = 0;
    for (std::size_t pos = page.find(needle); pos != std::string::npos;
         pos = page.find(needle, pos + 1))
      ++n;
    return n;
  };
  EXPECT_EQ(count_type("sdaf_node_fires_total"), 1u);
  EXPECT_EQ(count_type("sdafd_connections_total"), 1u);

  s1.close(0);
  s2.close(0);
  (void)s1.finish();
  (void)s2.finish();
}

// Fixture with a tight admission budget: at most 2 nodes across all
// admitted streams, so any 3-node topology is over budget by construction.
class AdmissionLoopbackTest : public LoopbackTest {
 protected:
  void configure(ServerOptions& opt) override { opt.budgets.max_nodes = 2; }
};

// The admission rejection round trip (qos): an over-budget Open comes back
// as a typed OpenRejectedError carrying the reason and the cost model's
// prediction, the rejection is SOFT -- the same connection then opens an
// in-budget stream and runs it to completion -- and the refusal is counted
// in the daemon's Prometheus page.
TEST_F(AdmissionLoopbackTest, OverBudgetOpenRejectedSoftlyWithPredictedCost) {
  Client client = connect();
  OpenFrame big;
  big.topology = to_text(workloads::fig2_triangle());  // 3 nodes: over budget
  bool rejected = false;
  try {
    (void)client.open(1, big);
  } catch (const OpenRejectedError& e) {
    rejected = true;
    EXPECT_NE(std::string(e.what()).find("nodes"), std::string::npos);
    EXPECT_EQ(e.predicted().nodes, 3u);
    EXPECT_GT(e.predicted().channel_slots, 0u);
    EXPECT_GT(e.predicted().channel_bytes, 0u);
  }
  ASSERT_TRUE(rejected);

  // Soft refusal: the connection survives, the id stays free, and an
  // in-budget open on the very same connection and id runs normally.
  OpenFrame small;
  small.topology = "node a\nnode b\nedge a b 4\n";
  ClientStream s = client.open(1, small);
  EXPECT_EQ(s.push(0, {Value(std::int64_t{9})}), 1u);
  s.close(0);
  EXPECT_TRUE(s.finish().completed);

  // The refusal (and the admit) surface on the Stats page.
  const std::string page = client.stats();
  EXPECT_NE(page.find("sdaf_admission_rejected_total 1"), std::string::npos);
  EXPECT_NE(page.find("sdaf_admission_admitted_total 1"), std::string::npos);
}

// Graceful drain: after request_drain, new Opens are refused (Draining)
// but an in-flight stream finishes cleanly within the grace window.
TEST_F(LoopbackTest, DrainRefusesNewStreamsButFinishesLiveOnes) {
  Client client = connect();
  OpenFrame spec;
  spec.topology = "node a\nnode b\nedge a b 4\n";
  ClientStream s = client.open(1, spec);
  EXPECT_EQ(s.push(0, {Value(std::int64_t{5})}), 1u);

  server_->request_drain();
  EXPECT_THROW((void)client.open(2, spec), ProtocolError);

  s.close(0);
  const exec::RunReport report = s.finish();
  EXPECT_TRUE(report.completed);
}

// --- descriptor exhaustion ---------------------------------------------

// Runs in a forked child: caps RLIMIT_NOFILE a few descriptors above what
// is open, leaves the daemon's accept() one short, and checks that the
// daemon idles (a pending connection keeps the listener readable, so
// re-polling it would spin a CPU), counts the refusal, and accepts once a
// descriptor frees up. Exits 0 on success, a distinct code per failure.
[[noreturn]] void emfile_child() {
  using Clock = std::chrono::steady_clock;
  ServerOptions opt;
  opt.unix_path = "/tmp/sdaf_emfile_" + std::to_string(::getpid());
  opt.pool_workers = 1;
  Server server(opt);
  if (!server.start()) std::_Exit(2);
  std::thread loop([&server] { server.run(); });
  const auto wait_for = [&](auto pred) {
    const auto deadline = Clock::now() + std::chrono::seconds(5);
    while (!pred()) {
      if (Clock::now() >= deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return true;
  };
  int highest = 2;
  if (DIR* dir = ::opendir("/proc/self/fd")) {
    while (const dirent* e = ::readdir(dir))
      highest = std::max(highest, std::atoi(e->d_name));
    ::closedir(dir);
  }
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) != 0) std::_Exit(3);
  lim.rlim_cur = static_cast<rlim_t>(highest) + 1 + 4;
  if (::setrlimit(RLIMIT_NOFILE, &lim) != 0) std::_Exit(3);
  // Take every free descriptor below the cap (a handful), then give one
  // back for the client: the daemon's accept() is left with none.
  std::vector<int> spare;
  for (int fd; (fd = ::dup(0)) >= 0;) {
    spare.push_back(fd);
    if (spare.size() > 64) std::_Exit(4);
  }
  if (errno != EMFILE || spare.empty()) std::_Exit(4);
  ::close(spare.back());
  spare.pop_back();
  const Fd client = connect_unix(opt.unix_path);
  if (!client.valid()) std::_Exit(5);
  if (!wait_for([&] { return server.stats().accept_fd_exhausted_total > 0; }))
    std::_Exit(6);
  timespec t0{}, t1{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t0);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t1);
  const double cpu_ms = (t1.tv_sec - t0.tv_sec) * 1e3 +
                        (t1.tv_nsec - t0.tv_nsec) / 1e6;
  if (cpu_ms > 100) {
    std::fprintf(stderr, "daemon burned %.0f ms CPU in 300 ms\n", cpu_ms);
    std::_Exit(7);
  }
  for (const int fd : spare) ::close(fd);
  if (!wait_for([&] { return server.stats().connections_total == 1; }))
    std::_Exit(8);
  server.request_stop();
  loop.join();
  std::fprintf(stderr, "emfile ok\n");
  std::_Exit(0);
}

TEST(NetServer, DescriptorExhaustionPausesAcceptInsteadOfSpinning) {
  // The child re-executes this binary, so it starts with one thread and
  // the descriptors of a fresh process, not a fork of whatever ran before.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(emfile_child(), ::testing::ExitedWithCode(0), "emfile ok");
}

}  // namespace
}  // namespace sdaf::net
