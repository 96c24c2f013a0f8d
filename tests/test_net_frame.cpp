// The wire codec (src/net/frame.h): every frame type round-trips bit for
// bit; every decoder rejects truncation, trailing garbage, out-of-range
// enums and resource-bomb counts without crashing (the server feeds these
// decoders adversarial bytes directly); and the defensive topology parser
// accepts exactly what graph::to_text emits while rejecting everything
// graph::from_text would abort on.
#include "src/net/frame.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "src/graph/io.h"
#include "src/net/workload.h"
#include "src/workloads/topologies.h"

namespace sdaf::net {
namespace {

using runtime::Value;

std::vector<std::uint8_t> payload_of(const Writer& w) { return w.bytes(); }

// Every strict prefix of a valid payload must fail to decode, and so must
// the payload with a trailing byte: decoders demand exact consumption.
template <typename Decoder>
void expect_exact_consumption(const std::vector<std::uint8_t>& bytes,
                              Decoder decode, const char* label) {
  ASSERT_TRUE(decode(bytes.data(), bytes.size()).has_value()) << label;
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(decode(bytes.data(), cut).has_value())
        << label << " prefix " << cut;
  }
  std::vector<std::uint8_t> padded = bytes;
  padded.push_back(0);
  EXPECT_FALSE(decode(padded.data(), padded.size()).has_value())
      << label << " trailing byte";
}

TEST(NetFrame, HeaderRoundTrip) {
  FrameHeader h;
  h.length = 12345;
  h.type = FrameType::PushBatch;
  h.flags = 0;
  h.stream = 0xBEEF;
  std::uint8_t buf[kHeaderSize];
  encode_header(h, buf);
  const auto back = decode_header(buf);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->length, h.length);
  EXPECT_EQ(back->type, h.type);
  EXPECT_EQ(back->flags, h.flags);
  EXPECT_EQ(back->stream, h.stream);
}

TEST(NetFrame, HeaderRejectsOversizeAndBadType) {
  FrameHeader h;
  h.type = FrameType::Hello;
  std::uint8_t buf[kHeaderSize];
  h.length = kMaxPayload + 1;
  encode_header(h, buf);
  EXPECT_FALSE(decode_header(buf).has_value());

  h.length = 0;
  encode_header(h, buf);
  buf[4] = 0;  // type below the known range
  EXPECT_FALSE(decode_header(buf).has_value());
  buf[4] = 20;  // type above the known range (RestoreOk = 19 is the top)
  EXPECT_FALSE(decode_header(buf).has_value());
}

TEST(NetFrame, HelloRoundTrip) {
  HelloFrame f;
  f.version_min = 1;
  f.version_max = 7;
  Writer w;
  encode(f, w);
  const auto bytes = payload_of(w);
  const auto back = decode_hello(bytes.data(), bytes.size());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->magic, kMagic);
  EXPECT_EQ(back->version_min, 1);
  EXPECT_EQ(back->version_max, 7);
  expect_exact_consumption(bytes, decode_hello, "Hello");
}

TEST(NetFrame, OpenRoundTrip) {
  OpenFrame f;
  f.backend = 2;
  f.mode = 1;
  f.kernel = KernelKind::Wedge;
  f.pass_rate = 0.625;
  f.seed = 0xDEADBEEFCAFEull;
  f.wedge_prefix = 100;
  f.feed_capacity = 512;
  f.egress_capacity = 2048;
  f.batch = 16;
  f.tenant = "tenant-a";
  f.topology = "node a\nnode b\nedge a b 4\n";
  Writer w;
  encode(f, w);
  const auto bytes = payload_of(w);
  const auto back = decode_open(bytes.data(), bytes.size());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->backend, f.backend);
  EXPECT_EQ(back->mode, f.mode);
  EXPECT_EQ(back->kernel, f.kernel);
  EXPECT_EQ(back->pass_rate, f.pass_rate);
  EXPECT_EQ(back->seed, f.seed);
  EXPECT_EQ(back->wedge_prefix, f.wedge_prefix);
  EXPECT_EQ(back->feed_capacity, f.feed_capacity);
  EXPECT_EQ(back->egress_capacity, f.egress_capacity);
  EXPECT_EQ(back->batch, f.batch);
  EXPECT_EQ(back->tenant, f.tenant);
  EXPECT_EQ(back->topology, f.topology);
  expect_exact_consumption(bytes, decode_open, "Open");
}

TEST(NetFrame, OpenRejectsOutOfRangeFields) {
  const OpenFrame good;
  const auto encode_with = [](OpenFrame f) {
    Writer w;
    encode(f, w);
    return w.take();
  };
  {
    OpenFrame f = good;
    f.backend = 3;
    const auto b = encode_with(f);
    EXPECT_FALSE(decode_open(b.data(), b.size()).has_value());
  }
  {
    OpenFrame f = good;
    f.mode = 3;
    const auto b = encode_with(f);
    EXPECT_FALSE(decode_open(b.data(), b.size()).has_value());
  }
  {
    OpenFrame f = good;
    f.kernel = static_cast<KernelKind>(9);
    const auto b = encode_with(f);
    EXPECT_FALSE(decode_open(b.data(), b.size()).has_value());
  }
  {
    OpenFrame f = good;
    f.pass_rate = 1.5;
    const auto b = encode_with(f);
    EXPECT_FALSE(decode_open(b.data(), b.size()).has_value());
  }
  {
    OpenFrame f = good;
    f.feed_capacity = 0;  // a zero-capacity feed channel cannot exist
    const auto b = encode_with(f);
    EXPECT_FALSE(decode_open(b.data(), b.size()).has_value());
  }
  {
    OpenFrame f = good;
    f.feed_capacity = (1u << 20) + 1;  // resource bomb
    const auto b = encode_with(f);
    EXPECT_FALSE(decode_open(b.data(), b.size()).has_value());
  }
  {
    OpenFrame f = good;
    f.batch = 0;
    const auto b = encode_with(f);
    EXPECT_FALSE(decode_open(b.data(), b.size()).has_value());
  }
}

TEST(NetFrame, PushBatchRoundTripAllValueKinds) {
  PushBatchFrame f;
  f.port = 3;
  f.values.emplace_back();                               // none (firing token)
  f.values.emplace_back(std::int64_t{-42});              // i64
  f.values.emplace_back(3.5);                            // f64
  f.values.emplace_back(std::string("hello, stream"));   // string
  Writer w;
  encode(f, w);
  const auto bytes = payload_of(w);
  const auto back = decode_push_batch(bytes.data(), bytes.size());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->port, 3);
  ASSERT_EQ(back->values.size(), 4u);
  EXPECT_FALSE(back->values[0].has_value());
  EXPECT_EQ(back->values[1].as<std::int64_t>(), -42);
  EXPECT_EQ(back->values[2].as<double>(), 3.5);
  EXPECT_EQ(back->values[3].as<std::string>(), "hello, stream");
  expect_exact_consumption(bytes, decode_push_batch, "PushBatch");
}

TEST(NetFrame, PushBatchRejectsCountBomb) {
  // port + a declared count far beyond the actual payload bytes must be
  // rejected before any allocation sized by the count.
  Writer w;
  w.u16(0);
  w.u32(0x7FFFFFFF);
  const auto bytes = payload_of(w);
  EXPECT_FALSE(decode_push_batch(bytes.data(), bytes.size()).has_value());
}

TEST(NetFrame, DeliverRoundTrip) {
  DeliverFrame f;
  f.port = 1;
  f.ended = 1;
  f.items.push_back({7, Value(std::int64_t{70})});
  f.items.push_back({8, Value(std::string("tail"))});
  Writer w;
  encode(f, w);
  const auto bytes = payload_of(w);
  const auto back = decode_deliver(bytes.data(), bytes.size());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->port, 1);
  EXPECT_EQ(back->ended, 1);
  ASSERT_EQ(back->items.size(), 2u);
  EXPECT_EQ(back->items[0].seq, 7u);
  EXPECT_EQ(back->items[0].value.as<std::int64_t>(), 70);
  EXPECT_EQ(back->items[1].seq, 8u);
  EXPECT_EQ(back->items[1].value.as<std::string>(), "tail");
  expect_exact_consumption(bytes, decode_deliver, "Deliver");
}

TEST(NetFrame, VerdictRoundTripIncludingDeadlockDump) {
  VerdictFrame f;
  f.report.backend = exec::Backend::Pooled;
  f.report.completed = false;
  f.report.deadlocked = true;
  f.report.sweeps = 99;
  f.report.edges = {{10, 2, 4}, {0, 7, 1}};
  f.report.fires = {5, 6, 7};
  f.report.sink_data = {0, 0, 4};
  f.report.state_dump = "node 2 blocked on edge 1\n";
  Writer w;
  encode(f, w);
  const auto bytes = payload_of(w);
  const auto back = decode_verdict(bytes.data(), bytes.size());
  ASSERT_TRUE(back.has_value());
  const exec::RunReport& r = back->report;
  EXPECT_EQ(r.backend, exec::Backend::Pooled);
  EXPECT_FALSE(r.completed);
  EXPECT_TRUE(r.deadlocked);
  EXPECT_EQ(r.sweeps, 99u);
  ASSERT_EQ(r.edges.size(), 2u);
  EXPECT_EQ(r.edges[0].data, 10u);
  EXPECT_EQ(r.edges[0].dummies, 2u);
  EXPECT_EQ(r.edges[0].max_occupancy, 4);
  EXPECT_EQ(r.edges[1].dummies, 7u);
  EXPECT_EQ(r.fires, f.report.fires);
  EXPECT_EQ(r.sink_data, f.report.sink_data);
  EXPECT_EQ(r.state_dump, f.report.state_dump);
  expect_exact_consumption(bytes, decode_verdict, "Verdict");
}

// Backend byte 1 named the retired thread-per-node backend: every frame
// that carries a backend field refuses it as malformed, beside the two
// live values.
TEST(NetFrame, RetiredBackendByteIsRejected) {
  const auto open_decodes = [](std::uint8_t backend) {
    OpenFrame f;
    f.backend = backend;
    Writer w;
    encode(f, w);
    const auto b = payload_of(w);
    return decode_open(b.data(), b.size()).has_value();
  };
  const auto restore_decodes = [](std::uint8_t backend) {
    RestoreFrame f;
    f.open.backend = backend;
    f.snapshot = "x";
    Writer w;
    encode(f, w);
    const auto b = payload_of(w);
    return decode_restore(b.data(), b.size()).has_value();
  };
  const auto verdict_decodes = [](std::uint8_t backend) {
    VerdictFrame f;
    f.report.backend = static_cast<exec::Backend>(backend);
    Writer w;
    encode(f, w);
    const auto b = payload_of(w);
    return decode_verdict(b.data(), b.size()).has_value();
  };
  for (const std::uint8_t live : {0, 2}) {
    EXPECT_TRUE(open_decodes(live)) << int{live};
    EXPECT_TRUE(restore_decodes(live)) << int{live};
    EXPECT_TRUE(verdict_decodes(live)) << int{live};
  }
  EXPECT_FALSE(open_decodes(1));
  EXPECT_FALSE(restore_decodes(1));
  EXPECT_FALSE(verdict_decodes(1));
}

TEST(NetFrame, SimpleFramesRoundTrip) {
  {
    HelloOkFrame f;
    f.version = 1;
    Writer w;
    encode(f, w);
    const auto b = payload_of(w);
    ASSERT_TRUE(decode_hello_ok(b.data(), b.size()).has_value());
    expect_exact_consumption(b, decode_hello_ok, "HelloOk");
  }
  {
    OpenOkFrame f;
    f.inputs = 2;
    f.outputs = 3;
    f.cache_hit = 1;
    Writer w;
    encode(f, w);
    const auto b = payload_of(w);
    const auto back = decode_open_ok(b.data(), b.size());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->inputs, 2);
    EXPECT_EQ(back->outputs, 3);
    EXPECT_EQ(back->cache_hit, 1);
    expect_exact_consumption(b, decode_open_ok, "OpenOk");
  }
  {
    PushAckFrame f;
    f.accepted = 17;
    f.ended = 1;
    Writer w;
    encode(f, w);
    const auto b = payload_of(w);
    const auto back = decode_push_ack(b.data(), b.size());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->accepted, 17u);
    EXPECT_EQ(back->ended, 1);
    expect_exact_consumption(b, decode_push_ack, "PushAck");
  }
  {
    PollFrame f;
    f.port = 2;
    f.max_items = 64;
    Writer w;
    encode(f, w);
    const auto b = payload_of(w);
    const auto back = decode_poll(b.data(), b.size());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->port, 2);
    EXPECT_EQ(back->max_items, 64u);
    expect_exact_consumption(b, decode_poll, "Poll");
  }
  {
    CloseFrame f;
    f.port = 5;
    Writer w;
    encode(f, w);
    const auto b = payload_of(w);
    ASSERT_TRUE(decode_close(b.data(), b.size()).has_value());
    expect_exact_consumption(b, decode_close, "Close");
  }
  {
    StatsOkFrame f;
    f.prometheus = "# HELP x y\n# TYPE x counter\nx_total 1\n";
    Writer w;
    encode(f, w);
    const auto b = payload_of(w);
    const auto back = decode_stats_ok(b.data(), b.size());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->prometheus, f.prometheus);
    expect_exact_consumption(b, decode_stats_ok, "StatsOk");
  }
  {
    ErrorFrame f;
    f.code = ErrorCode::BadTopology;
    f.message = "cycle";
    Writer w;
    encode(f, w);
    const auto b = payload_of(w);
    const auto back = decode_error(b.data(), b.size());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->code, ErrorCode::BadTopology);
    EXPECT_EQ(back->message, "cycle");
    expect_exact_consumption(b, decode_error, "Error");
  }
}

TEST(NetFrame, SnapshotFramesRoundTrip) {
  {
    SnapshotOkFrame pending;  // complete = 0, no bytes
    Writer w;
    encode(pending, w);
    const auto b = payload_of(w);
    const auto back = decode_snapshot_ok(b.data(), b.size());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->complete, 0);
    EXPECT_TRUE(back->snapshot.empty());
    expect_exact_consumption(b, decode_snapshot_ok, "SnapshotOk pending");
  }
  {
    SnapshotOkFrame f;
    f.complete = 1;
    f.snapshot = std::string("\x01\x00opaque blob with \xff bytes", 26);
    Writer w;
    encode(f, w);
    const auto b = payload_of(w);
    const auto back = decode_snapshot_ok(b.data(), b.size());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->complete, 1);
    EXPECT_EQ(back->snapshot, f.snapshot);
    expect_exact_consumption(b, decode_snapshot_ok, "SnapshotOk complete");
  }
  {
    // complete and payload must agree: a "pending" frame carrying bytes
    // (or a "complete" frame without them) is malformed.
    SnapshotOkFrame f;
    f.complete = 0;
    f.snapshot = "stray";
    Writer w;
    encode(f, w);
    const auto b = payload_of(w);
    EXPECT_FALSE(decode_snapshot_ok(b.data(), b.size()).has_value());
  }
  {
    RestoreFrame f;
    f.open.backend = 2;
    f.open.mode = 2;
    f.open.kernel = KernelKind::Relay;
    f.open.pass_rate = 0.5;
    f.open.topology = "node a\nnode b\nedge a b 4\n";
    f.snapshot = std::string("versioned snapshot bytes");
    Writer w;
    encode(f, w);
    const auto b = payload_of(w);
    const auto back = decode_restore(b.data(), b.size());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->open.backend, 2);
    EXPECT_EQ(back->open.mode, 2);
    EXPECT_EQ(back->open.kernel, KernelKind::Relay);
    EXPECT_EQ(back->open.topology, f.open.topology);
    EXPECT_EQ(back->snapshot, f.snapshot);
    expect_exact_consumption(b, decode_restore, "Restore");
  }
  {
    // A Restore without snapshot bytes is meaningless.
    RestoreFrame f;
    f.snapshot.clear();
    Writer w;
    encode(f, w);
    const auto b = payload_of(w);
    EXPECT_FALSE(decode_restore(b.data(), b.size()).has_value());
  }
  {
    // Out-of-range Open fields are policed inside Restore too.
    RestoreFrame f;
    f.open.backend = 3;
    f.snapshot = "x";
    Writer w;
    encode(f, w);
    const auto b = payload_of(w);
    EXPECT_FALSE(decode_restore(b.data(), b.size()).has_value());
  }
  for (const double weight : {std::numeric_limits<double>::quiet_NaN(),
                              1e6 + 1}) {
    // The reserved weight keeps its range check inside Restore too.
    RestoreFrame f;
    f.open.weight = weight;
    f.snapshot = "x";
    Writer w;
    encode(f, w);
    const auto b = payload_of(w);
    EXPECT_FALSE(decode_restore(b.data(), b.size()).has_value()) << weight;
  }
  {
    RestoreOkFrame f;
    f.inputs = 2;
    f.outputs = 1;
    f.cache_hit = 1;
    f.epoch = 3;
    Writer w;
    encode(f, w);
    const auto b = payload_of(w);
    const auto back = decode_restore_ok(b.data(), b.size());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->inputs, 2);
    EXPECT_EQ(back->outputs, 1);
    EXPECT_EQ(back->cache_hit, 1);
    EXPECT_EQ(back->epoch, 3u);
    expect_exact_consumption(b, decode_restore_ok, "RestoreOk");
  }
}

// Property test: no decoder may crash, hang, or allocate absurdly on
// arbitrary bytes -- at worst it returns nullopt. This is exactly what a
// malicious client can feed the server after the (valid) header.
TEST(NetFrame, DecodersSurviveRandomBytes) {
  std::mt19937_64 rng(0xF00DF00D);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::size_t n = rng() % 256;
    std::vector<std::uint8_t> buf(n);
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng());
    const std::uint8_t* p = buf.data();
    (void)decode_hello(p, n);
    (void)decode_hello_ok(p, n);
    (void)decode_open(p, n);
    (void)decode_open_ok(p, n);
    (void)decode_push_batch(p, n);
    (void)decode_push_ack(p, n);
    (void)decode_poll(p, n);
    (void)decode_deliver(p, n);
    (void)decode_close(p, n);
    (void)decode_verdict(p, n);
    (void)decode_stats_ok(p, n);
    (void)decode_error(p, n);
    (void)decode_snapshot_ok(p, n);
    (void)decode_restore(p, n);
    (void)decode_restore_ok(p, n);
  }
}

// Mutation property: flipping any single byte of a valid Open payload
// either still decodes (the flip hit a value byte) or returns nullopt --
// never crashes.
TEST(NetFrame, OpenSurvivesSingleByteMutations) {
  OpenFrame f;
  f.topology = "node a\nnode b\nedge a b 2\n";
  Writer w;
  encode(f, w);
  const auto bytes = payload_of(w);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (const std::uint8_t flip : {0x01, 0x80, 0xFF}) {
      std::vector<std::uint8_t> mut = bytes;
      mut[i] ^= flip;
      (void)decode_open(mut.data(), mut.size());
    }
  }
}

TEST(NetFrame, MakeFrameProducesHeaderPlusPayload) {
  Writer w;
  w.u32(0xAABBCCDD);
  const auto frame = make_frame(FrameType::Poll, 9, std::move(w));
  ASSERT_EQ(frame.size(), kHeaderSize + 4);
  const auto h = decode_header(frame.data());
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(h->length, 4u);
  EXPECT_EQ(h->type, FrameType::Poll);
  EXPECT_EQ(h->stream, 9);

  // Empty payload is legal (Finish, Stats).
  const auto empty = make_frame(FrameType::Finish, 1, Writer{});
  EXPECT_EQ(empty.size(), kHeaderSize);
}

// --- the defensive topology parser --------------------------------------

TEST(NetFrame, ParseTopologyAcceptsToTextOutput) {
  for (const StreamGraph& g :
       {workloads::pipeline(4, 3), workloads::fig1_splitjoin(),
        workloads::fig2_triangle()}) {
    const auto parsed = parse_topology(to_text(g));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->node_count(), g.node_count());
    EXPECT_EQ(parsed->edge_count(), g.edge_count());
    for (std::size_t e = 0; e < g.edge_count(); ++e) {
      EXPECT_EQ(parsed->edge(e).from, g.edge(e).from);
      EXPECT_EQ(parsed->edge(e).to, g.edge(e).to);
      EXPECT_EQ(parsed->edge(e).buffer, g.edge(e).buffer);
    }
  }
}

TEST(NetFrame, ParseTopologyRejectsMalformedInput) {
  // Every one of these aborts the process if fed to graph::from_text.
  EXPECT_FALSE(parse_topology("").has_value());
  EXPECT_FALSE(parse_topology("nonsense a b\n").has_value());
  EXPECT_FALSE(parse_topology("node a\nnode a\n").has_value());  // duplicate
  EXPECT_FALSE(parse_topology("node a\nedge a ghost 2\n").has_value());
  EXPECT_FALSE(parse_topology("node a\nedge a a 2\n").has_value());  // loop
  EXPECT_FALSE(parse_topology("node a\nnode b\nedge a b 0\n").has_value());
  EXPECT_FALSE(parse_topology("node a\nnode b\nedge a b -3\n").has_value());
  EXPECT_FALSE(
      parse_topology("node a\nnode b\nedge a b 99999999\n").has_value());
  // A 2-cycle passes per-line validation but must fail acyclicity.
  EXPECT_FALSE(
      parse_topology("node a\nnode b\nedge a b 2\nedge b a 2\n").has_value());
}

}  // namespace
}  // namespace sdaf::net
