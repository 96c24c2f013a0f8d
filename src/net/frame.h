// The sdaf wire protocol v1: a small length-prefixed binary framing layer
// that carries live streams between net::Client and the sdafd daemon
// (tools/sdafd.cpp). One frame = an 8-byte little-endian header plus a
// payload of at most kMaxPayload bytes:
//
//   u32 length   payload bytes (excludes the header)
//   u8  type     FrameType
//   u8  flags    reserved, must be 0 in v1
//   u16 stream   stream id (0 = connection scope: Hello/Stats/Error)
//
// The conversation is strict request/response: every client frame is
// answered by exactly one server frame (PushBatch -> PushAck, Poll ->
// Deliver, Finish -> Verdict, ...), which keeps both the blocking client
// and the single-threaded server loop trivial to reason about. Version
// negotiation happens once per connection (Hello carries the magic and an
// acceptable version range; HelloOk pins the version). Any malformed,
// oversized, or out-of-protocol frame is answered with Error and the
// connection is closed -- the codec here is deliberately paranoid so the
// server can parse adversarial bytes without crashing (the Reader is
// sticky-failing and never reads past the payload).
//
// Kernels do not travel as code: Open names a workload (passthrough /
// relay / wedge, plus pass_rate, seed and the wedge prefix), so a client
// and an in-process run can construct bit-identical kernels from the same
// spec -- the foundation of the loopback differential tests. See
// docs/PROTOCOL.md for the field-by-field layout.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/exec/run_types.h"
#include "src/runtime/message.h"

namespace sdaf::net {

inline constexpr std::uint32_t kMagic = 0x46414453;  // "SDAF" little-endian
inline constexpr std::uint16_t kProtocolVersion = 1;
inline constexpr std::size_t kHeaderSize = 8;
inline constexpr std::uint32_t kMaxPayload = 4u << 20;  // 4 MiB

enum class FrameType : std::uint8_t {
  Hello = 1,      // c->s: magic, version range
  HelloOk = 2,    // s->c: pinned version
  Open = 3,       // c->s: topology + workload + run options (new stream id)
  OpenOk = 4,     // s->c: port counts, compile-cache disposition
  PushBatch = 5,  // c->s: values for one input port
  PushAck = 6,    // s->c: how many were accepted within the server's bound
  Poll = 7,       // c->s: request up to max_items from one output port
  Deliver = 8,    // s->c: items + end-of-stream flag
  Close = 9,      // c->s: dynamic EOS for one input port
  CloseOk = 10,   // s->c
  Finish = 11,    // c->s: collect the final verdict (all ports closed)
  Verdict = 12,   // s->c: the full exec::RunReport, incl. deadlock dump
  Stats = 13,     // c->s: request the service metrics page
  StatsOk = 14,   // s->c: Prometheus text exposition
  Error = 15,     // s->c: code + message; the connection is then closed
  Snapshot = 16,  // c->s: begin/poll an asynchronous barrier snapshot
  SnapshotOk = 17,  // s->c: pending, or the serialized ckpt::StreamSnapshot
  Restore = 18,   // c->s: Open + snapshot bytes (new stream id, rehydrated)
  RestoreOk = 19,  // s->c: port counts + the restored stream's epoch
};

[[nodiscard]] const char* to_string(FrameType t);

enum class ErrorCode : std::uint32_t {
  BadMagic = 1,     // Hello did not start with "SDAF"
  Version = 2,      // no overlap with the server's protocol version
  BadFrame = 3,     // header or payload failed to parse
  UnknownType = 4,  // frame type the server does not recognise
  BadStream = 5,    // unknown stream id, or Open on an id already in use
  BadPort = 6,      // port index out of range for the stream
  TooLarge = 7,     // declared payload exceeds kMaxPayload
  Draining = 8,     // server is shutting down; no new streams
  BadTopology = 9,  // topology text failed to parse or compile
  BadState = 10,    // frame invalid in the current state (e.g. before Hello)
  Internal = 11,
  // The admission controller refused the Open: a qos budget (channel
  // bytes/slots, nodes, tenant fan-out, dummy ratio) would be exceeded.
  // Like Draining this is a SOFT error -- the connection stays open, the
  // stream id stays free, and the client may retry later or open a
  // cheaper stream. The Error frame carries the predicted TenantCost.
  AdmissionRejected = 12,
};

[[nodiscard]] const char* to_string(ErrorCode c);

struct FrameHeader {
  std::uint32_t length = 0;  // payload bytes
  FrameType type = FrameType::Error;
  std::uint8_t flags = 0;
  std::uint16_t stream = 0;
};

// Serializes the header into exactly kHeaderSize bytes at out[0..8).
void encode_header(const FrameHeader& h, std::uint8_t* out);
// Parses a header; nullopt when the declared length exceeds kMaxPayload or
// the type byte is outside the known range (the caller then errors the
// connection -- a desynchronized peer must not make the server allocate).
[[nodiscard]] std::optional<FrameHeader> decode_header(const std::uint8_t* in);

// Little-endian payload writer.
class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  // u32 length prefix + raw bytes.
  void str(const std::string& s);
  void value(const runtime::Value& v);

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

// Sticky-failure payload reader: the first short or malformed read flips
// ok() to false and every subsequent accessor returns a zero value, so
// frame decoders can parse straight-line and check ok() once at the end.
// Never reads past [data, data+size).
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint16_t u16();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  [[nodiscard]] double f64();
  [[nodiscard]] std::string str();
  [[nodiscard]] runtime::Value value();

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }
  // A well-formed frame consumes its payload exactly.
  [[nodiscard]] bool done() const { return ok_ && pos_ == size_; }

 private:
  [[nodiscard]] bool take(std::size_t n);

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// --- typed frames -------------------------------------------------------

struct HelloFrame {
  std::uint32_t magic = kMagic;
  std::uint16_t version_min = kProtocolVersion;
  std::uint16_t version_max = kProtocolVersion;
};

struct HelloOkFrame {
  std::uint16_t version = kProtocolVersion;
};

// The workload half of Open: enough to reconstruct the exact kernel vector
// on either side of the wire (see net::make_kernels).
enum class KernelKind : std::uint8_t {
  Passthrough = 0,  // pass_all everywhere
  Relay = 1,        // workloads::relay_kernels(pass_rate, seed)
  Wedge = 2,        // node 0 adversarial_prefix_filter(1, wedge_prefix),
                    // pass-through elsewhere: the Fig. 2 deadlock driver
};

struct OpenFrame {
  std::uint8_t backend = 0;  // exec::Backend
  std::uint8_t mode = 0;     // runtime::DummyMode; None = avoidance off
  KernelKind kernel = KernelKind::Passthrough;
  double pass_rate = 1.0;
  std::uint64_t seed = 0;
  std::uint64_t wedge_prefix = 0;
  std::uint32_t feed_capacity = 256;
  std::uint32_t egress_capacity = 1024;
  std::uint32_t batch = 1;
  // Reserved, ignored by the server (the pool's injector is one FIFO).
  // Still on the wire and still range-checked, [0, 1e6], as outside input.
  double weight = 1.0;
  std::string tenant = "default";
  std::string topology;  // graph::to_text format
};

struct OpenOkFrame {
  std::uint16_t inputs = 0;   // one per source node
  std::uint16_t outputs = 0;  // one per sink node
  std::uint8_t cache_hit = 0;  // topology signature hit the CompileCache
};

struct PushBatchFrame {
  std::uint16_t port = 0;
  std::vector<runtime::Value> values;
};

struct PushAckFrame {
  std::uint32_t accepted = 0;
  std::uint8_t ended = 0;  // port closed or stream ended; retrying is futile
};

struct PollFrame {
  std::uint16_t port = 0;
  std::uint32_t max_items = 0;
};

struct DeliverFrame {
  struct Item {
    std::uint64_t seq = 0;
    runtime::Value value;
  };
  std::uint16_t port = 0;
  std::uint8_t ended = 0;  // EOS consumed: no further items will arrive
  std::vector<Item> items;
};

struct CloseFrame {
  std::uint16_t port = 0;
};

// Finish and Stats carry no payload.

// The exec::RunReport, bit for bit (wall_seconds rides along but is
// explicitly excluded from differential comparisons -- it is wall clock).
struct VerdictFrame {
  exec::RunReport report;
};

struct StatsOkFrame {
  std::string prometheus;  // merged text exposition page
};

struct ErrorFrame {
  ErrorCode code = ErrorCode::Internal;
  std::string message;
  // AdmissionRejected detail: the cost model's prediction for the refused
  // open, so a client can size a retry without guessing. has_cost = 0 on
  // every other code (the fields still ride the wire, zeroed -- fixed
  // layout keeps the decoder straight-line).
  std::uint8_t has_cost = 0;
  std::uint64_t predicted_slots = 0;
  std::uint64_t predicted_bytes = 0;
  std::uint64_t predicted_nodes = 0;
  double predicted_dummy_ratio = 0.0;
};

// Snapshot is one non-blocking begin-or-poll step (the server never parks
// its event loop on a barrier): the first Snapshot on a stream begins the
// barrier, every Snapshot answers with the current state, and the client
// re-sends until complete -- mirroring Stream::snapshot_begin/snapshot_poll.
// Carries no payload fields beyond the header's stream id.
struct SnapshotFrame {};

struct SnapshotOkFrame {
  std::uint8_t complete = 0;  // 0 = barrier still pending, re-send Snapshot
  // complete != 0: ckpt::serialize(StreamSnapshot) -- the versioned blob,
  // restorable here (Restore) or by any later daemon over the same
  // topology. Must fit kMaxPayload; size the stream's traffic accordingly.
  std::string snapshot;
};

// Open's fields plus the snapshot blob: starts a NEW stream id rehydrated
// at the cut (Session::restore semantics -- the client then replays pushes
// and closes from each PortCut::next_seq and dedupes re-delivered egress
// by seq). The topology, workload and mode must match the snapshot's
// signature or the server answers BadState.
struct RestoreFrame {
  OpenFrame open;
  std::string snapshot;
};

struct RestoreOkFrame {
  std::uint16_t inputs = 0;
  std::uint16_t outputs = 0;
  std::uint8_t cache_hit = 0;
  std::uint64_t epoch = 0;  // snapshot.epoch + 1
};

// --- encode/decode ------------------------------------------------------
// encode_* appends the payload to a Writer; decode_* parses a payload and
// returns nullopt on any malformation (short, trailing bytes, bad enum,
// oversized embedded string/batch).

void encode(const HelloFrame& f, Writer& w);
void encode(const HelloOkFrame& f, Writer& w);
void encode(const OpenFrame& f, Writer& w);
void encode(const OpenOkFrame& f, Writer& w);
void encode(const PushBatchFrame& f, Writer& w);
void encode(const PushAckFrame& f, Writer& w);
void encode(const PollFrame& f, Writer& w);
void encode(const DeliverFrame& f, Writer& w);
void encode(const CloseFrame& f, Writer& w);
void encode(const VerdictFrame& f, Writer& w);
void encode(const StatsOkFrame& f, Writer& w);
void encode(const ErrorFrame& f, Writer& w);
void encode(const SnapshotOkFrame& f, Writer& w);
void encode(const RestoreFrame& f, Writer& w);
void encode(const RestoreOkFrame& f, Writer& w);

[[nodiscard]] std::optional<HelloFrame> decode_hello(const std::uint8_t* p,
                                                     std::size_t n);
[[nodiscard]] std::optional<HelloOkFrame> decode_hello_ok(const std::uint8_t* p,
                                                          std::size_t n);
[[nodiscard]] std::optional<OpenFrame> decode_open(const std::uint8_t* p,
                                                   std::size_t n);
[[nodiscard]] std::optional<OpenOkFrame> decode_open_ok(const std::uint8_t* p,
                                                        std::size_t n);
[[nodiscard]] std::optional<PushBatchFrame> decode_push_batch(
    const std::uint8_t* p, std::size_t n);
[[nodiscard]] std::optional<PushAckFrame> decode_push_ack(const std::uint8_t* p,
                                                          std::size_t n);
[[nodiscard]] std::optional<PollFrame> decode_poll(const std::uint8_t* p,
                                                   std::size_t n);
[[nodiscard]] std::optional<DeliverFrame> decode_deliver(const std::uint8_t* p,
                                                         std::size_t n);
[[nodiscard]] std::optional<CloseFrame> decode_close(const std::uint8_t* p,
                                                     std::size_t n);
[[nodiscard]] std::optional<VerdictFrame> decode_verdict(const std::uint8_t* p,
                                                         std::size_t n);
[[nodiscard]] std::optional<StatsOkFrame> decode_stats_ok(const std::uint8_t* p,
                                                          std::size_t n);
[[nodiscard]] std::optional<ErrorFrame> decode_error(const std::uint8_t* p,
                                                     std::size_t n);
[[nodiscard]] std::optional<SnapshotOkFrame> decode_snapshot_ok(
    const std::uint8_t* p, std::size_t n);
[[nodiscard]] std::optional<RestoreFrame> decode_restore(const std::uint8_t* p,
                                                         std::size_t n);
[[nodiscard]] std::optional<RestoreOkFrame> decode_restore_ok(
    const std::uint8_t* p, std::size_t n);

// Convenience: header + payload in one buffer, ready to write to a socket.
[[nodiscard]] std::vector<std::uint8_t> make_frame(FrameType type,
                                                   std::uint16_t stream,
                                                   Writer payload);

}  // namespace sdaf::net
