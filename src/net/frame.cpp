#include "src/net/frame.h"

#include <cstring>

namespace sdaf::net {

namespace {

// Embedded collections get their own sanity bounds so a hostile length
// prefix cannot make the decoder reserve gigabytes before the sticky
// Reader notices the payload is short.
constexpr std::uint32_t kMaxBatchItems = 1u << 20;
constexpr std::uint32_t kMaxVectorLen = 1u << 20;

// Backend wire bytes are the exec::Backend values. Byte 1 is retired (it
// named a thread-per-node backend) and decodes as malformed, like any
// other unknown value.
bool valid_backend(std::uint8_t b) {
  return b == static_cast<std::uint8_t>(exec::Backend::Sim) ||
         b == static_cast<std::uint8_t>(exec::Backend::Pooled);
}

void put_u16(std::uint8_t* out, std::uint16_t v) {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
}

void put_u32(std::uint8_t* out, std::uint32_t v) {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
  out[2] = static_cast<std::uint8_t>(v >> 16);
  out[3] = static_cast<std::uint8_t>(v >> 24);
}

std::uint16_t get_u16(const std::uint8_t* in) {
  return static_cast<std::uint16_t>(in[0] | (in[1] << 8));
}

std::uint32_t get_u32(const std::uint8_t* in) {
  return static_cast<std::uint32_t>(in[0]) |
         (static_cast<std::uint32_t>(in[1]) << 8) |
         (static_cast<std::uint32_t>(in[2]) << 16) |
         (static_cast<std::uint32_t>(in[3]) << 24);
}

// Wire tags for runtime::Value payloads. The wire supports exactly the
// types the workload kernels traffic in; anything else is a protocol
// error at encode time (encoded as None so the frame stays well-formed --
// the serving data plane never produces such values).
enum : std::uint8_t {
  kValNone = 0,
  kValI64 = 1,
  kValF64 = 2,
  kValStr = 3,
};

}  // namespace

const char* to_string(FrameType t) {
  switch (t) {
    case FrameType::Hello: return "Hello";
    case FrameType::HelloOk: return "HelloOk";
    case FrameType::Open: return "Open";
    case FrameType::OpenOk: return "OpenOk";
    case FrameType::PushBatch: return "PushBatch";
    case FrameType::PushAck: return "PushAck";
    case FrameType::Poll: return "Poll";
    case FrameType::Deliver: return "Deliver";
    case FrameType::Close: return "Close";
    case FrameType::CloseOk: return "CloseOk";
    case FrameType::Finish: return "Finish";
    case FrameType::Verdict: return "Verdict";
    case FrameType::Stats: return "Stats";
    case FrameType::StatsOk: return "StatsOk";
    case FrameType::Error: return "Error";
    case FrameType::Snapshot: return "Snapshot";
    case FrameType::SnapshotOk: return "SnapshotOk";
    case FrameType::Restore: return "Restore";
    case FrameType::RestoreOk: return "RestoreOk";
  }
  return "?";
}

const char* to_string(ErrorCode c) {
  switch (c) {
    case ErrorCode::BadMagic: return "bad-magic";
    case ErrorCode::Version: return "version-mismatch";
    case ErrorCode::BadFrame: return "bad-frame";
    case ErrorCode::UnknownType: return "unknown-type";
    case ErrorCode::BadStream: return "bad-stream";
    case ErrorCode::BadPort: return "bad-port";
    case ErrorCode::TooLarge: return "too-large";
    case ErrorCode::Draining: return "draining";
    case ErrorCode::BadTopology: return "bad-topology";
    case ErrorCode::BadState: return "bad-state";
    case ErrorCode::Internal: return "internal";
    case ErrorCode::AdmissionRejected: return "admission-rejected";
  }
  return "?";
}

void encode_header(const FrameHeader& h, std::uint8_t* out) {
  put_u32(out, h.length);
  out[4] = static_cast<std::uint8_t>(h.type);
  out[5] = h.flags;
  put_u16(out + 6, h.stream);
}

std::optional<FrameHeader> decode_header(const std::uint8_t* in) {
  FrameHeader h;
  h.length = get_u32(in);
  const std::uint8_t type = in[4];
  h.flags = in[5];
  h.stream = get_u16(in + 6);
  if (h.length > kMaxPayload) return std::nullopt;
  if (type < static_cast<std::uint8_t>(FrameType::Hello) ||
      type > static_cast<std::uint8_t>(FrameType::RestoreOk))
    return std::nullopt;
  h.type = static_cast<FrameType>(type);
  return h;
}

void Writer::u16(std::uint16_t v) {
  buf_.resize(buf_.size() + 2);
  put_u16(buf_.data() + buf_.size() - 2, v);
}

void Writer::u32(std::uint32_t v) {
  buf_.resize(buf_.size() + 4);
  put_u32(buf_.data() + buf_.size() - 4, v);
}

void Writer::u64(std::uint64_t v) {
  u32(static_cast<std::uint32_t>(v));
  u32(static_cast<std::uint32_t>(v >> 32));
}

void Writer::f64(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void Writer::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void Writer::value(const runtime::Value& v) {
  if (!v.has_value()) {
    u8(kValNone);
    return;
  }
  // Typed probes, cheapest first. A Value of any other type degrades to
  // None: the wire carries workload payloads, not arbitrary C++ objects.
  try {
    const std::int64_t i = v.as<std::int64_t>();
    u8(kValI64);
    i64(i);
    return;
  } catch (const std::bad_cast&) {
  }
  try {
    const double d = v.as<double>();
    u8(kValF64);
    f64(d);
    return;
  } catch (const std::bad_cast&) {
  }
  try {
    const std::string& s = v.as<std::string>();
    u8(kValStr);
    str(s);
    return;
  } catch (const std::bad_cast&) {
  }
  u8(kValNone);
}

bool Reader::take(std::size_t n) {
  if (!ok_ || size_ - pos_ < n) {
    ok_ = false;
    return false;
  }
  return true;
}

std::uint8_t Reader::u8() {
  if (!take(1)) return 0;
  return data_[pos_++];
}

std::uint16_t Reader::u16() {
  if (!take(2)) return 0;
  const std::uint16_t v = get_u16(data_ + pos_);
  pos_ += 2;
  return v;
}

std::uint32_t Reader::u32() {
  if (!take(4)) return 0;
  const std::uint32_t v = get_u32(data_ + pos_);
  pos_ += 4;
  return v;
}

std::uint64_t Reader::u64() {
  const std::uint64_t lo = u32();
  const std::uint64_t hi = u32();
  return lo | (hi << 32);
}

double Reader::f64() {
  const std::uint64_t bits = u64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string Reader::str() {
  const std::uint32_t len = u32();
  // The length prefix can claim at most what the payload still holds; a
  // lying prefix fails here instead of allocating.
  if (!ok_ || len > size_ - pos_) {
    ok_ = false;
    return {};
  }
  std::string s(reinterpret_cast<const char*>(data_ + pos_), len);
  pos_ += len;
  return s;
}

runtime::Value Reader::value() {
  switch (u8()) {
    case kValNone:
      return {};
    case kValI64:
      return runtime::Value(i64());
    case kValF64:
      return runtime::Value(f64());
    case kValStr:
      return runtime::Value(str());
    default:
      ok_ = false;
      return {};
  }
}

// --- typed frame codecs -------------------------------------------------

void encode(const HelloFrame& f, Writer& w) {
  w.u32(f.magic);
  w.u16(f.version_min);
  w.u16(f.version_max);
}

std::optional<HelloFrame> decode_hello(const std::uint8_t* p, std::size_t n) {
  Reader r(p, n);
  HelloFrame f;
  f.magic = r.u32();
  f.version_min = r.u16();
  f.version_max = r.u16();
  if (!r.done()) return std::nullopt;
  return f;
}

void encode(const HelloOkFrame& f, Writer& w) { w.u16(f.version); }

std::optional<HelloOkFrame> decode_hello_ok(const std::uint8_t* p,
                                            std::size_t n) {
  Reader r(p, n);
  HelloOkFrame f;
  f.version = r.u16();
  if (!r.done()) return std::nullopt;
  return f;
}

void encode(const OpenFrame& f, Writer& w) {
  w.u8(f.backend);
  w.u8(f.mode);
  w.u8(static_cast<std::uint8_t>(f.kernel));
  w.u8(0);  // reserved
  w.f64(f.pass_rate);
  w.u64(f.seed);
  w.u64(f.wedge_prefix);
  w.u32(f.feed_capacity);
  w.u32(f.egress_capacity);
  w.u32(f.batch);
  w.f64(f.weight);
  w.str(f.tenant);
  w.str(f.topology);
}

namespace {

// The Open body, shared by Open and Restore (whose payload is an Open body
// plus the snapshot bytes): reads every field and applies the bounds, but
// leaves the end-of-payload check to the caller.
std::optional<OpenFrame> read_open(Reader& r) {
  OpenFrame f;
  f.backend = r.u8();
  f.mode = r.u8();
  const std::uint8_t kernel = r.u8();
  (void)r.u8();
  f.pass_rate = r.f64();
  f.seed = r.u64();
  f.wedge_prefix = r.u64();
  f.feed_capacity = r.u32();
  f.egress_capacity = r.u32();
  f.batch = r.u32();
  f.weight = r.f64();
  f.tenant = r.str();
  f.topology = r.str();
  if (!r.ok()) return std::nullopt;
  if (!valid_backend(f.backend) || f.mode > 2 ||
      kernel > static_cast<std::uint8_t>(KernelKind::Wedge))
    return std::nullopt;
  // Resource bounds: port-channel capacities and the firing quantum are
  // allocation knobs a client must not be able to blow up.
  if (f.feed_capacity == 0 || f.feed_capacity > (1u << 20) ||
      f.egress_capacity == 0 || f.egress_capacity > (1u << 20) ||
      f.batch == 0 || f.batch > 4096)
    return std::nullopt;
  if (!(f.pass_rate >= 0.0 && f.pass_rate <= 1.0)) return std::nullopt;
  // The reserved weight is outside input all the same; NaN fails this too.
  if (!(f.weight >= 0.0 && f.weight <= 1e6)) return std::nullopt;
  f.kernel = static_cast<KernelKind>(kernel);
  return f;
}

}  // namespace

std::optional<OpenFrame> decode_open(const std::uint8_t* p, std::size_t n) {
  Reader r(p, n);
  auto f = read_open(r);
  if (!f || !r.done()) return std::nullopt;
  return f;
}

void encode(const OpenOkFrame& f, Writer& w) {
  w.u16(f.inputs);
  w.u16(f.outputs);
  w.u8(f.cache_hit);
}

std::optional<OpenOkFrame> decode_open_ok(const std::uint8_t* p,
                                          std::size_t n) {
  Reader r(p, n);
  OpenOkFrame f;
  f.inputs = r.u16();
  f.outputs = r.u16();
  f.cache_hit = r.u8();
  if (!r.done()) return std::nullopt;
  return f;
}

void encode(const PushBatchFrame& f, Writer& w) {
  w.u16(f.port);
  w.u16(0);  // reserved
  w.u32(static_cast<std::uint32_t>(f.values.size()));
  for (const auto& v : f.values) w.value(v);
}

std::optional<PushBatchFrame> decode_push_batch(const std::uint8_t* p,
                                                std::size_t n) {
  Reader r(p, n);
  PushBatchFrame f;
  f.port = r.u16();
  (void)r.u16();
  const std::uint32_t count = r.u32();
  if (!r.ok() || count > kMaxBatchItems || count > r.remaining())
    return std::nullopt;  // each value is at least 1 byte
  f.values.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) f.values.push_back(r.value());
  if (!r.done()) return std::nullopt;
  return f;
}

void encode(const PushAckFrame& f, Writer& w) {
  w.u32(f.accepted);
  w.u8(f.ended);
}

std::optional<PushAckFrame> decode_push_ack(const std::uint8_t* p,
                                            std::size_t n) {
  Reader r(p, n);
  PushAckFrame f;
  f.accepted = r.u32();
  f.ended = r.u8();
  if (!r.done()) return std::nullopt;
  return f;
}

void encode(const PollFrame& f, Writer& w) {
  w.u16(f.port);
  w.u16(0);  // reserved
  w.u32(f.max_items);
}

std::optional<PollFrame> decode_poll(const std::uint8_t* p, std::size_t n) {
  Reader r(p, n);
  PollFrame f;
  f.port = r.u16();
  (void)r.u16();
  f.max_items = r.u32();
  if (!r.done()) return std::nullopt;
  return f;
}

void encode(const DeliverFrame& f, Writer& w) {
  w.u16(f.port);
  w.u8(f.ended);
  w.u8(0);  // reserved
  w.u32(static_cast<std::uint32_t>(f.items.size()));
  for (const auto& item : f.items) {
    w.u64(item.seq);
    w.value(item.value);
  }
}

std::optional<DeliverFrame> decode_deliver(const std::uint8_t* p,
                                           std::size_t n) {
  Reader r(p, n);
  DeliverFrame f;
  f.port = r.u16();
  f.ended = r.u8();
  (void)r.u8();
  const std::uint32_t count = r.u32();
  if (!r.ok() || count > kMaxBatchItems || count > r.remaining() / 8)
    return std::nullopt;  // each item is at least 9 bytes
  f.items.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    DeliverFrame::Item item;
    item.seq = r.u64();
    item.value = r.value();
    f.items.push_back(std::move(item));
  }
  if (!r.done()) return std::nullopt;
  return f;
}

void encode(const CloseFrame& f, Writer& w) { w.u16(f.port); }

std::optional<CloseFrame> decode_close(const std::uint8_t* p, std::size_t n) {
  Reader r(p, n);
  CloseFrame f;
  f.port = r.u16();
  if (!r.done()) return std::nullopt;
  return f;
}

void encode(const VerdictFrame& f, Writer& w) {
  const exec::RunReport& rep = f.report;
  w.u8(static_cast<std::uint8_t>(rep.backend));
  w.u8(rep.completed ? 1 : 0);
  w.u8(rep.deadlocked ? 1 : 0);
  w.u8(0);  // reserved
  w.u64(rep.sweeps);
  w.f64(rep.wall_seconds);
  w.u32(static_cast<std::uint32_t>(rep.edges.size()));
  for (const auto& e : rep.edges) {
    w.u64(e.data);
    w.u64(e.dummies);
    w.i64(e.max_occupancy);
  }
  w.u32(static_cast<std::uint32_t>(rep.fires.size()));
  for (const auto v : rep.fires) w.u64(v);
  w.u32(static_cast<std::uint32_t>(rep.sink_data.size()));
  for (const auto v : rep.sink_data) w.u64(v);
  w.str(rep.state_dump);
}

std::optional<VerdictFrame> decode_verdict(const std::uint8_t* p,
                                           std::size_t n) {
  Reader r(p, n);
  VerdictFrame f;
  exec::RunReport& rep = f.report;
  const std::uint8_t backend = r.u8();
  rep.completed = r.u8() != 0;
  rep.deadlocked = r.u8() != 0;
  (void)r.u8();
  rep.sweeps = r.u64();
  rep.wall_seconds = r.f64();
  const std::uint32_t edges = r.u32();
  if (!r.ok() || !valid_backend(backend) || edges > kMaxVectorLen ||
      edges > r.remaining() / 24)
    return std::nullopt;
  rep.backend = static_cast<exec::Backend>(backend);
  rep.edges.reserve(edges);
  for (std::uint32_t i = 0; i < edges; ++i) {
    exec::EdgeTraffic e;
    e.data = r.u64();
    e.dummies = r.u64();
    e.max_occupancy = r.i64();
    rep.edges.push_back(e);
  }
  const std::uint32_t fires = r.u32();
  if (!r.ok() || fires > kMaxVectorLen || fires > r.remaining() / 8)
    return std::nullopt;
  rep.fires.reserve(fires);
  for (std::uint32_t i = 0; i < fires; ++i) rep.fires.push_back(r.u64());
  const std::uint32_t sinks = r.u32();
  if (!r.ok() || sinks > kMaxVectorLen || sinks > r.remaining() / 8)
    return std::nullopt;
  rep.sink_data.reserve(sinks);
  for (std::uint32_t i = 0; i < sinks; ++i) rep.sink_data.push_back(r.u64());
  rep.state_dump = r.str();
  if (!r.done()) return std::nullopt;
  return f;
}

void encode(const StatsOkFrame& f, Writer& w) { w.str(f.prometheus); }

std::optional<StatsOkFrame> decode_stats_ok(const std::uint8_t* p,
                                            std::size_t n) {
  Reader r(p, n);
  StatsOkFrame f;
  f.prometheus = r.str();
  if (!r.done()) return std::nullopt;
  return f;
}

void encode(const ErrorFrame& f, Writer& w) {
  w.u32(static_cast<std::uint32_t>(f.code));
  w.str(f.message);
  w.u8(f.has_cost);
  w.u64(f.predicted_slots);
  w.u64(f.predicted_bytes);
  w.u64(f.predicted_nodes);
  w.f64(f.predicted_dummy_ratio);
}

std::optional<ErrorFrame> decode_error(const std::uint8_t* p, std::size_t n) {
  Reader r(p, n);
  ErrorFrame f;
  const std::uint32_t code = r.u32();
  f.message = r.str();
  f.has_cost = r.u8();
  f.predicted_slots = r.u64();
  f.predicted_bytes = r.u64();
  f.predicted_nodes = r.u64();
  f.predicted_dummy_ratio = r.f64();
  if (!r.done()) return std::nullopt;
  if (code < static_cast<std::uint32_t>(ErrorCode::BadMagic) ||
      code > static_cast<std::uint32_t>(ErrorCode::AdmissionRejected))
    return std::nullopt;
  f.code = static_cast<ErrorCode>(code);
  return f;
}

void encode(const SnapshotOkFrame& f, Writer& w) {
  w.u8(f.complete);
  w.str(f.snapshot);
}

std::optional<SnapshotOkFrame> decode_snapshot_ok(const std::uint8_t* p,
                                                  std::size_t n) {
  Reader r(p, n);
  SnapshotOkFrame f;
  f.complete = r.u8();
  f.snapshot = r.str();
  if (!r.done()) return std::nullopt;
  if (f.complete == 0 && !f.snapshot.empty()) return std::nullopt;
  if (f.complete != 0 && f.snapshot.empty()) return std::nullopt;
  return f;
}

void encode(const RestoreFrame& f, Writer& w) {
  encode(f.open, w);
  w.str(f.snapshot);
}

std::optional<RestoreFrame> decode_restore(const std::uint8_t* p,
                                           std::size_t n) {
  Reader r(p, n);
  auto open = read_open(r);
  if (!open) return std::nullopt;
  RestoreFrame f;
  f.open = std::move(*open);
  f.snapshot = r.str();
  if (!r.done() || f.snapshot.empty()) return std::nullopt;
  return f;
}

void encode(const RestoreOkFrame& f, Writer& w) {
  w.u16(f.inputs);
  w.u16(f.outputs);
  w.u8(f.cache_hit);
  w.u64(f.epoch);
}

std::optional<RestoreOkFrame> decode_restore_ok(const std::uint8_t* p,
                                                std::size_t n) {
  Reader r(p, n);
  RestoreOkFrame f;
  f.inputs = r.u16();
  f.outputs = r.u16();
  f.cache_hit = r.u8();
  f.epoch = r.u64();
  if (!r.done()) return std::nullopt;
  return f;
}

std::vector<std::uint8_t> make_frame(FrameType type, std::uint16_t stream,
                                     Writer payload) {
  std::vector<std::uint8_t> body = payload.take();
  FrameHeader h;
  h.length = static_cast<std::uint32_t>(body.size());
  h.type = type;
  h.stream = stream;
  std::vector<std::uint8_t> out(kHeaderSize + body.size());
  encode_header(h, out.data());
  if (!body.empty())
    std::memcpy(out.data() + kHeaderSize, body.data(), body.size());
  return out;
}

}  // namespace sdaf::net
