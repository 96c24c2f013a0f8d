#include "src/net/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <utility>

#include "src/ckpt/snapshot.h"
#include "src/core/compile_cache.h"
#include "src/exec/session.h"
#include "src/graph/io.h"
#include "src/net/workload.h"
#include "src/obs/export.h"
#include "src/qos/cost.h"
#include "src/qos/credit.h"
#include "src/runtime/pool_executor.h"

namespace sdaf::net {

namespace {

// Read-buffer hard cap: one maximal frame. Reads never take more than the
// room left, and every complete frame is handled before the next read, so
// a peer that streams bytes without ever completing a frame is bounded by
// this -- and a maximal frame pipelined with more still fits.
constexpr std::size_t kMaxReadBuffer = kMaxPayload + kHeaderSize;

// Write-backlog bound: a connection stops dispatching frames (and drops
// POLLIN) while this many response bytes are unflushed, so a peer that
// pipelines requests without reading its replies is backpressured through
// its own socket instead of growing the server's write buffer. The backlog
// can overshoot by at most one response.
constexpr std::size_t kMaxWriteBacklog = kMaxReadBuffer;

// One server-side stream: the graph is owned here (exec::Session keeps a
// reference), so the whole bundle lives and dies with the connection
// entry. Heap-allocated and never moved -- Session's graph reference and
// Stream's Core pointers stay stable.
struct ServerStream {
  StreamGraph graph;
  OpenFrame spec;
  std::shared_ptr<const core::CompileResult> compiled;
  std::unique_ptr<exec::Session> session;
  std::unique_ptr<exec::Stream> stream;
  std::uint64_t id = 0;  // server-global, for metrics disambiguation
};

struct Conn {
  Fd fd;
  std::uint64_t id = 0;
  bool saw_hello = false;
  // Error sent: flush the write buffer, then close. No further frames are
  // processed (whatever else the peer pipelined is discarded).
  bool closing = false;
  std::vector<std::uint8_t> rbuf;
  std::vector<std::uint8_t> wbuf;
  std::size_t wpos = 0;  // flushed prefix of wbuf
  std::map<std::uint16_t, std::unique_ptr<ServerStream>> streams;

  [[nodiscard]] bool backlogged() const {
    return wbuf.size() - wpos >= kMaxWriteBacklog;
  }
};

// ServiceStats mirror with relaxed atomic fields: every counter is mutated
// only on the server thread, but Server::stats() reads from arbitrary
// threads (test wait-loops poll it), so the fields must be atomic. Field
// names match ServiceStats so the ++/+= sites read naturally; relaxed is
// enough -- these are diagnostics, not synchronization.
struct AtomicServiceStats {
  std::atomic<std::uint64_t> connections_total{0};
  std::atomic<std::uint64_t> connections_open{0};
  std::atomic<std::uint64_t> streams_total{0};
  std::atomic<std::uint64_t> streams_open{0};
  std::atomic<std::uint64_t> frames_total{0};
  std::atomic<std::uint64_t> errors_total{0};
  std::atomic<std::uint64_t> items_in_total{0};
  std::atomic<std::uint64_t> items_out_total{0};
  std::atomic<std::uint64_t> push_timeouts_total{0};
  std::atomic<std::uint64_t> compile_cache_hits_total{0};
  std::atomic<std::uint64_t> snapshots_total{0};
  std::atomic<std::uint64_t> restores_total{0};
  std::atomic<std::uint64_t> sessions_aborted_total{0};
  std::atomic<std::uint64_t> accept_fd_exhausted_total{0};

  [[nodiscard]] ServiceStats snapshot() const {
    ServiceStats s;
    s.connections_total = connections_total.load(std::memory_order_relaxed);
    s.connections_open = connections_open.load(std::memory_order_relaxed);
    s.streams_total = streams_total.load(std::memory_order_relaxed);
    s.streams_open = streams_open.load(std::memory_order_relaxed);
    s.frames_total = frames_total.load(std::memory_order_relaxed);
    s.errors_total = errors_total.load(std::memory_order_relaxed);
    s.items_in_total = items_in_total.load(std::memory_order_relaxed);
    s.items_out_total = items_out_total.load(std::memory_order_relaxed);
    s.push_timeouts_total =
        push_timeouts_total.load(std::memory_order_relaxed);
    s.compile_cache_hits_total =
        compile_cache_hits_total.load(std::memory_order_relaxed);
    s.snapshots_total = snapshots_total.load(std::memory_order_relaxed);
    s.restores_total = restores_total.load(std::memory_order_relaxed);
    s.sessions_aborted_total =
        sessions_aborted_total.load(std::memory_order_relaxed);
    s.accept_fd_exhausted_total =
        accept_fd_exhausted_total.load(std::memory_order_relaxed);
    return s;
  }
};

}  // namespace

struct Server::Impl {
  ServerOptions options;
  Server* self = nullptr;
  Fd tcp_listener;
  Fd unix_listener;
  std::uint16_t tcp_port = 0;
  std::unique_ptr<runtime::PoolExecutor> pool;
  core::CompileCache* cache = nullptr;
  std::vector<std::unique_ptr<Conn>> conns;
  AtomicServiceStats stats;
  std::uint64_t next_conn_id = 1;
  std::uint64_t next_stream_id = 1;
  // Set while accept() is out of file descriptors (see accept_from).
  static constexpr std::chrono::milliseconds kAcceptBackoff{50};
  std::optional<std::chrono::steady_clock::time_point> accept_paused_until;
  // QoS plane: admission ledger over ServerOptions::budgets, plus one
  // credit gauge per tenant (shared across all that tenant's streams, so
  // the in-flight window is per tenant, not per stream). Both outlive
  // every stream -- declared before `conns` would also work, but teardown
  // order is already safe: run() clears conns before Impl destructs.
  qos::Admission admission;
  qos::TenantTable tenants;

  explicit Impl(ServerOptions opts)
      : options(std::move(opts)),
        admission(options.budgets),
        tenants(options.tenant_credits) {}

  [[nodiscard]] bool draining() const {
    return self->drain_.load(std::memory_order_acquire);
  }
  [[nodiscard]] bool stopping() const {
    return self->stop_.load(std::memory_order_acquire);
  }

  bool start() {
    if (options.unix_path.empty() && !options.tcp) {
      std::fprintf(stderr, "sdafd: no listener configured\n");
      return false;
    }
    if (!options.unix_path.empty()) {
      unix_listener = listen_unix(options.unix_path);
      if (!unix_listener.valid()) {
        std::fprintf(stderr, "sdafd: cannot listen on unix socket %s: %s\n",
                     options.unix_path.c_str(), std::strerror(errno));
        return false;
      }
      (void)set_nonblocking(unix_listener, true);
    }
    if (options.tcp) {
      tcp_listener = listen_tcp(options.host, options.tcp_port);
      if (!tcp_listener.valid()) {
        std::fprintf(stderr, "sdafd: cannot listen on %s:%u: %s\n",
                     options.host.c_str(), options.tcp_port,
                     std::strerror(errno));
        return false;
      }
      (void)set_nonblocking(tcp_listener, true);
      tcp_port = bound_port(tcp_listener);
    }
    runtime::PoolExecutor::Options popts;
    popts.workers = options.pool_workers;
    pool = std::make_unique<runtime::PoolExecutor>(popts);
    cache = options.cache != nullptr ? options.cache
                                     : &exec::Session::process_cache();
    return true;
  }

  // --- outbound ---------------------------------------------------------

  void queue_frame(Conn& c, FrameType type, std::uint16_t stream,
                   Writer payload) {
    const std::vector<std::uint8_t> frame =
        make_frame(type, stream, std::move(payload));
    c.wbuf.insert(c.wbuf.end(), frame.begin(), frame.end());
  }

  void queue_error(Conn& c, std::uint16_t stream, ErrorCode code,
                   std::string message) {
    ++stats.errors_total;
    ErrorFrame e;
    e.code = code;
    e.message = std::move(message);
    Writer w;
    encode(e, w);
    queue_frame(c, FrameType::Error, stream, std::move(w));
    // Draining and AdmissionRejected are soft refusals: the Open is
    // rejected but the connection stays up -- in-flight streams can still
    // Finish (the point of a graceful drain), and an over-budget tenant
    // may retry a cheaper open. Every other error means the peer is broken
    // or hostile, and the connection goes down with it.
    if (code != ErrorCode::Draining && code != ErrorCode::AdmissionRejected)
      c.closing = true;
  }

  void queue_admission_rejected(Conn& c, std::uint16_t stream,
                                const qos::Rejection& rej) {
    ++stats.errors_total;
    ErrorFrame e;
    e.code = ErrorCode::AdmissionRejected;
    e.message = rej.reason;
    e.has_cost = 1;
    e.predicted_slots = rej.predicted.channel_slots;
    e.predicted_bytes = rej.predicted.channel_bytes;
    e.predicted_nodes = rej.predicted.nodes;
    e.predicted_dummy_ratio = rej.predicted.dummy_overhead_ratio;
    Writer w;
    encode(e, w);
    queue_frame(c, FrameType::Error, stream, std::move(w));
    // Soft, like Draining: connection survives, the stream id stays free.
  }

  // Flushes as much of the write buffer as the socket takes right now.
  // false = hard error, drop the connection.
  bool flush(Conn& c) {
    while (c.wpos < c.wbuf.size()) {
      const ssize_t rc = ::send(c.fd.get(), c.wbuf.data() + c.wpos,
                                c.wbuf.size() - c.wpos, MSG_NOSIGNAL);
      if (rc > 0) {
        c.wpos += static_cast<std::size_t>(rc);
        continue;
      }
      if (rc < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        // Drop the flushed prefix once it is as large as the bound, so a
        // peer that reads slowly but never fully catches up cannot grow
        // the buffer either.
        if (c.wpos >= kMaxWriteBacklog) {
          c.wbuf.erase(c.wbuf.begin(),
                       c.wbuf.begin() + static_cast<std::ptrdiff_t>(c.wpos));
          c.wpos = 0;
        }
        return true;
      }
      if (rc < 0 && errno == EINTR) continue;
      return false;
    }
    c.wbuf.clear();
    c.wpos = 0;
    return true;
  }

  // --- frame handlers ---------------------------------------------------

  void handle_hello(Conn& c, std::uint16_t stream, const std::uint8_t* p,
                    std::size_t n) {
    const auto f = decode_hello(p, n);
    if (!f.has_value() || stream != 0) {
      queue_error(c, 0, ErrorCode::BadFrame, "malformed Hello");
      return;
    }
    if (f->magic != kMagic) {
      queue_error(c, 0, ErrorCode::BadMagic, "not an sdaf client");
      return;
    }
    if (f->version_min > kProtocolVersion ||
        f->version_max < kProtocolVersion) {
      queue_error(c, 0, ErrorCode::Version,
                  "server speaks protocol version 1");
      return;
    }
    c.saw_hello = true;
    HelloOkFrame ok;
    ok.version = kProtocolVersion;
    Writer w;
    encode(ok, w);
    queue_frame(c, FrameType::HelloOk, 0, std::move(w));
  }

  // Shared by Open and Restore: parse + compile the topology, build the
  // session, open (snap == nullptr) or rehydrate the stream, register it
  // and reply OpenOk/RestoreOk. On failure the error is already queued.
  void open_stream(Conn& c, std::uint16_t stream, OpenFrame f,
                   const ckpt::StreamSnapshot* snap) {
    if (stream == 0 || c.streams.contains(stream)) {
      queue_error(c, stream, ErrorCode::BadStream,
                  "stream id 0 or already open");
      return;
    }
    if (draining()) {
      queue_error(c, stream, ErrorCode::Draining, "server is draining");
      return;
    }
    auto graph = parse_topology(f.topology);
    if (!graph.has_value()) {
      queue_error(c, stream, ErrorCode::BadTopology,
                  "topology rejected (parse, bounds, or cycle)");
      return;
    }

    auto s = std::make_unique<ServerStream>();
    s->graph = std::move(*graph);
    s->spec = std::move(f);
    s->id = next_stream_id++;

    exec::StreamSpec ss;
    ss.run.backend = static_cast<exec::Backend>(s->spec.backend);
    ss.run.mode = static_cast<runtime::DummyMode>(s->spec.mode);
    ss.run.tenant = s->spec.tenant;
    ss.run.batch = s->spec.batch;
    ss.run.pool = pool.get();
    ss.feed_capacity = s->spec.feed_capacity;
    ss.egress_capacity = s->spec.egress_capacity;

    bool cache_hit = false;
    if (ss.run.mode != runtime::DummyMode::None) {
      core::CompileOptions copts;
      copts.cycle_limit = kOpenCycleLimit;
      copts.algorithm = ss.run.mode == runtime::DummyMode::NonPropagation
                            ? core::Algorithm::NonPropagation
                            : core::Algorithm::Propagation;
      const std::uint64_t hits_before = cache->stats().hits;
      s->compiled = cache->get_or_compile(s->graph, copts);
      cache_hit = cache->stats().hits > hits_before;
      if (cache_hit) ++stats.compile_cache_hits_total;
      if (s->compiled == nullptr || !s->compiled->ok) {
        const std::string why = s->compiled != nullptr
                                    ? s->compiled->diagnostics
                                    : std::string("compile failed");
        queue_error(c, stream, ErrorCode::BadTopology, why);
        return;
      }
      ss.run.apply(*s->compiled);
    }

    // Admission: predict the stream's footprint from its compiled
    // intervals and buffer bounds, and reserve it before ANY channel
    // memory is allocated or task scheduled. The lease's deleter returns
    // the reservation when the Stream is destroyed (Finish, connection
    // drop, or teardown) -- no hand-paired release.
    const qos::TenantCost cost = qos::estimate(s->graph, ss.run.intervals);
    if (auto rejected = admission.admit(ss.run.tenant, cost)) {
      queue_admission_rejected(c, stream, *rejected);
      return;
    }
    ss.lease = std::shared_ptr<void>(
        nullptr, [this, tenant = ss.run.tenant, cost](void*) {
          admission.release(tenant, cost);
        });
    // The tenant's shared credit gauge (unlimited gauges are normalized
    // away inside the stream core).
    ss.run.credits = tenants.gauge(ss.run.tenant);

    s->session = std::make_unique<exec::Session>(
        s->graph, make_kernels(s->graph, s->spec));
    if (snap == nullptr) {
      s->stream = std::make_unique<exec::Stream>(s->session->open(ss));
    } else {
      auto restored = s->session->restore(ss, *snap);
      if (!restored.has_value()) {
        // Wrong topology/workload/mode for the blob, wrong version, or an
        // internally inconsistent cut: refused before anything runs.
        queue_error(c, stream, ErrorCode::BadState,
                    "snapshot does not match this topology/mode");
        return;
      }
      s->stream = std::make_unique<exec::Stream>(std::move(*restored));
      ++stats.restores_total;
    }

    exec::Stream& live = *s->stream;
    c.streams.emplace(stream, std::move(s));
    ++stats.streams_total;
    ++stats.streams_open;

    Writer w;
    if (snap == nullptr) {
      OpenOkFrame ok;
      ok.inputs = static_cast<std::uint16_t>(live.input_count());
      ok.outputs = static_cast<std::uint16_t>(live.output_count());
      ok.cache_hit = cache_hit ? 1 : 0;
      encode(ok, w);
      queue_frame(c, FrameType::OpenOk, stream, std::move(w));
    } else {
      RestoreOkFrame ok;
      ok.inputs = static_cast<std::uint16_t>(live.input_count());
      ok.outputs = static_cast<std::uint16_t>(live.output_count());
      ok.cache_hit = cache_hit ? 1 : 0;
      ok.epoch = live.epoch();
      encode(ok, w);
      queue_frame(c, FrameType::RestoreOk, stream, std::move(w));
    }
  }

  void handle_open(Conn& c, std::uint16_t stream, const std::uint8_t* p,
                   std::size_t n) {
    auto f = decode_open(p, n);
    if (!f.has_value()) {
      queue_error(c, stream, ErrorCode::BadFrame, "malformed Open");
      return;
    }
    open_stream(c, stream, std::move(*f), nullptr);
  }

  void handle_restore(Conn& c, std::uint16_t stream, const std::uint8_t* p,
                      std::size_t n) {
    auto f = decode_restore(p, n);
    if (!f.has_value()) {
      queue_error(c, stream, ErrorCode::BadFrame, "malformed Restore");
      return;
    }
    const auto snap = ckpt::deserialize(
        reinterpret_cast<const std::uint8_t*>(f->snapshot.data()),
        f->snapshot.size());
    if (!snap.has_value()) {
      queue_error(c, stream, ErrorCode::BadFrame,
                  "snapshot bytes rejected (version or malformation)");
      return;
    }
    open_stream(c, stream, std::move(f->open), &*snap);
  }

  void handle_snapshot(Conn& c, std::uint16_t stream, std::size_t n) {
    if (n != 0) {
      queue_error(c, stream, ErrorCode::BadFrame,
                  "Snapshot carries no payload");
      return;
    }
    ServerStream* s = find_stream(c, stream);
    if (s == nullptr) return;
    // One non-blocking begin-or-poll step (constraint #1: the loop never
    // parks on a barrier). The first Snapshot begins the barrier; a false
    // begin means one is already pending, which is exactly the poll case.
    (void)s->stream->snapshot_begin();
    SnapshotOkFrame ok;
    if (auto snap = s->stream->snapshot_poll()) {
      const std::vector<std::uint8_t> bytes = ckpt::serialize(*snap);
      if (bytes.size() + kHeaderSize > kMaxPayload) {
        queue_error(c, stream, ErrorCode::TooLarge,
                    "serialized snapshot exceeds the frame payload cap");
        return;
      }
      ok.complete = 1;
      ok.snapshot.assign(reinterpret_cast<const char*>(bytes.data()),
                         bytes.size());
      ++stats.snapshots_total;
    }
    Writer w;
    encode(ok, w);
    queue_frame(c, FrameType::SnapshotOk, stream, std::move(w));
  }

  [[nodiscard]] ServerStream* find_stream(Conn& c, std::uint16_t stream) {
    const auto it = c.streams.find(stream);
    if (it == c.streams.end()) {
      queue_error(c, stream, ErrorCode::BadStream, "unknown stream id");
      return nullptr;
    }
    return it->second.get();
  }

  void handle_push_batch(Conn& c, std::uint16_t stream, const std::uint8_t* p,
                         std::size_t n) {
    auto f = decode_push_batch(p, n);
    if (!f.has_value()) {
      queue_error(c, stream, ErrorCode::BadFrame, "malformed PushBatch");
      return;
    }
    ServerStream* s = find_stream(c, stream);
    if (s == nullptr) return;
    if (f->port >= s->stream->input_count()) {
      queue_error(c, stream, ErrorCode::BadPort, "input port out of range");
      return;
    }
    exec::InputPort& port = s->stream->input(f->port);
    PushAckFrame ack;
    if (port.closed()) {
      ack.ended = 1;
    } else {
      // Constraint #1: bounded occupation of the event loop, never a
      // hard block. A short acceptance is the flow-control signal; the
      // client retries the remainder.
      const std::size_t count = f->values.size();
      ack.accepted = static_cast<std::uint32_t>(
          port.push_batch_for(std::move(f->values), options.push_wait));
      stats.items_in_total += ack.accepted;
      if (ack.accepted < count) {
        ++stats.push_timeouts_total;
        if (port.closed()) ack.ended = 1;
      }
    }
    Writer w;
    encode(ack, w);
    queue_frame(c, FrameType::PushAck, stream, std::move(w));
  }

  void handle_poll(Conn& c, std::uint16_t stream, const std::uint8_t* p,
                   std::size_t n) {
    const auto f = decode_poll(p, n);
    if (!f.has_value()) {
      queue_error(c, stream, ErrorCode::BadFrame, "malformed Poll");
      return;
    }
    ServerStream* s = find_stream(c, stream);
    if (s == nullptr) return;
    if (f->port >= s->stream->output_count()) {
      queue_error(c, stream, ErrorCode::BadPort, "output port out of range");
      return;
    }
    exec::OutputPort& port = s->stream->output(f->port);
    DeliverFrame d;
    d.port = f->port;
    std::vector<exec::OutputPort::Item> items;
    const std::size_t max =
        std::min<std::uint32_t>(f->max_items, options.max_poll_items);
    (void)port.poll_batch(&items, max);
    d.items.reserve(items.size());
    for (auto& item : items) {
      DeliverFrame::Item out;
      out.seq = item.seq;
      out.value = std::move(item.value);
      d.items.push_back(std::move(out));
    }
    d.ended = port.ended() ? 1 : 0;
    stats.items_out_total += d.items.size();
    Writer w;
    encode(d, w);
    queue_frame(c, FrameType::Deliver, stream, std::move(w));
  }

  void handle_close(Conn& c, std::uint16_t stream, const std::uint8_t* p,
                    std::size_t n) {
    const auto f = decode_close(p, n);
    if (!f.has_value()) {
      queue_error(c, stream, ErrorCode::BadFrame, "malformed Close");
      return;
    }
    ServerStream* s = find_stream(c, stream);
    if (s == nullptr) return;
    if (f->port >= s->stream->input_count()) {
      queue_error(c, stream, ErrorCode::BadPort, "input port out of range");
      return;
    }
    s->stream->input(f->port).close();
    CloseFrame ok;
    ok.port = f->port;
    Writer w;
    encode(ok, w);
    queue_frame(c, FrameType::CloseOk, stream, std::move(w));
  }

  void handle_finish(Conn& c, std::uint16_t stream, std::size_t n) {
    if (n != 0) {
      queue_error(c, stream, ErrorCode::BadFrame, "Finish carries no payload");
      return;
    }
    ServerStream* s = find_stream(c, stream);
    if (s == nullptr) return;
    // finish() closes any open ports, drains the taps, and waits for the
    // exact verdict. With avoidance armed this returns promptly; on an
    // unprotected wedge it returns once deadlock is certified (sweep or
    // quiescence), which is the one deliberately-blocking call the
    // protocol exposes -- clients that closed every port and drained their
    // outputs (the Client::finish contract) see it return fast.
    VerdictFrame v;
    v.report = s->stream->finish();
    c.streams.erase(stream);
    --stats.streams_open;
    Writer w;
    encode(v, w);
    queue_frame(c, FrameType::Verdict, stream, std::move(w));
  }

  void handle_stats(Conn& c, std::uint16_t stream, std::size_t n) {
    if (n != 0 || stream != 0) {
      queue_error(c, stream, ErrorCode::BadFrame, "Stats carries no payload");
      return;
    }
    StatsOkFrame f;
    f.prometheus = stats_page();
    Writer w;
    encode(f, w);
    queue_frame(c, FrameType::StatsOk, 0, std::move(w));
  }

  [[nodiscard]] std::string stats_page() const {
    // Per-stream snapshots, merged into one exposition page (one TYPE per
    // family). Tenants are disambiguated per stream so two streams of the
    // same tenant never collide into duplicate series.
    std::vector<obs::MetricsSnapshot> snaps;
    for (const auto& c : conns) {
      for (const auto& [sid, s] : c->streams) {
        obs::MetricsSnapshot snap = s->stream->metrics();
        snap.tenant.tenant += '/';
        snap.tenant.tenant += std::to_string(s->id);
        snaps.push_back(std::move(snap));
      }
    }
    std::string page = obs::to_prometheus(snaps);

    // QoS families: the shared pool's per-tenant injector ledger,
    // the admission counters, and each tenant's credit window. All family
    // names are disjoint from the per-stream ones, so appending keeps the
    // one-TYPE-per-family rule intact.
    page += obs::tenant_sched_to_prometheus(pool->tenant_metrics());
    page += obs::scalars_to_prometheus(
        {{"sdaf_admission_admitted_total", "counter",
          "Streams admitted by the qos admission controller.",
          admission.admitted_total()},
         {"sdaf_admission_rejected_total", "counter",
          "Opens refused over budget by the qos admission controller.",
          admission.rejected_total()}});
    page += obs::credits_to_prometheus(tenants.entries());

    // Service-level families, appended after the per-stream ones (family
    // names are disjoint, so the one-TYPE-per-family rule holds).
    page += obs::scalars_to_prometheus({
        {"sdafd_connections_total", "counter", "Connections accepted.",
         stats.connections_total},
        {"sdafd_connections_open", "gauge", "Connections currently open.",
         stats.connections_open},
        {"sdafd_streams_total", "counter", "Streams opened.",
         stats.streams_total},
        {"sdafd_streams_open", "gauge", "Streams currently open.",
         stats.streams_open},
        {"sdafd_frames_total", "counter", "Frames processed.",
         stats.frames_total},
        {"sdafd_errors_total", "counter", "Error frames issued.",
         stats.errors_total},
        {"sdafd_items_in_total", "counter", "Items ingested via PushBatch.",
         stats.items_in_total},
        {"sdafd_items_out_total", "counter", "Items delivered via Deliver.",
         stats.items_out_total},
        {"sdafd_push_timeouts_total", "counter",
         "PushBatch calls that hit the server's push deadline.",
         stats.push_timeouts_total},
        {"sdafd_compile_cache_hits_total", "counter",
         "Opens whose topology hit the compile cache.",
         stats.compile_cache_hits_total},
        {"sdafd_snapshots_total", "counter",
         "Completed barrier snapshots served.", stats.snapshots_total},
        {"sdafd_restores_total", "counter", "Streams rehydrated via Restore.",
         stats.restores_total},
        {"sdafd_sessions_aborted_total", "counter",
         "Streams aborted because their connection dropped mid-stream.",
         stats.sessions_aborted_total},
        {"sdafd_accept_fd_exhausted_total", "counter",
         "Accepts refused for want of a file descriptor (EMFILE/ENFILE); "
         "each pauses the listeners briefly.",
         stats.accept_fd_exhausted_total},
    });
    return page;
  }

  void handle_frame(Conn& c, const FrameHeader& h, const std::uint8_t* p) {
    ++stats.frames_total;
    if (h.flags != 0) {
      queue_error(c, h.stream, ErrorCode::BadFrame, "nonzero flags");
      return;
    }
    if (!c.saw_hello && h.type != FrameType::Hello) {
      queue_error(c, h.stream, ErrorCode::BadState, "Hello first");
      return;
    }
    switch (h.type) {
      case FrameType::Hello:
        if (c.saw_hello) {
          queue_error(c, 0, ErrorCode::BadState, "duplicate Hello");
          return;
        }
        handle_hello(c, h.stream, p, h.length);
        return;
      case FrameType::Open:
        handle_open(c, h.stream, p, h.length);
        return;
      case FrameType::PushBatch:
        handle_push_batch(c, h.stream, p, h.length);
        return;
      case FrameType::Poll:
        handle_poll(c, h.stream, p, h.length);
        return;
      case FrameType::Close:
        handle_close(c, h.stream, p, h.length);
        return;
      case FrameType::Finish:
        handle_finish(c, h.stream, h.length);
        return;
      case FrameType::Stats:
        handle_stats(c, h.stream, h.length);
        return;
      case FrameType::Snapshot:
        handle_snapshot(c, h.stream, h.length);
        return;
      case FrameType::Restore:
        handle_restore(c, h.stream, p, h.length);
        return;
      default:
        // Server-to-client types arriving at the server, or anything else.
        queue_error(c, h.stream, ErrorCode::UnknownType,
                    "frame type not valid client-to-server");
        return;
    }
  }

  // Drains the socket into rbuf, handling complete frames chunk by chunk,
  // until the socket is empty, the connection is closing, or the write
  // backlog reaches its bound (the rest then waits in the socket). false =
  // connection is done (peer closed or hard error).
  bool read_and_dispatch(Conn& c) {
    std::uint8_t chunk[64 * 1024];
    while (!c.closing && !c.backlogged()) {
      // rbuf holds only a partial frame here, shorter than kMaxReadBuffer,
      // so the room is never zero.
      const std::size_t room =
          std::min(sizeof(chunk), kMaxReadBuffer - c.rbuf.size());
      const ssize_t rc = ::recv(c.fd.get(), chunk, room, 0);
      if (rc > 0) {
        c.rbuf.insert(c.rbuf.end(), chunk, chunk + rc);
        (void)dispatch(c);
        continue;
      }
      if (rc == 0) return false;  // orderly close
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      return false;
    }
    return true;
  }

  // Handles the complete frames in rbuf until it holds none, the
  // connection is closing, or the write backlog reaches its bound. Returns
  // whether it handled any.
  bool dispatch(Conn& c) {
    std::size_t pos = 0;
    while (!c.closing && !c.backlogged() &&
           c.rbuf.size() - pos >= kHeaderSize) {
      const auto h = decode_header(c.rbuf.data() + pos);
      if (!h.has_value()) {
        queue_error(c, 0, ErrorCode::BadFrame, "malformed frame header");
        break;
      }
      if (c.rbuf.size() - pos - kHeaderSize < h->length) break;  // partial
      handle_frame(c, *h, c.rbuf.data() + pos + kHeaderSize);
      pos += kHeaderSize + h->length;
    }
    if (pos > 0) c.rbuf.erase(c.rbuf.begin(), c.rbuf.begin() + pos);
    return pos > 0;
  }

  void accept_from(const Fd& listener) {
    for (;;) {
      int err = 0;
      Fd fd = accept_conn(listener, &err);
      if (!fd.valid()) {
        // Out of descriptors: the pending connection keeps the listener
        // readable, so polling it again would spin. Pause accepting until
        // a connection closes or the back-off passes.
        if (err == EMFILE || err == ENFILE) {
          ++stats.accept_fd_exhausted_total;
          accept_paused_until = std::chrono::steady_clock::now() +
                                kAcceptBackoff;
        }
        return;  // EAGAIN or another error: done for this round
      }
      if (!set_nonblocking(fd, true)) continue;
      set_nodelay(fd);
      auto conn = std::make_unique<Conn>();
      conn->fd = std::move(fd);
      conn->id = next_conn_id++;
      conns.push_back(std::move(conn));
      ++stats.connections_total;
      ++stats.connections_open;
    }
  }

  void drop_conn(std::size_t i) {
    // A connection that vanishes mid-stream (peer died, protocol
    // violation) aborts its streams: every input port is closed here --
    // the dynamic EOS that lets the flood complete and a wedge certify
    // promptly -- and destroying the entry then finishes each Stream
    // (taps drained, verdict discarded) and reaps its Session. No orphan
    // ever holds pool slots or channel memory.
    for (auto& [sid, s] : conns[i]->streams) {
      ++stats.sessions_aborted_total;
      for (std::size_t p = 0; p < s->stream->input_count(); ++p)
        s->stream->input(p).close();
    }
    stats.streams_open -= conns[i]->streams.size();
    conns.erase(conns.begin() + static_cast<std::ptrdiff_t>(i));
    --stats.connections_open;
    accept_paused_until.reset();  // a descriptor just came free
  }

  void run() {
    using Clock = std::chrono::steady_clock;
    std::optional<Clock::time_point> drain_deadline;
    bool listeners_open = true;
    while (!stopping()) {
      if (draining()) {
        if (listeners_open) {
          tcp_listener.reset();
          unix_listener.reset();
          listeners_open = false;
          drain_deadline = Clock::now() + options.drain_grace;
        }
        if (conns.empty() || Clock::now() >= *drain_deadline) break;
      }

      if (accept_paused_until.has_value() &&
          Clock::now() >= *accept_paused_until)
        accept_paused_until.reset();
      const bool accepting = listeners_open && !accept_paused_until;
      std::vector<pollfd> fds;
      fds.reserve(conns.size() + 2);
      if (accepting && tcp_listener.valid())
        fds.push_back({tcp_listener.get(), POLLIN, 0});
      if (accepting && unix_listener.valid())
        fds.push_back({unix_listener.get(), POLLIN, 0});
      // accept_from below grows `conns`; only these first n_polled entries
      // have a pollfd this iteration (newcomers are picked up on the next
      // one), so the revents walk must be bounded by n_polled, not by the
      // live conns.size().
      const std::size_t n_polled = conns.size();
      for (const auto& c : conns) {
        short events = c->closing || c->backlogged() ? 0 : POLLIN;
        if (c->wpos < c->wbuf.size()) events |= POLLOUT;
        fds.push_back({c->fd.get(), events, 0});
      }

      // While paused, wake for the back-off's end rather than a full tick.
      const int timeout_ms =
          accepting ? 100 : static_cast<int>(kAcceptBackoff.count());
      const int rc = ::poll(fds.data(), fds.size(), timeout_ms);
      if (rc < 0 && errno != EINTR) break;
      if (rc <= 0) continue;

      std::size_t idx = 0;
      if (accepting && tcp_listener.valid()) {
        if ((fds[idx].revents & POLLIN) != 0) accept_from(tcp_listener);
        ++idx;
      }
      if (accepting && unix_listener.valid()) {
        if ((fds[idx].revents & POLLIN) != 0) accept_from(unix_listener);
        ++idx;
      }

      // Walk backwards so drop_conn's erase cannot skip an entry.
      for (std::size_t k = n_polled; k-- > 0;) {
        Conn& c = *conns[k];
        const short revents = fds[idx + k].revents;
        bool alive = true;
        if ((revents & (POLLERR | POLLHUP | POLLNVAL)) != 0 &&
            (revents & POLLIN) == 0) {
          alive = false;
        }
        if (alive && (revents & POLLIN) != 0) alive = read_and_dispatch(c);
        // Frames a backlogged dispatch left in rbuf run as the backlog
        // drains, before the connection is polled for input again.
        while (alive && c.wpos < c.wbuf.size()) {
          alive = flush(c);
          if (!alive || c.backlogged() || !dispatch(c)) break;
        }
        if (alive && c.closing && c.wpos >= c.wbuf.size()) alive = false;
        if (!alive) drop_conn(k);
      }
    }
    // Teardown: every remaining connection (and its streams) unwinds here.
    conns.clear();
    tcp_listener.reset();
    unix_listener.reset();
    if (!options.unix_path.empty()) ::unlink(options.unix_path.c_str());
  }
};

Server::Server(ServerOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {
  impl_->self = this;
}

Server::~Server() = default;

bool Server::start() { return impl_->start(); }

void Server::run() { impl_->run(); }

std::uint16_t Server::tcp_port() const { return impl_->tcp_port; }

const std::string& Server::unix_path() const {
  return impl_->options.unix_path;
}

ServiceStats Server::stats() const { return impl_->stats.snapshot(); }

}  // namespace sdaf::net
