// The socket front door: one poll()-driven event loop multiplexing many
// framed client connections onto pooled exec::Streams. Design constraints,
// in order:
//
//   1. The loop never hard-blocks on the data plane. Every server-issued
//      ingress push is deadline-bounded (InputPort::push_batch_for with
//      ServerOptions::push_wait), so a client that wedges its own stream
//      (avoidance off) cannot wedge the daemon: the push times out, the
//      client gets a short PushAck, and every other connection keeps being
//      served. Egress is poll-driven and never blocks by construction.
//   2. Adversarial bytes never crash or leak. A malformed frame (bad
//      header, bad payload, protocol-state violation) earns an Error frame
//      and connection teardown; tearing down a connection destroys its
//      streams, and an unfinished exec::Stream finishes itself on
//      destruction -- ports closed, verdict discarded, pool slots freed.
//   3. Topology reuse is cheap: Open compiles through the shared
//      core::CompileCache (Session::process_cache() by default), so many
//      clients opening the same topology skip CS4 decomposition and
//      interval computation; OpenOk reports the hit so clients can see it.
//
// Pooled streams share one runtime::PoolExecutor; a Sim stream (when the
// client asks for the reference backend) sweeps on the server's own
// thread. The retired backend byte 1 is rejected as a malformed frame.
// Lifecycle: start() binds, run() serves until request_stop(), and
// request_drain() begins a graceful shutdown -- listeners close, live
// connections get drain_grace to Finish, then the loop exits and teardown
// aborts whatever remains. Both request_* calls are async-signal-safe
// (plain atomic stores), so sdafd points its SIGTERM/SIGINT handlers
// straight at them.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/net/frame.h"
#include "src/net/socket.h"
#include "src/qos/admission.h"

namespace sdaf::core {
class CompileCache;
}  // namespace sdaf::core

namespace sdaf::net {

// The most undirected cycles an Open may have counted for a non-CS4
// topology (core::CompileOptions::cycle_limit; the library default is
// 1 << 22). The count runs on the event loop, where the default spends
// ~0.3 s on the 11-node complete DAG before refusing it; at this bound a
// refusal costs a few milliseconds. A topology past it gets
// Error(BadTopology), and the diagnostic names the limit.
inline constexpr std::size_t kOpenCycleLimit = std::size_t{1} << 16;

struct ServerOptions {
  // Listeners: any subset; start() fails if none is configured or a bind
  // fails. tcp_port 0 = ephemeral (tcp_port() reports the real one).
  std::string unix_path;
  bool tcp = false;
  std::string host = "127.0.0.1";
  std::uint16_t tcp_port = 0;

  // Workers for the shared pool all Pooled-backend streams run on
  // (0 = hardware concurrency).
  std::size_t pool_workers = 0;
  // Upper bound on any single server-issued ingress push; constraint #1.
  std::chrono::milliseconds push_wait{50};
  // How long live connections get to finish after request_drain().
  std::chrono::milliseconds drain_grace{2000};
  // Per-Poll delivery cap (a Poll asking for more is clamped).
  std::uint32_t max_poll_items = 4096;
  // Compile cache consulted by Open; null = Session::process_cache().
  core::CompileCache* cache = nullptr;

  // --- multi-tenant QoS (sdaf::qos, see docs/QOS.md) --------------------
  // Admission budgets every Open (and Restore) must fit under; all-zero =
  // admit everything. A refused open earns a soft AdmissionRejected Error
  // carrying the predicted cost -- the connection survives.
  qos::Budgets budgets;
  // Per-tenant in-flight credit window: how many data items one tenant may
  // have pushed-but-unconsumed across all its streams before its pushes
  // park. 0 = unlimited (no per-tenant backpressure).
  std::uint64_t tenant_credits = 0;
};

// Monotonic service counters, exported as sdafd_* Prometheus families on
// the Stats page next to the per-stream sdaf_* families.
struct ServiceStats {
  std::uint64_t connections_total = 0;
  std::uint64_t connections_open = 0;
  std::uint64_t streams_total = 0;
  std::uint64_t streams_open = 0;
  std::uint64_t frames_total = 0;
  std::uint64_t errors_total = 0;
  std::uint64_t items_in_total = 0;
  std::uint64_t items_out_total = 0;
  std::uint64_t push_timeouts_total = 0;  // short PushAcks (constraint #1)
  std::uint64_t compile_cache_hits_total = 0;
  std::uint64_t snapshots_total = 0;  // completed barrier snapshots served
  std::uint64_t restores_total = 0;   // streams rehydrated via Restore
  // Streams torn down because their connection dropped mid-stream (peer
  // vanished without Finish): input ports aborted, session reaped.
  std::uint64_t sessions_aborted_total = 0;
  // accept() failed for want of a file descriptor (EMFILE/ENFILE): the
  // listeners are left out of poll until a connection closes or a short
  // back-off passes, instead of spinning on the still-pending connection.
  std::uint64_t accept_fd_exhausted_total = 0;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds the configured listeners. false = nothing could be bound (the
  // reason is on stderr).
  [[nodiscard]] bool start();
  // Serves until request_stop(), or request_drain() + (all connections
  // gone or drain_grace elapsed). Call after start().
  void run();

  // Async-signal-safe shutdown triggers (atomic stores only).
  void request_drain() { drain_.store(true, std::memory_order_release); }
  void request_stop() { stop_.store(true, std::memory_order_release); }

  [[nodiscard]] std::uint16_t tcp_port() const;
  [[nodiscard]] const std::string& unix_path() const;
  [[nodiscard]] ServiceStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::atomic<bool> drain_{false};
  std::atomic<bool> stop_{false};
};

}  // namespace sdaf::net
