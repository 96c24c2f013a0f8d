// The one option/result surface for both execution backends. exec::RunSpec
// is what a run needs regardless of backend; exec::RunReport is the uniform
// result. The backends consume RunSpec directly and ignore the fields that
// do not apply to them.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/compile.h"
#include "src/runtime/trace.h"
#include "src/runtime/wrapper.h"

namespace sdaf::ckpt {
class SnapshotPlane;
struct StreamSnapshot;
}  // namespace sdaf::ckpt

namespace sdaf::obs {
class MetricsRegistry;
}  // namespace sdaf::obs

namespace sdaf::qos {
class CreditGauge;
}  // namespace sdaf::qos

namespace sdaf::runtime {
class BoundedChannel;
class PoolExecutor;
}  // namespace sdaf::runtime

namespace sdaf::exec {

// The values are wire bytes (docs/PROTOCOL.md). 1 is retired: it named a
// thread-per-node backend, and the frame decoders reject it.
enum class Backend : std::uint8_t {
  Sim = 0,     // deterministic single-threaded reference; exact sweep verdicts
  Pooled = 2,  // fixed worker pool; exact quiescence-based deadlock detection
};

[[nodiscard]] const char* to_string(Backend b);
[[nodiscard]] std::optional<Backend> backend_from_string(std::string_view s);

// External ports injected into a run: one ingress feed per source node and
// (optionally) one egress tap per sink node. Every source consumes a feed
// channel -- data messages fire the kernel (a payload-free message is a
// pure firing token: the kernel sees an empty input vector), EOS triggers
// the ordinary EOS flood. An egress tap is an appended out-slot on the
// sink node (infinite dummy interval, never continuation-forwarding):
// whatever the sink kernel emits on it streams to the caller, and a full
// tap backpressures the sink through the ordinary blocked-output machinery.
//
// The channels are borrowed, not owned, and must outlive the run.
// exec::Stream is the only producer, so a bound PortBinding always means
// live ports: a caller may still push or close, and backends treat
// quiescence with an open port as idle, not as a verdict.
struct PortBinding {
  std::vector<NodeId> source_nodes;                // in-degree-0, graph order
  std::vector<runtime::BoundedChannel*> feeds;     // feeds[i] -> source_nodes[i]
  std::vector<NodeId> sink_nodes;                  // out-degree-0, graph order
  std::vector<runtime::BoundedChannel*> egress;    // egress[j] -> sink_nodes[j];
                                                   // null = sink not tapped

  [[nodiscard]] runtime::BoundedChannel* feed_for(NodeId n) const;
  [[nodiscard]] runtime::BoundedChannel* egress_for(NodeId n) const;
};

// Everything one run needs, regardless of backend. The per-edge fields
// (intervals, forward_on_filter) come straight from a core::CompileResult
// via apply(); the tail is per-backend tuning with sensible defaults.
struct RunSpec {
  Backend backend = Backend::Sim;
  runtime::DummyMode mode = runtime::DummyMode::Propagation;
  // Per-edge dummy thresholds (runtime::kInfiniteInterval = none). Empty =
  // all infinite.
  std::vector<std::int64_t> intervals;
  // Propagation mode: per-edge continuation-forwarding flags
  // (core::CompileResult::forward_on_filter). Empty = none.
  std::vector<std::uint8_t> forward_on_filter;
  // Batch runs (ports null): each source's feed is pre-closed with this many
  // firing tokens, seqs 0 .. num_inputs-1, then EOS. Ignored with ports.
  std::uint64_t num_inputs = 0;
  // Optional event recorder (not owned); works on every backend.
  runtime::Tracer* tracer = nullptr;
  // Optional obs counter registry (not owned; sized for the graph's nodes
  // and edges). When set, every backend increments per-node firing-rule
  // counters and per-channel traffic/stall counters into it -- relaxed
  // single-writer atomics, so the hot-path cost is one predictable branch
  // plus a load+store per event. Null = metrics off (the bench baseline).
  obs::MetricsRegistry* metrics = nullptr;
  // Tenant label for roll-ups (Session ledgers, exporter labels).
  std::string tenant = "default";
  // Per-tenant in-flight credit gauge (qos): when set, InputPort pushes
  // acquire one credit per data item *before* channel space and the credit
  // returns when the source node consumes the item from its feed. Borrowed
  // (a server-side qos::TenantTable typically owns it); must outlive the
  // stream. Null = no tenant backpressure.
  qos::CreditGauge* credits = nullptr;
  // Firing batch quantum: how many sequence numbers a node may fire per
  // scheduling quantum before its outputs are flushed, letting the data
  // plane amortize one channel lock and one wake-up over a whole batch
  // (coalesced dummy runs ride out in a single push). 1 (the default) is
  // exactly the message-at-a-time pacing of the paper's model. At batch >
  // 1 a node holds up to a quantum's outputs before delivering, which acts
  // like extra per-node output buffering: completed runs keep bit-identical
  // per-edge traffic, firing counts and verdicts at every setting (the
  // differential tests sweep batch), and avoidance-armed runs stay
  // deadlock-free with certification still exact -- but an *unprotected*
  // workload whose deadlock hazard needs the tighter pacing to manifest
  // may complete at a higher batch, exactly as it might with larger
  // buffers. Verdict-sensitive experiments should keep batch = 1;
  // throughput-oriented callers want 16-64.
  std::uint32_t batch = 1;

  // --- Sim tuning ---
  std::uint64_t max_sweeps = std::uint64_t{1} << 30;

  // --- Pooled tuning ---
  // Shared pool to run on (not owned); lets many sessions/tenants
  // interleave on one fixed worker set. Null = a private pool per run.
  runtime::PoolExecutor* pool = nullptr;
  // Workers for a private pool (0 = hardware concurrency); ignored when
  // `pool` is set.
  std::size_t pool_workers = 0;

  // --- Port plumbing (internal) ---
  // Set by exec::Stream: live ports, borrowed, must outlive the run. Null =
  // a batch run, whose runtime::Wiring builds the num_inputs token feeds.
  const PortBinding* ports = nullptr;

  // --- Snapshot plumbing (internal, ckpt) ---
  // Barrier coordinator the engine attaches to every NodeState (not
  // owned; set by exec::Stream when snapshots are enabled). Null = markers
  // never appear and the data path is byte-for-byte the snapshots-off one.
  ckpt::SnapshotPlane* ckpt_plane = nullptr;
  // Restore source: the engine rebuilds node/edge state at this cut before
  // the run starts (node counters, kernel state, EOS preloads on edges out
  // of finished nodes, cumulative traffic baselines). Borrowed; must
  // outlive engine construction. Set by Session::restore only.
  const ckpt::StreamSnapshot* restore = nullptr;

  // Adopt a compile result's per-edge configuration: integer thresholds
  // under `rounding`, plus the continuation-forwarding set when `mode` is
  // Propagation.
  void apply(const core::CompileResult& compiled,
             core::Rounding rounding = core::Rounding::Floor);
};

struct EdgeTraffic {
  std::uint64_t data = 0;
  std::uint64_t dummies = 0;  // counts every dummy of a coalesced run
  std::int64_t max_occupancy = 0;
};

// Uniform result across backends.
struct RunReport {
  Backend backend = Backend::Sim;
  bool completed = false;
  bool deadlocked = false;
  double wall_seconds = 0.0;
  std::uint64_t sweeps = 0;  // Sim only; 0 elsewhere
  std::vector<EdgeTraffic> edges;    // per edge id
  std::vector<std::uint64_t> fires;  // kernel invocations per node
  std::vector<std::uint64_t> sink_data;  // data msgs consumed per node
  // Non-empty iff deadlocked: channel occupancies and per-node stuck state.
  std::string state_dump;

  [[nodiscard]] std::uint64_t total_dummies() const;
  [[nodiscard]] std::uint64_t total_data() const;
};

}  // namespace sdaf::exec
