// sdaf::obs -- the measurement substrate for both backends.
//
// MetricsRegistry holds cache-line-padded counter shards -- one NodeCounters
// per node, one ChannelCounters per edge (per-worker WorkerCounters shards
// live in the PoolExecutor, which owns the worker identity) -- written with
// relaxed atomics by exactly one thread each, so the hot path pays a plain
// load+store per increment and never contends: aggregation happens on read
// (snapshot()), not on write. The registry is attached to a run through
// exec::RunSpec::metrics and to a live stream through exec::StreamSpec;
// null pointer = every metrics branch is a single predictable-false test.
//
// Counter semantics are backend-invariant by construction: node counters
// are incremented at the same NodeState sites on every backend (emission
// is counted where outputs are queued, consumption where heads are popped),
// so the sim's deterministic counts are a bit-exact reference for the
// pooled backend -- the differential tests assert exactly that. Channel
// counters count logical messages (a coalesced run of k dummies counts k),
// matching the paper's buffer-size semantics.
//
// The snapshot structs are plain values: safe to copy out of a live run,
// serialize (obs/export.h), or poll from another thread (Stream::metrics).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/graph/stream_graph.h"

namespace sdaf::obs {

// Single-writer relaxed increment: the owning thread is the only writer, so
// a plain load+store beats an RMW on the hot path (readers may see a value
// a few increments stale, never torn; exact at quiescence).
inline void bump(std::atomic<std::uint64_t>& counter, std::uint64_t n = 1) {
  counter.store(counter.load(std::memory_order_relaxed) + n,
                std::memory_order_relaxed);
}

// Per-node firing-rule counters, incremented by the node's owning thread
// (sim sweep, dedicated thread, or whichever pool worker holds the node --
// the scheduler guarantees one at a time).
struct alignas(64) NodeCounters {
  std::atomic<std::uint64_t> fires{0};      // kernel invocations
  std::atomic<std::uint64_t> data_out{0};   // data items queued on out-slots
  std::atomic<std::uint64_t> dummy_out{0};  // dummies queued (k for a run of k)
  std::atomic<std::uint64_t> eos_out{0};    // EOS floods per out-slot
  std::atomic<std::uint64_t> data_in{0};    // data items consumed
  std::atomic<std::uint64_t> dummy_in{0};   // dummies consumed

  void reset();
};

// Per-channel traffic and contention counters. Producer side writes
// data_pushed/dummies_pushed/high_water/full_stalls; consumer side writes
// pops/empty_waits -- still one writer per field.
struct alignas(64) ChannelCounters {
  std::atomic<std::uint64_t> data_pushed{0};
  std::atomic<std::uint64_t> dummies_pushed{0};
  std::atomic<std::uint64_t> pops{0};         // logical messages popped
  std::atomic<std::uint64_t> full_stalls{0};  // pushes refused/parked on Full
  std::atomic<std::uint64_t> empty_waits{0};  // peeks that found it empty
  std::atomic<std::int64_t> high_water{0};    // max logical occupancy seen

  void note_high_water(std::int64_t occupancy) {
    if (occupancy > high_water.load(std::memory_order_relaxed))
      high_water.store(occupancy, std::memory_order_relaxed);
  }

  void reset();
};

// Per-worker scheduler counters (pooled backend); one shard per worker plus
// one for external threads (stream wakes arriving from the caller side).
struct alignas(64) WorkerCounters {
  std::atomic<std::uint64_t> task_runs{0};      // node quanta executed
  std::atomic<std::uint64_t> parks{0};          // tasks parked (kIdle CAS won)
  std::atomic<std::uint64_t> wakes{0};          // tasks (re)scheduled
  std::atomic<std::uint64_t> steals{0};         // tasks taken from a peer
  std::atomic<std::uint64_t> steal_fails{0};    // empty/contended steal probes
  std::atomic<std::uint64_t> futex_parks{0};    // idle worker futex sleeps
  std::atomic<std::uint64_t> futex_wakes{0};    // idle worker wake syscalls
  std::atomic<std::uint64_t> depth_samples{0};  // local deque depth samples
  std::atomic<std::uint64_t> depth_sum{0};
  std::atomic<std::uint64_t> depth_max{0};

  void sample_depth(std::uint64_t depth) {
    bump(depth_samples);
    bump(depth_sum, depth);
    if (depth > depth_max.load(std::memory_order_relaxed))
      depth_max.store(depth, std::memory_order_relaxed);
  }

  void reset();
};

// The shard container: sized for one graph, attached to one run or stream.
// Writers hold stable references into the vectors (never resized after
// construction).
class MetricsRegistry {
 public:
  MetricsRegistry(std::size_t node_count, std::size_t edge_count);

  [[nodiscard]] NodeCounters& node(NodeId n) { return nodes_[n]; }
  [[nodiscard]] const NodeCounters& node(NodeId n) const { return nodes_[n]; }
  [[nodiscard]] ChannelCounters& channel(EdgeId e) { return channels_[e]; }
  [[nodiscard]] const ChannelCounters& channel(EdgeId e) const {
    return channels_[e];
  }
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] std::size_t edge_count() const { return channels_.size(); }

  void reset();

 private:
  std::vector<NodeCounters> nodes_;
  std::vector<ChannelCounters> channels_;
};

// ---- aggregate-on-read snapshot values ----

struct NodeMetrics {
  NodeId node = kNoNode;
  std::string name;
  std::uint64_t fires = 0;
  std::uint64_t data_out = 0;
  std::uint64_t dummy_out = 0;
  std::uint64_t eos_out = 0;
  std::uint64_t data_in = 0;
  std::uint64_t dummy_in = 0;
};

struct ChannelMetrics {
  EdgeId edge = kNoEdge;
  NodeId from = kNoNode;
  NodeId to = kNoNode;
  std::string from_name;
  std::string to_name;
  std::uint64_t capacity = 0;  // buffer bound from the graph (paper's length)
  std::uint64_t data_pushed = 0;
  std::uint64_t dummies_pushed = 0;
  std::uint64_t pops = 0;
  std::uint64_t full_stalls = 0;
  std::uint64_t empty_waits = 0;
  std::int64_t high_water = 0;
  std::int64_t occupancy = 0;  // pushes - pops (exact at quiescence)
};

struct WorkerMetrics {
  std::size_t worker = 0;  // worker index; last entry = external threads
  std::uint64_t task_runs = 0;
  std::uint64_t parks = 0;
  std::uint64_t wakes = 0;
  std::uint64_t steals = 0;
  std::uint64_t steal_fails = 0;
  std::uint64_t futex_parks = 0;
  std::uint64_t futex_wakes = 0;
  std::uint64_t depth_samples = 0;
  std::uint64_t depth_max = 0;
  double depth_avg = 0.0;
};

struct PortMetrics {
  NodeId node = kNoNode;
  std::string name;
  bool input = false;  // true = ingress feed, false = egress tap
  std::uint64_t pushed = 0;
  std::uint64_t occupancy = 0;
  std::uint64_t capacity = 0;
};

// Per-tenant roll-up: what one tenant's workload cost. dummy_overhead_ratio
// is dummies / (data + dummies) over everything pushed into channels -- the
// runtime-measured price of the paper's deadlock-avoidance protocol.
// channel_slots/channel_bytes are the compile-time buffer footprint the
// avoidance analysis certified (the memory the tenant reserves whether or
// not traffic fills it).
struct TenantMetrics {
  std::string tenant;
  std::uint64_t runs = 0;
  std::uint64_t items_fired = 0;  // kernel invocations, all nodes
  std::uint64_t data_items = 0;
  std::uint64_t dummy_items = 0;
  double dummy_overhead_ratio = 0.0;
  std::uint64_t channel_slots = 0;
  std::uint64_t channel_bytes = 0;
  double wall_seconds = 0.0;
};

// One tenant's qos credit window (qos::TenantTable::entries): its limit
// (0 = unlimited) and the items pushed but not yet consumed by a source.
struct TenantCreditMetrics {
  std::string tenant;
  std::uint64_t limit = 0;
  std::uint64_t in_flight = 0;
};

// Per-tenant scheduler accounting from the pooled backend's injector
// ledger: how many of each tenant's tasks passed through the shared FIFO
// injector (enqueued/dequeued) and how many of them sat in it at once.
// Snapshotted under the injector lock, so enqueued - dequeued ==
// queue_depth exactly.
struct TenantSchedMetrics {
  std::string tenant;
  std::uint64_t enqueued = 0;     // the tenant's tasks pushed to the injector
  std::uint64_t dequeued = 0;     // ... and taken from it by workers
  std::uint64_t queue_depth = 0;  // the tenant's tasks in it now
  std::uint64_t queue_depth_max = 0;
};

// Checkpoint/restore instrumentation (live streams only): the stream's
// logical epoch (0 = fresh open, snapshot.epoch + 1 after a restore), how
// many barrier snapshots have completed on it, whether one is in flight,
// and the wall duration of the last completed barrier (begin -> assembly).
struct CheckpointMetrics {
  std::uint64_t epoch = 0;
  std::uint64_t snapshots_taken = 0;
  bool snapshot_pending = false;
  double last_snapshot_seconds = 0.0;
};

struct MetricsSnapshot {
  std::string schema = "sdaf.metrics.v1";
  std::string backend;
  TenantMetrics tenant;
  CheckpointMetrics ckpt;  // live streams only
  std::vector<NodeMetrics> nodes;
  std::vector<ChannelMetrics> channels;
  std::vector<WorkerMetrics> workers;  // pooled backend only
  std::vector<PortMetrics> ports;      // live streams only
};

struct SnapshotOptions {
  std::string backend;
  std::string tenant = "default";
  double wall_seconds = 0.0;
  std::uint64_t runs = 1;
  std::size_t bytes_per_slot = 0;  // sizeof the runtime message; 0 = unknown
};

// Aggregates the registry into plain values. Safe on a live run: every read
// is a relaxed atomic load (values may lag writers by a few increments;
// exact once the run has quiesced).
[[nodiscard]] MetricsSnapshot snapshot(const StreamGraph& g,
                                       const MetricsRegistry& registry,
                                       const SnapshotOptions& options);

// Folds one worker shard into a WorkerMetrics value (used by PoolExecutor).
[[nodiscard]] WorkerMetrics read_worker(const WorkerCounters& counters,
                                        std::size_t index);

}  // namespace sdaf::obs
