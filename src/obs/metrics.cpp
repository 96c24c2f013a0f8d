#include "src/obs/metrics.h"

#include <algorithm>

#include "src/support/contracts.h"

namespace sdaf::obs {

namespace {

std::uint64_t load(const std::atomic<std::uint64_t>& c) {
  return c.load(std::memory_order_relaxed);
}

}  // namespace

void NodeCounters::reset() {
  fires.store(0, std::memory_order_relaxed);
  data_out.store(0, std::memory_order_relaxed);
  dummy_out.store(0, std::memory_order_relaxed);
  eos_out.store(0, std::memory_order_relaxed);
  data_in.store(0, std::memory_order_relaxed);
  dummy_in.store(0, std::memory_order_relaxed);
}

void ChannelCounters::reset() {
  data_pushed.store(0, std::memory_order_relaxed);
  dummies_pushed.store(0, std::memory_order_relaxed);
  pops.store(0, std::memory_order_relaxed);
  full_stalls.store(0, std::memory_order_relaxed);
  empty_waits.store(0, std::memory_order_relaxed);
  high_water.store(0, std::memory_order_relaxed);
}

void WorkerCounters::reset() {
  task_runs.store(0, std::memory_order_relaxed);
  parks.store(0, std::memory_order_relaxed);
  wakes.store(0, std::memory_order_relaxed);
  steals.store(0, std::memory_order_relaxed);
  steal_fails.store(0, std::memory_order_relaxed);
  futex_parks.store(0, std::memory_order_relaxed);
  futex_wakes.store(0, std::memory_order_relaxed);
  depth_samples.store(0, std::memory_order_relaxed);
  depth_sum.store(0, std::memory_order_relaxed);
  depth_max.store(0, std::memory_order_relaxed);
}

MetricsRegistry::MetricsRegistry(std::size_t node_count,
                                 std::size_t edge_count)
    : nodes_(node_count), channels_(edge_count) {}

void MetricsRegistry::reset() {
  for (auto& n : nodes_) n.reset();
  for (auto& c : channels_) c.reset();
}

MetricsSnapshot snapshot(const StreamGraph& g,
                         const MetricsRegistry& registry,
                         const SnapshotOptions& options) {
  SDAF_EXPECTS(registry.node_count() == g.node_count());
  SDAF_EXPECTS(registry.edge_count() == g.edge_count());
  MetricsSnapshot out;
  out.backend = options.backend;
  out.tenant.tenant = options.tenant;
  out.tenant.runs = options.runs;
  out.tenant.wall_seconds = options.wall_seconds;

  out.nodes.reserve(g.node_count());
  for (NodeId n = 0; n < g.node_count(); ++n) {
    const NodeCounters& c = registry.node(n);
    NodeMetrics m;
    m.node = n;
    m.name = g.node_name(n);
    m.fires = load(c.fires);
    m.data_out = load(c.data_out);
    m.dummy_out = load(c.dummy_out);
    m.eos_out = load(c.eos_out);
    m.data_in = load(c.data_in);
    m.dummy_in = load(c.dummy_in);
    out.tenant.items_fired += m.fires;
    out.nodes.push_back(std::move(m));
  }

  out.channels.reserve(g.edge_count());
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const ChannelCounters& c = registry.channel(e);
    const Edge& edge = g.edge(e);
    ChannelMetrics m;
    m.edge = e;
    m.from = edge.from;
    m.to = edge.to;
    m.from_name = g.node_name(edge.from);
    m.to_name = g.node_name(edge.to);
    m.capacity = static_cast<std::uint64_t>(edge.buffer);
    m.data_pushed = load(c.data_pushed);
    m.dummies_pushed = load(c.dummies_pushed);
    m.pops = load(c.pops);
    m.full_stalls = load(c.full_stalls);
    m.empty_waits = load(c.empty_waits);
    m.high_water = c.high_water.load(std::memory_order_relaxed);
    // Racy reads may momentarily see a pop before its push; clamp at zero.
    const auto pushed =
        static_cast<std::int64_t>(m.data_pushed + m.dummies_pushed);
    m.occupancy = std::max<std::int64_t>(
        0, pushed - static_cast<std::int64_t>(m.pops));
    out.tenant.data_items += m.data_pushed;
    out.tenant.dummy_items += m.dummies_pushed;
    out.tenant.channel_slots += m.capacity;
    out.channels.push_back(std::move(m));
  }
  out.tenant.channel_bytes = out.tenant.channel_slots * options.bytes_per_slot;
  const std::uint64_t total = out.tenant.data_items + out.tenant.dummy_items;
  out.tenant.dummy_overhead_ratio =
      total == 0 ? 0.0
                 : static_cast<double>(out.tenant.dummy_items) /
                       static_cast<double>(total);
  return out;
}

WorkerMetrics read_worker(const WorkerCounters& counters, std::size_t index) {
  WorkerMetrics m;
  m.worker = index;
  m.task_runs = load(counters.task_runs);
  m.parks = load(counters.parks);
  m.wakes = load(counters.wakes);
  m.steals = load(counters.steals);
  m.steal_fails = load(counters.steal_fails);
  m.futex_parks = load(counters.futex_parks);
  m.futex_wakes = load(counters.futex_wakes);
  m.depth_samples = load(counters.depth_samples);
  m.depth_max = load(counters.depth_max);
  m.depth_avg = m.depth_samples == 0
                    ? 0.0
                    : static_cast<double>(load(counters.depth_sum)) /
                          static_cast<double>(m.depth_samples);
  return m;
}

}  // namespace sdaf::obs
