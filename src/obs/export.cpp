#include "src/obs/export.h"

#include <cstdio>
#include <sstream>
#include <string>

namespace sdaf::obs {

namespace {

// JSON string escaping (control characters, quote, backslash).
std::string jesc(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char ch : s) {
    switch (ch) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(ch));
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

std::string jnum(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

// Prometheus label-value escaping: backslash, double-quote, newline.
std::string pesc(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char ch : s) {
    if (ch == '\\')
      out += "\\\\";
    else if (ch == '"')
      out += "\\\"";
    else if (ch == '\n')
      out += "\\n";
    else
      out += ch;
  }
  return out;
}

// Emits one family at a time; samples carry the owning snapshot's tenant
// label, so one writer serves the merged multi-snapshot page as well as
// the classic single-snapshot one.
class PromWriter {
 public:
  void family(const std::string& name, const char* type, const char* help) {
    out_ << "# HELP " << name << " " << help << "\n";
    out_ << "# TYPE " << name << " " << type << "\n";
    family_ = name;
  }

  template <typename V>
  void sample(const std::string& tenant, const std::string& labels, V value) {
    out_ << family_ << "{tenant=\"" << pesc(tenant) << "\"" << labels << "} "
         << value << "\n";
  }

  // A process-level family's single unlabelled sample.
  void sample(std::uint64_t value) {
    out_ << family_ << " " << value << "\n";
  }

  void sample_f(const std::string& tenant, const std::string& labels,
                double value) {
    out_ << family_ << "{tenant=\"" << pesc(tenant) << "\"" << labels << "} "
         << jnum(value) << "\n";
  }

  [[nodiscard]] std::string str() const { return out_.str(); }

 private:
  std::string family_;
  std::ostringstream out_;
};

std::string node_label(const NodeMetrics& n) {
  return ",node=\"" + pesc(n.name) + "\"";
}

std::string edge_label(const ChannelMetrics& c) {
  return ",edge=\"" + std::to_string(c.edge) + "\",from=\"" +
         pesc(c.from_name) + "\",to=\"" + pesc(c.to_name) + "\"";
}

}  // namespace

std::string to_json(const MetricsSnapshot& s) {
  std::ostringstream o;
  o << "{\"schema\":\"" << jesc(s.schema) << "\"";
  o << ",\"backend\":\"" << jesc(s.backend) << "\"";
  const TenantMetrics& t = s.tenant;
  o << ",\"tenant\":{\"name\":\"" << jesc(t.tenant) << "\""
    << ",\"runs\":" << t.runs << ",\"items_fired\":" << t.items_fired
    << ",\"data_items\":" << t.data_items
    << ",\"dummy_items\":" << t.dummy_items
    << ",\"dummy_overhead_ratio\":" << jnum(t.dummy_overhead_ratio)
    << ",\"channel_slots\":" << t.channel_slots
    << ",\"channel_bytes\":" << t.channel_bytes
    << ",\"wall_seconds\":" << jnum(t.wall_seconds) << "}";
  o << ",\"ckpt\":{\"epoch\":" << s.ckpt.epoch
    << ",\"snapshots_taken\":" << s.ckpt.snapshots_taken
    << ",\"snapshot_pending\":" << (s.ckpt.snapshot_pending ? "true" : "false")
    << ",\"last_snapshot_seconds\":" << jnum(s.ckpt.last_snapshot_seconds)
    << "}";
  o << ",\"nodes\":[";
  for (std::size_t i = 0; i < s.nodes.size(); ++i) {
    const NodeMetrics& n = s.nodes[i];
    if (i != 0) o << ",";
    o << "{\"node\":" << n.node << ",\"name\":\"" << jesc(n.name) << "\""
      << ",\"fires\":" << n.fires << ",\"data_out\":" << n.data_out
      << ",\"dummy_out\":" << n.dummy_out << ",\"eos_out\":" << n.eos_out
      << ",\"data_in\":" << n.data_in << ",\"dummy_in\":" << n.dummy_in
      << "}";
  }
  o << "],\"channels\":[";
  for (std::size_t i = 0; i < s.channels.size(); ++i) {
    const ChannelMetrics& c = s.channels[i];
    if (i != 0) o << ",";
    o << "{\"edge\":" << c.edge << ",\"from\":\"" << jesc(c.from_name)
      << "\",\"to\":\"" << jesc(c.to_name) << "\""
      << ",\"capacity\":" << c.capacity
      << ",\"data_pushed\":" << c.data_pushed
      << ",\"dummies_pushed\":" << c.dummies_pushed << ",\"pops\":" << c.pops
      << ",\"full_stalls\":" << c.full_stalls
      << ",\"empty_waits\":" << c.empty_waits
      << ",\"high_water\":" << c.high_water
      << ",\"occupancy\":" << c.occupancy << "}";
  }
  o << "],\"workers\":[";
  for (std::size_t i = 0; i < s.workers.size(); ++i) {
    const WorkerMetrics& w = s.workers[i];
    if (i != 0) o << ",";
    o << "{\"worker\":" << w.worker << ",\"task_runs\":" << w.task_runs
      << ",\"parks\":" << w.parks << ",\"wakes\":" << w.wakes
      << ",\"steals\":" << w.steals << ",\"steal_fails\":" << w.steal_fails
      << ",\"futex_parks\":" << w.futex_parks
      << ",\"futex_wakes\":" << w.futex_wakes
      << ",\"depth_samples\":" << w.depth_samples
      << ",\"depth_max\":" << w.depth_max
      << ",\"depth_avg\":" << jnum(w.depth_avg) << "}";
  }
  o << "],\"ports\":[";
  for (std::size_t i = 0; i < s.ports.size(); ++i) {
    const PortMetrics& p = s.ports[i];
    if (i != 0) o << ",";
    o << "{\"node\":\"" << jesc(p.name) << "\",\"dir\":\""
      << (p.input ? "in" : "out") << "\",\"pushed\":" << p.pushed
      << ",\"occupancy\":" << p.occupancy << ",\"capacity\":" << p.capacity
      << "}";
  }
  o << "]}";
  return o.str();
}

std::string to_prometheus(const MetricsSnapshot& snapshot) {
  return to_prometheus(std::vector<MetricsSnapshot>{snapshot});
}

std::string to_prometheus(const std::vector<MetricsSnapshot>& snaps) {
  PromWriter w;

  w.family("sdaf_node_fires_total", "counter",
           "Kernel invocations per node.");
  for (const auto& s : snaps)
    for (const auto& n : s.nodes)
      w.sample(s.tenant.tenant, node_label(n), n.fires);
  w.family("sdaf_node_data_out_total", "counter",
           "Data items emitted per node.");
  for (const auto& s : snaps)
    for (const auto& n : s.nodes)
      w.sample(s.tenant.tenant, node_label(n), n.data_out);
  w.family("sdaf_node_dummy_out_total", "counter",
           "Dummy items emitted per node (deadlock-avoidance overhead).");
  for (const auto& s : snaps)
    for (const auto& n : s.nodes)
      w.sample(s.tenant.tenant, node_label(n), n.dummy_out);
  w.family("sdaf_node_eos_out_total", "counter",
           "End-of-stream floods per node out-slot.");
  for (const auto& s : snaps)
    for (const auto& n : s.nodes)
      w.sample(s.tenant.tenant, node_label(n), n.eos_out);
  w.family("sdaf_node_data_in_total", "counter",
           "Data items consumed per node.");
  for (const auto& s : snaps)
    for (const auto& n : s.nodes)
      w.sample(s.tenant.tenant, node_label(n), n.data_in);
  w.family("sdaf_node_dummy_in_total", "counter",
           "Dummy items consumed per node.");
  for (const auto& s : snaps)
    for (const auto& n : s.nodes)
      w.sample(s.tenant.tenant, node_label(n), n.dummy_in);

  w.family("sdaf_channel_data_pushed_total", "counter",
           "Data messages pushed per channel.");
  for (const auto& s : snaps)
    for (const auto& c : s.channels)
      w.sample(s.tenant.tenant, edge_label(c), c.data_pushed);
  w.family("sdaf_channel_dummies_pushed_total", "counter",
           "Dummy messages pushed per channel.");
  for (const auto& s : snaps)
    for (const auto& c : s.channels)
      w.sample(s.tenant.tenant, edge_label(c), c.dummies_pushed);
  w.family("sdaf_channel_pops_total", "counter",
           "Messages popped per channel.");
  for (const auto& s : snaps)
    for (const auto& c : s.channels)
      w.sample(s.tenant.tenant, edge_label(c), c.pops);
  w.family("sdaf_channel_full_stalls_total", "counter",
           "Pushes refused or parked because the channel was full.");
  for (const auto& s : snaps)
    for (const auto& c : s.channels)
      w.sample(s.tenant.tenant, edge_label(c), c.full_stalls);
  w.family("sdaf_channel_empty_waits_total", "counter",
           "Consumer peeks that found the channel empty.");
  for (const auto& s : snaps)
    for (const auto& c : s.channels)
      w.sample(s.tenant.tenant, edge_label(c), c.empty_waits);
  w.family("sdaf_channel_capacity", "gauge",
           "Channel buffer bound in messages (the paper's length).");
  for (const auto& s : snaps)
    for (const auto& c : s.channels)
      w.sample(s.tenant.tenant, edge_label(c), c.capacity);
  w.family("sdaf_channel_high_water", "gauge",
           "Maximum logical occupancy observed.");
  for (const auto& s : snaps)
    for (const auto& c : s.channels)
      w.sample(s.tenant.tenant, edge_label(c), c.high_water);
  w.family("sdaf_channel_occupancy", "gauge",
           "Current logical occupancy (pushes minus pops).");
  for (const auto& s : snaps)
    for (const auto& c : s.channels)
      w.sample(s.tenant.tenant, edge_label(c), c.occupancy);

  w.family("sdaf_worker_task_runs_total", "counter",
           "Node quanta executed per pool worker.");
  for (const auto& s : snaps)
    for (const auto& x : s.workers)
      w.sample(s.tenant.tenant,
               ",worker=\"" + std::to_string(x.worker) + "\"", x.task_runs);
  w.family("sdaf_worker_parks_total", "counter",
           "Tasks parked per pool worker.");
  for (const auto& s : snaps)
    for (const auto& x : s.workers)
      w.sample(s.tenant.tenant,
               ",worker=\"" + std::to_string(x.worker) + "\"", x.parks);
  w.family("sdaf_worker_wakes_total", "counter",
           "Tasks scheduled per pool worker.");
  for (const auto& s : snaps)
    for (const auto& x : s.workers)
      w.sample(s.tenant.tenant,
               ",worker=\"" + std::to_string(x.worker) + "\"", x.wakes);
  w.family("sdaf_worker_steals_total", "counter",
           "Tasks stolen from a peer worker's deque or hot slot.");
  for (const auto& s : snaps)
    for (const auto& x : s.workers)
      w.sample(s.tenant.tenant,
               ",worker=\"" + std::to_string(x.worker) + "\"", x.steals);
  w.family("sdaf_worker_steal_fails_total", "counter",
           "Steal probes that found a victim empty or lost the race.");
  for (const auto& s : snaps)
    for (const auto& x : s.workers)
      w.sample(s.tenant.tenant,
               ",worker=\"" + std::to_string(x.worker) + "\"", x.steal_fails);
  w.family("sdaf_worker_futex_parks_total", "counter",
           "Idle futex sleeps per pool worker.");
  for (const auto& s : snaps)
    for (const auto& x : s.workers)
      w.sample(s.tenant.tenant,
               ",worker=\"" + std::to_string(x.worker) + "\"", x.futex_parks);
  w.family("sdaf_worker_futex_wakes_total", "counter",
           "Wake syscalls issued for idle pool workers.");
  for (const auto& s : snaps)
    for (const auto& x : s.workers)
      w.sample(s.tenant.tenant,
               ",worker=\"" + std::to_string(x.worker) + "\"", x.futex_wakes);
  w.family("sdaf_worker_queue_depth_max", "gauge",
           "Maximum ready-queue depth sampled per worker.");
  for (const auto& s : snaps)
    for (const auto& x : s.workers)
      w.sample(s.tenant.tenant,
               ",worker=\"" + std::to_string(x.worker) + "\"", x.depth_max);
  w.family("sdaf_worker_queue_depth_avg", "gauge",
           "Mean ready-queue depth sampled per worker.");
  for (const auto& s : snaps)
    for (const auto& x : s.workers)
      w.sample_f(s.tenant.tenant,
                 ",worker=\"" + std::to_string(x.worker) + "\"", x.depth_avg);

  w.family("sdaf_port_pushed_total", "counter",
           "Items through a stream port.");
  for (const auto& s : snaps)
    for (const auto& p : s.ports)
      w.sample(s.tenant.tenant,
               ",node=\"" + pesc(p.name) + "\",dir=\"" +
                   (p.input ? std::string("in") : std::string("out")) + "\"",
               p.pushed);
  w.family("sdaf_port_occupancy", "gauge",
           "Current port channel occupancy.");
  for (const auto& s : snaps)
    for (const auto& p : s.ports)
      w.sample(s.tenant.tenant,
               ",node=\"" + pesc(p.name) + "\",dir=\"" +
                   (p.input ? std::string("in") : std::string("out")) + "\"",
               p.occupancy);

  w.family("sdaf_tenant_items_fired_total", "counter",
           "Kernel invocations for the tenant.");
  for (const auto& s : snaps) w.sample(s.tenant.tenant, "", s.tenant.items_fired);
  w.family("sdaf_tenant_data_items_total", "counter",
           "Data items pushed for the tenant.");
  for (const auto& s : snaps) w.sample(s.tenant.tenant, "", s.tenant.data_items);
  w.family("sdaf_tenant_dummy_items_total", "counter",
           "Dummy items pushed for the tenant.");
  for (const auto& s : snaps)
    w.sample(s.tenant.tenant, "", s.tenant.dummy_items);
  w.family("sdaf_tenant_dummy_overhead_ratio", "gauge",
           "dummies / (data + dummies): the measured avoidance cost.");
  for (const auto& s : snaps)
    w.sample_f(s.tenant.tenant, "", s.tenant.dummy_overhead_ratio);
  w.family("sdaf_tenant_channel_slots", "gauge",
           "Compiled channel buffer footprint in messages.");
  for (const auto& s : snaps)
    w.sample(s.tenant.tenant, "", s.tenant.channel_slots);
  w.family("sdaf_tenant_channel_bytes", "gauge",
           "Compiled channel buffer footprint in bytes.");
  for (const auto& s : snaps)
    w.sample(s.tenant.tenant, "", s.tenant.channel_bytes);
  w.family("sdaf_tenant_wall_seconds", "gauge",
           "Wall-clock seconds spent in runs.");
  for (const auto& s : snaps)
    w.sample_f(s.tenant.tenant, "", s.tenant.wall_seconds);

  w.family("sdaf_stream_epoch", "gauge",
           "Logical stream generation (0 fresh, +1 per restore).");
  for (const auto& s : snaps) w.sample(s.tenant.tenant, "", s.ckpt.epoch);
  w.family("sdaf_snapshots_total", "counter",
           "Barrier snapshots completed on the stream.");
  for (const auto& s : snaps)
    w.sample(s.tenant.tenant, "", s.ckpt.snapshots_taken);
  w.family("sdaf_snapshot_pending", "gauge",
           "1 while a barrier snapshot is in flight.");
  for (const auto& s : snaps)
    w.sample(s.tenant.tenant, "", s.ckpt.snapshot_pending ? 1 : 0);
  w.family("sdaf_snapshot_duration_seconds", "gauge",
           "Wall duration of the last completed barrier (begin to cut).");
  for (const auto& s : snaps)
    w.sample_f(s.tenant.tenant, "", s.ckpt.last_snapshot_seconds);

  return w.str();
}

std::string tenant_sched_to_prometheus(
    const std::vector<TenantSchedMetrics>& tenants) {
  PromWriter w;
  w.family("sdaf_tenant_sched_enqueued_total", "counter",
           "The tenant's tasks enqueued into the shared injector.");
  for (const auto& t : tenants) w.sample(t.tenant, "", t.enqueued);
  w.family("sdaf_tenant_sched_dequeued_total", "counter",
           "The tenant's tasks taken from the shared injector by workers.");
  for (const auto& t : tenants) w.sample(t.tenant, "", t.dequeued);
  w.family("sdaf_tenant_queue_depth", "gauge",
           "The tenant's tasks in the shared injector now.");
  for (const auto& t : tenants) w.sample(t.tenant, "", t.queue_depth);
  w.family("sdaf_tenant_queue_depth_max", "gauge",
           "Most of the tenant's tasks the shared injector held at once.");
  for (const auto& t : tenants) w.sample(t.tenant, "", t.queue_depth_max);
  return w.str();
}

std::string credits_to_prometheus(
    const std::vector<TenantCreditMetrics>& tenants) {
  PromWriter w;
  w.family("sdaf_tenant_credit_limit", "gauge",
           "Per-tenant in-flight credit window (0 = unlimited).");
  for (const auto& t : tenants) w.sample(t.tenant, "", t.limit);
  w.family("sdaf_tenant_credits_in_flight", "gauge",
           "Data items a tenant has pushed but its sources have not yet "
           "consumed.");
  for (const auto& t : tenants) w.sample(t.tenant, "", t.in_flight);
  return w.str();
}

std::string scalars_to_prometheus(const std::vector<ScalarFamily>& families) {
  PromWriter w;
  for (const ScalarFamily& f : families) {
    w.family(f.name, f.type, f.help);
    w.sample(f.value);
  }
  return w.str();
}

}  // namespace sdaf::obs
