// Helpers shared by every workload: the window split, medians, the
// percentile rule applied to a metric, and the per-layer metrics derived
// from a counter window.
#include <algorithm>
#include <typeinfo>

#include "driver.h"

namespace perfbench {

Window split_window(const Options& o) {
  if (!o.trace) return {o.seconds, 0.0};
  return {o.seconds / 2.0, o.seconds / 2.0};
}

void report_window(Result* r, const WindowTotals& w, const SampleSet& rtt,
                   bool required) {
  if (w.items <= 0 || w.wall_s <= 0) {
    r->fail("the window accepted no items");
    return;
  }
  r->e2e["throughput_items_per_s"] = w.items / w.wall_s;
  r->e2e["cpu_us_per_item"] = w.cpu_s * 1e6 / w.items;
  put_quantile(r, &r->e2e, "rtt_p50_us", rtt, 0.50, 1e-3, required);
  put_quantile(r, &r->e2e, "rtt_p99_us", rtt, 0.99, 1e-3, false);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void put_quantile(Result* r, Counters* out, const std::string& name,
                  const SampleSet& samples, double q, double scale,
                  bool required) {
  const Quantile qt = quantile(samples.sorted(), q);
  (*out)[name] = qt.value * scale;
  r->info[name + ".samples"] = static_cast<double>(samples.count());
  r->info[name + ".supported"] = qt.supported ? 1.0 : 0.0;
  if (required && !qt.supported)
    r->fail(name + ": " + std::to_string(qt.beyond) +
            " samples beyond the percentile, need " +
            std::to_string(kMinBeyond) + " (of " + std::to_string(qt.count) +
            ")");
}

bool carries_seq(const sdaf::runtime::Value& v, std::uint64_t seq) {
  if (!v.has_value()) return false;
  try {
    return v.as<std::int64_t>() == static_cast<std::int64_t>(seq);
  } catch (const std::bad_cast&) {
    return false;
  }
}

double value_or_zero(const Counters& c, const std::string& key) {
  const auto it = c.find(key);
  return it == c.end() ? 0.0 : it->second;
}

void derive_layers(const Counters& d, double items, double wall_s, double cpu_s,
                   Counters* layer) {
  const auto get = [&](const char* k) { return value_or_zero(d, k); };
  const double per_item = items > 0 ? 1.0 / items : 0.0;
  const double msgs = get("ch.data") + get("ch.dummies");
  (*layer)["runtime.dummy_ratio"] = msgs > 0 ? get("ch.dummies") / msgs : 0.0;
  (*layer)["runtime.channel_msgs_per_item"] = msgs * per_item;
  (*layer)["runtime.fires_per_item"] = get("node.fires") * per_item;
  (*layer)["runtime.full_stalls_per_kitem"] =
      1000.0 * get("ch.full_stalls") * per_item;
  (*layer)["runtime.empty_waits_per_kitem"] =
      1000.0 * get("ch.empty_waits") * per_item;
  (*layer)["pool.effective_parallelism"] = wall_s > 0 ? cpu_s / wall_s : 0.0;
  (*layer)["pool.task_runs_per_item"] = get("pool.task_runs") * per_item;
  (*layer)["pool.wakes_per_item"] = get("pool.wakes") * per_item;
  const double probes = get("pool.steals") + get("pool.steal_fails");
  (*layer)["pool.steal_success_ratio"] =
      probes > 0 ? get("pool.steals") / probes : 0.0;
  (*layer)["pool.futex_parks_per_kitem"] =
      1000.0 * get("pool.futex_parks") * per_item;
  const double deq =
      get("lane.interactive.dequeued") + get("lane.batch.dequeued");
  (*layer)["qos.dequeue_share.interactive"] =
      deq > 0 ? get("lane.interactive.dequeued") / deq : 0.0;
}

void check_window_counters(Result* r, const WindowDiff& w) {
  for (const auto& k : w.went_backwards)
    r->fail("counter " + k + " went backwards across the window");
}

void zero_service_layers(Counters* layer) {
  for (const char* k :
       {"qos.credits_in_flight_max.batch", "qos.lane_depth_max.interactive",
        "net.push_rtt_p50_us", "net.push_rtt_p99_us", "net.poll_rtt_p50_us",
        "net.polls_per_delivery", "net.short_ack_frac", "net.frames_per_item",
        "net.open_ms"})
    (*layer)[k] = 0.0;
}

}  // namespace perfbench
