// Schema-stable serializers for obs::MetricsSnapshot.
//
// to_json: one JSON object, schema tagged "sdaf.metrics.v1". Key order and
// key names are part of the contract -- dashboards and tests parse this;
// additions must append new keys, never rename or reorder existing ones.
//
// to_prometheus: the Prometheus text exposition format (version 0.0.4):
// `# HELP` / `# TYPE` headers per metric family, one sample line per series
// with tenant/node/edge labels. Counter families end in `_total`; gauges
// (occupancy, high water, ratios) do not. tools/check_prom.sh validates the
// line grammar in CI so this exporter cannot silently rot.
#pragma once

#include <string>
#include <vector>

#include "src/obs/metrics.h"

namespace sdaf::obs {

[[nodiscard]] std::string to_json(const MetricsSnapshot& snapshot);
[[nodiscard]] std::string to_prometheus(const MetricsSnapshot& snapshot);

// Merged page for a process exposing many snapshots at once (one per live
// stream in sdafd): each metric family appears exactly once -- one HELP,
// one TYPE -- with the samples of every snapshot under it, distinguished
// by their tenant label. Concatenating single-snapshot pages instead would
// duplicate the TYPE headers, which the exposition format (and
// tools/check_prom.sh) forbids. An empty vector yields headers only.
[[nodiscard]] std::string to_prometheus(
    const std::vector<MetricsSnapshot>& snapshots);

// Per-tenant injector ledger (PoolExecutor::tenant_metrics) as its own
// family group (sdaf_tenant_sched_*, sdaf_tenant_queue_*). Family names
// are disjoint from to_prometheus's, so
// the result can be appended to a page without violating the
// one-TYPE-per-family rule.
[[nodiscard]] std::string tenant_sched_to_prometheus(
    const std::vector<TenantSchedMetrics>& tenants);

// Per-tenant credit windows (qos::TenantTable::entries) as the
// sdaf_tenant_credit_limit / sdaf_tenant_credits_in_flight gauges.
[[nodiscard]] std::string credits_to_prometheus(
    const std::vector<TenantCreditMetrics>& tenants);

// Process-level families with one unlabelled sample each (sdafd's service
// and admission counters, the pool's instance counter), in the order
// given. `type` is "counter" or "gauge".
struct ScalarFamily {
  const char* name;
  const char* type;
  const char* help;
  std::uint64_t value;
};
[[nodiscard]] std::string scalars_to_prometheus(
    const std::vector<ScalarFamily>& families);

}  // namespace sdaf::obs
