// sdaf_loadgen -- closed-loop load generator for a running sdafd. Opens N
// concurrent connections (one thread each), drives one stream per
// connection through push/poll cycles against a fixed pipeline topology,
// and reports per-request RTT percentiles and sustained throughput as
// schema-stable JSON ("sdaf.service.bench.v1") for BENCH_service.json.
//
//   sdaf_loadgen --unix=/tmp/sdafd.sock --connections=1,8,64
//                --items=20000 --batch=64 --out=BENCH_service.json
//   sdaf_loadgen --host=127.0.0.1 --port=7411 ...
//   sdaf_loadgen --unix=PATH --stats-out=stats.prom   # dump the STATS page
//
// One RTT sample = one PushBatch -> PushAck round trip (the poll that
// drains the same batch keeps the egress taps from filling but is not
// timed). The figure of merit is items_per_second across the whole sweep
// wall clock, so server-side backpressure (short acks) shows up as lower
// throughput, not as an error.
//
// Multi-tenant modes (sdaf::qos):
//   --mix=I:B        after the connection ladder, run I interactive
//                    connections (tenant "interactive", 1-item push ->
//                    poll round trips, the latency tenant) against B
//                    batch connections (tenant "batch", full-batch
//                    closed loop) concurrently, and emit
//                    per-tenant p50/p99 + throughput as the "mix" object
//                    in the JSON report.
//   --expect-rejected  probe mode for admission smoke tests: open one
//                    stream and require the daemon to refuse it with
//                    AdmissionRejected (the predicted cost is printed);
//                    exits 0 iff rejected, 1 if the open was admitted.
//                    Skips the load runs; combine with --stats-out.
//
// Exit status: 0 ok, 1 connect/protocol failure, 2 usage.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "src/net/client.h"
#include "src/net/frame.h"
#include "src/runtime/message.h"

using namespace sdaf;
using Clock = std::chrono::steady_clock;

namespace {

constexpr const char* kTopology =
    "node src\n"
    "node mid\n"
    "node dst\n"
    "edge src mid 16\n"
    "edge mid dst 16\n";

struct Config {
  std::string unix_path;
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::vector<std::size_t> connections = {1, 8, 64};
  std::size_t items = 20000;  // per connection
  std::uint32_t batch = 64;
  std::string out;        // JSON report path ("" = stdout only)
  std::string stats_out;  // dump the server STATS page here
  std::size_t mix_interactive = 0;  // --mix=I:B; 0,0 = no mix run
  std::size_t mix_batch = 0;
  bool expect_rejected = false;
};

// One tenant's aggregate in the --mix run.
struct TenantResult {
  std::size_t connections = 0;
  std::uint64_t items_total = 0;
  std::uint64_t rtt_p50_ns = 0;
  std::uint64_t rtt_p99_ns = 0;
  double items_per_second = 0.0;
};

struct RunResult {
  std::size_t connections = 0;
  std::uint64_t items_total = 0;
  std::uint64_t rtt_p50_ns = 0;
  std::uint64_t rtt_p99_ns = 0;
  double items_per_second = 0.0;
};

int usage() {
  std::fprintf(
      stderr,
      "usage: sdaf_loadgen (--unix=PATH | --host=H --port=P)\n"
      "                    [--connections=N,N,...] [--items=N] [--batch=N]\n"
      "                    [--out=FILE] [--stats-out=FILE]\n"
      "                    [--mix=I:B] [--expect-rejected]\n");
  return 2;
}

bool parse_u64(const char* s, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  *out = v;
  return true;
}

bool parse_list(const std::string& s, std::vector<std::size_t>* out) {
  out->clear();
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const std::size_t comma = std::min(s.find(',', pos), s.size());
    std::uint64_t v = 0;
    if (!parse_u64(s.substr(pos, comma - pos).c_str(), &v) || v == 0)
      return false;
    out->push_back(static_cast<std::size_t>(v));
    pos = comma + 1;
  }
  return !out->empty();
}

std::optional<net::Client> connect(const Config& cfg) {
  if (!cfg.unix_path.empty()) return net::Client::connect_unix(cfg.unix_path);
  return net::Client::connect_tcp(cfg.host, cfg.port);
}

// One connection's worth of closed-loop work. Appends RTT samples (ns per
// PushBatch round trip) and returns items accepted, or 0 on failure.
std::uint64_t drive(const Config& cfg, std::vector<std::uint64_t>* rtts,
                    std::atomic<bool>* failed) {
  auto client = connect(cfg);
  if (!client.has_value()) {
    failed->store(true);
    return 0;
  }
  try {
    net::OpenFrame spec;
    spec.backend = 2;  // Pooled: the shared-pool path sdafd exists for
    spec.mode = 1;     // Propagation avoidance on
    spec.kernel = net::KernelKind::Relay;
    spec.pass_rate = 1.0;
    spec.topology = kTopology;
    spec.tenant = "loadgen";
    net::ClientStream s = client->open(1, spec);

    std::uint64_t accepted_total = 0;
    std::vector<runtime::Value> batch;
    while (accepted_total < cfg.items) {
      const std::size_t want = std::min<std::size_t>(
          cfg.batch, cfg.items - accepted_total);
      batch.clear();
      for (std::size_t i = 0; i < want; ++i)
        batch.emplace_back(static_cast<std::int64_t>(accepted_total + i));

      const auto t0 = Clock::now();
      const net::PushAckFrame ack = s.push_some(0, batch);
      rtts->push_back(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               t0)
              .count()));
      accepted_total += ack.accepted;
      if (ack.ended != 0) break;
      // Drain what we just fed so the egress tap never fills up.
      std::uint64_t polled = 0;
      while (polled < ack.accepted) {
        const net::DeliverFrame d = s.poll(0, cfg.batch);
        polled += d.items.size();
        if (d.ended != 0 || d.items.empty()) break;
      }
    }
    s.close(0);
    for (;;) {
      const net::DeliverFrame d = s.poll(0, cfg.batch);
      if (d.ended != 0) break;
      if (d.items.empty()) std::this_thread::yield();
    }
    (void)s.finish();
    return accepted_total;
  } catch (const net::ProtocolError& e) {
    std::fprintf(stderr, "sdaf_loadgen: %s\n", e.what());
    failed->store(true);
    return 0;
  }
}

// One interactive-tenant connection in the --mix run: 1-item push ->
// poll-until-delivered round trips under tenant "interactive". Unlike
// drive(), the RTT covers the delivery poll too -- the number a latency
// SLO would be written against.
std::uint64_t drive_interactive(const Config& cfg, std::size_t items,
                                std::vector<std::uint64_t>* rtts,
                                std::atomic<bool>* failed) {
  auto client = connect(cfg);
  if (!client.has_value()) {
    failed->store(true);
    return 0;
  }
  try {
    net::OpenFrame spec;
    spec.backend = 2;  // Pooled
    spec.mode = 1;
    spec.kernel = net::KernelKind::Relay;
    spec.pass_rate = 1.0;
    spec.topology = kTopology;
    spec.tenant = "interactive";
    net::ClientStream s = client->open(1, spec);
    std::uint64_t done = 0;
    for (std::size_t i = 0; i < items; ++i) {
      const auto t0 = Clock::now();
      const net::PushAckFrame ack =
          s.push_some(0, {runtime::Value(static_cast<std::int64_t>(i))});
      if (ack.ended != 0) break;
      if (ack.accepted == 0) continue;  // backpressured; retry the loop
      std::uint64_t polled = 0;
      while (polled < 1) {
        const net::DeliverFrame d = s.poll(0, 1);
        polled += d.items.size();
        if (d.ended != 0) break;
      }
      rtts->push_back(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               t0)
              .count()));
      ++done;
    }
    s.close(0);
    for (;;) {
      const net::DeliverFrame d = s.poll(0, cfg.batch);
      if (d.ended != 0) break;
      if (d.items.empty()) std::this_thread::yield();
    }
    (void)s.finish();
    return done;
  } catch (const net::ProtocolError& e) {
    std::fprintf(stderr, "sdaf_loadgen: %s\n", e.what());
    failed->store(true);
    return 0;
  }
}

// One batch-tenant connection in the --mix run: full-batch closed loop
// under tenant "batch" until `stop` is raised (the interactive tenant
// finishing ends the measurement window).
std::uint64_t drive_batch_saturator(const Config& cfg,
                                    const std::atomic<bool>* stop,
                                    std::atomic<bool>* failed) {
  auto client = connect(cfg);
  if (!client.has_value()) {
    failed->store(true);
    return 0;
  }
  try {
    net::OpenFrame spec;
    spec.backend = 2;  // Pooled
    spec.mode = 1;
    spec.kernel = net::KernelKind::Relay;
    spec.pass_rate = 1.0;
    spec.topology = kTopology;
    spec.tenant = "batch";
    net::ClientStream s = client->open(1, spec);
    std::uint64_t accepted_total = 0;
    std::vector<runtime::Value> batch;
    while (!stop->load(std::memory_order_relaxed)) {
      batch.clear();
      for (std::size_t i = 0; i < cfg.batch; ++i)
        batch.emplace_back(static_cast<std::int64_t>(accepted_total + i));
      const net::PushAckFrame ack = s.push_some(0, batch);
      accepted_total += ack.accepted;
      if (ack.ended != 0) break;
      std::uint64_t polled = 0;
      while (polled < ack.accepted) {
        const net::DeliverFrame d = s.poll(0, cfg.batch);
        polled += d.items.size();
        if (d.ended != 0 || d.items.empty()) break;
      }
    }
    s.close(0);
    for (;;) {
      const net::DeliverFrame d = s.poll(0, cfg.batch);
      if (d.ended != 0) break;
      if (d.items.empty()) std::this_thread::yield();
    }
    (void)s.finish();
    return accepted_total;
  } catch (const net::ProtocolError& e) {
    std::fprintf(stderr, "sdaf_loadgen: %s\n", e.what());
    failed->store(true);
    return 0;
  }
}

std::uint64_t percentile(std::vector<std::uint64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

bool run_one(const Config& cfg, std::size_t conns, RunResult* out) {
  std::vector<std::vector<std::uint64_t>> rtts(conns);
  std::vector<std::uint64_t> accepted(conns, 0);
  std::atomic<bool> failed{false};
  const auto t0 = Clock::now();
  {
    std::vector<std::thread> threads;
    threads.reserve(conns);
    for (std::size_t i = 0; i < conns; ++i)
      threads.emplace_back([&, i] { accepted[i] = drive(cfg, &rtts[i], &failed); });
    for (auto& t : threads) t.join();
  }
  const double secs =
      std::chrono::duration<double>(Clock::now() - t0).count();
  if (failed.load()) return false;

  std::vector<std::uint64_t> all;
  for (auto& r : rtts) all.insert(all.end(), r.begin(), r.end());
  std::sort(all.begin(), all.end());
  out->connections = conns;
  for (const std::uint64_t a : accepted) out->items_total += a;
  out->rtt_p50_ns = percentile(all, 0.50);
  out->rtt_p99_ns = percentile(all, 0.99);
  out->items_per_second =
      secs > 0.0 ? static_cast<double>(out->items_total) / secs : 0.0;
  return true;
}

// The --mix run: I interactive + B batch connections concurrently, the
// batch tenants saturating for exactly the interactive tenants' window.
bool run_mix(const Config& cfg, TenantResult* interactive,
             TenantResult* batch_out) {
  const std::size_t inter = cfg.mix_interactive;
  const std::size_t batch = cfg.mix_batch;
  std::vector<std::vector<std::uint64_t>> rtts(inter);
  std::vector<std::uint64_t> inter_items(inter, 0);
  std::vector<std::uint64_t> batch_items(batch, 0);
  std::atomic<bool> failed{false};
  std::atomic<bool> stop{false};
  const auto t0 = Clock::now();
  {
    std::vector<std::thread> threads;
    threads.reserve(inter + batch);
    for (std::size_t i = 0; i < batch; ++i)
      threads.emplace_back(
          [&, i] { batch_items[i] = drive_batch_saturator(cfg, &stop, &failed); });
    {
      std::vector<std::thread> inter_threads;
      inter_threads.reserve(inter);
      for (std::size_t i = 0; i < inter; ++i)
        inter_threads.emplace_back([&, i] {
          inter_items[i] = drive_interactive(cfg, cfg.items, &rtts[i], &failed);
        });
      for (auto& t : inter_threads) t.join();
    }
    stop.store(true, std::memory_order_relaxed);
    for (auto& t : threads) t.join();
  }
  const double secs = std::chrono::duration<double>(Clock::now() - t0).count();
  if (failed.load()) return false;

  std::vector<std::uint64_t> all;
  for (auto& r : rtts) all.insert(all.end(), r.begin(), r.end());
  std::sort(all.begin(), all.end());
  interactive->connections = inter;
  for (const std::uint64_t v : inter_items) interactive->items_total += v;
  interactive->rtt_p50_ns = percentile(all, 0.50);
  interactive->rtt_p99_ns = percentile(all, 0.99);
  interactive->items_per_second =
      secs > 0.0 ? static_cast<double>(interactive->items_total) / secs : 0.0;
  batch_out->connections = batch;
  for (const std::uint64_t v : batch_items) batch_out->items_total += v;
  batch_out->items_per_second =
      secs > 0.0 ? static_cast<double>(batch_out->items_total) / secs : 0.0;
  return true;
}

// --expect-rejected: one Open that the daemon's admission budget must
// refuse. The soft AdmissionRejected error (connection survives) is the
// pass condition; an admitted stream is the failure.
int run_expect_rejected(const Config& cfg) {
  auto client = connect(cfg);
  if (!client.has_value()) {
    std::fprintf(stderr, "sdaf_loadgen: connect failed\n");
    return 1;
  }
  try {
    net::OpenFrame spec;
    spec.backend = 2;
    spec.mode = 1;
    spec.kernel = net::KernelKind::Relay;
    spec.pass_rate = 1.0;
    spec.topology = kTopology;
    spec.tenant = "probe";
    net::ClientStream s = client->open(1, spec);
    (void)s;
    std::fprintf(stderr,
                 "sdaf_loadgen: open was ADMITTED (expected rejection)\n");
    return 1;
  } catch (const net::OpenRejectedError& e) {
    const auto& c = e.predicted();
    std::printf("rejected: %s (predicted slots=%llu bytes=%llu nodes=%llu "
                "dummy_ratio=%.3f)\n",
                e.what(), static_cast<unsigned long long>(c.channel_slots),
                static_cast<unsigned long long>(c.channel_bytes),
                static_cast<unsigned long long>(c.nodes),
                c.dummy_overhead_ratio);
    return 0;
  } catch (const net::ProtocolError& e) {
    std::fprintf(stderr, "sdaf_loadgen: wrong error: %s\n", e.what());
    return 1;
  }
}

int dump_stats(const Config& cfg) {
  auto client = connect(cfg);
  if (!client.has_value()) {
    std::fprintf(stderr, "sdaf_loadgen: stats connection failed\n");
    return 1;
  }
  try {
    std::ofstream f(cfg.stats_out);
    f << client->stats();
    if (!f) {
      std::fprintf(stderr, "sdaf_loadgen: cannot write %s\n",
                   cfg.stats_out.c_str());
      return 1;
    }
  } catch (const net::ProtocolError& e) {
    std::fprintf(stderr, "sdaf_loadgen: %s\n", e.what());
    return 1;
  }
  return 0;
}

std::string to_json(const Config& cfg, const std::vector<RunResult>& runs,
                    const TenantResult* mix_interactive,
                    const TenantResult* mix_batch) {
  std::string j;
  j += "{\n  \"schema\": \"sdaf.service.bench.v1\",\n";
  j += "  \"transport\": \"";
  j += cfg.unix_path.empty() ? "tcp" : "unix";
  j += "\",\n";
  j += "  \"batch\": " + std::to_string(cfg.batch) + ",\n";
  j += "  \"items_per_connection\": " + std::to_string(cfg.items) + ",\n";
  j += "  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunResult& r = runs[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "    {\"connections\": %zu, \"items_total\": %llu, "
                  "\"rtt_p50_ns\": %llu, \"rtt_p99_ns\": %llu, "
                  "\"items_per_second\": %.1f}%s\n",
                  r.connections,
                  static_cast<unsigned long long>(r.items_total),
                  static_cast<unsigned long long>(r.rtt_p50_ns),
                  static_cast<unsigned long long>(r.rtt_p99_ns),
                  r.items_per_second, i + 1 < runs.size() ? "," : "");
    j += buf;
  }
  j += "  ]";
  if (mix_interactive != nullptr && mix_batch != nullptr) {
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        ",\n  \"mix\": {\n"
        "    \"interactive\": {\"connections\": %zu, \"items_total\": %llu, "
        "\"rtt_p50_ns\": %llu, \"rtt_p99_ns\": %llu, "
        "\"items_per_second\": %.1f},\n"
        "    \"batch\": {\"connections\": %zu, \"items_total\": %llu, "
        "\"items_per_second\": %.1f}\n  }",
        mix_interactive->connections,
        static_cast<unsigned long long>(mix_interactive->items_total),
        static_cast<unsigned long long>(mix_interactive->rtt_p50_ns),
        static_cast<unsigned long long>(mix_interactive->rtt_p99_ns),
        mix_interactive->items_per_second, mix_batch->connections,
        static_cast<unsigned long long>(mix_batch->items_total),
        mix_batch->items_per_second);
    j += buf;
  }
  j += "\n}\n";
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::uint64_t n = 0;
    if (arg.rfind("--unix=", 0) == 0) {
      cfg.unix_path = arg.substr(7);
    } else if (arg.rfind("--host=", 0) == 0) {
      cfg.host = arg.substr(7);
    } else if (arg.rfind("--port=", 0) == 0) {
      if (!parse_u64(arg.c_str() + 7, &n) || n == 0 || n > 65535)
        return usage();
      cfg.port = static_cast<std::uint16_t>(n);
    } else if (arg.rfind("--connections=", 0) == 0) {
      if (!parse_list(arg.substr(14), &cfg.connections)) return usage();
    } else if (arg.rfind("--items=", 0) == 0) {
      if (!parse_u64(arg.c_str() + 8, &n) || n == 0) return usage();
      cfg.items = static_cast<std::size_t>(n);
    } else if (arg.rfind("--batch=", 0) == 0) {
      if (!parse_u64(arg.c_str() + 8, &n) || n == 0 || n > 4096)
        return usage();
      cfg.batch = static_cast<std::uint32_t>(n);
    } else if (arg.rfind("--out=", 0) == 0) {
      cfg.out = arg.substr(6);
    } else if (arg.rfind("--stats-out=", 0) == 0) {
      cfg.stats_out = arg.substr(12);
    } else if (arg.rfind("--mix=", 0) == 0) {
      const std::string v = arg.substr(6);
      const std::size_t colon = v.find(':');
      std::uint64_t a = 0;
      std::uint64_t b = 0;
      if (colon == std::string::npos ||
          !parse_u64(v.substr(0, colon).c_str(), &a) ||
          !parse_u64(v.substr(colon + 1).c_str(), &b) || a == 0 || b == 0)
        return usage();
      cfg.mix_interactive = static_cast<std::size_t>(a);
      cfg.mix_batch = static_cast<std::size_t>(b);
    } else if (arg == "--expect-rejected") {
      cfg.expect_rejected = true;
    } else {
      std::fprintf(stderr, "sdaf_loadgen: unknown flag %s\n", arg.c_str());
      return usage();
    }
  }
  if (cfg.unix_path.empty() && cfg.port == 0) return usage();

  if (cfg.expect_rejected) {
    const int rc = run_expect_rejected(cfg);
    if (!cfg.stats_out.empty() && dump_stats(cfg) != 0) return 1;
    return rc;
  }

  std::vector<RunResult> runs;
  for (const std::size_t conns : cfg.connections) {
    RunResult r;
    if (!run_one(cfg, conns, &r)) {
      std::fprintf(stderr, "sdaf_loadgen: run with %zu connections failed\n",
                   conns);
      return 1;
    }
    std::fprintf(stderr,
                 "connections=%zu items=%llu p50=%lluns p99=%lluns "
                 "items/s=%.0f\n",
                 r.connections, static_cast<unsigned long long>(r.items_total),
                 static_cast<unsigned long long>(r.rtt_p50_ns),
                 static_cast<unsigned long long>(r.rtt_p99_ns),
                 r.items_per_second);
    runs.push_back(r);
  }

  TenantResult mix_interactive;
  TenantResult mix_batch;
  const bool have_mix = cfg.mix_interactive > 0 && cfg.mix_batch > 0;
  if (have_mix) {
    if (!run_mix(cfg, &mix_interactive, &mix_batch)) {
      std::fprintf(stderr, "sdaf_loadgen: --mix run failed\n");
      return 1;
    }
    std::fprintf(stderr,
                 "mix interactive=%zu items=%llu p50=%lluns p99=%lluns | "
                 "batch=%zu items=%llu items/s=%.0f\n",
                 mix_interactive.connections,
                 static_cast<unsigned long long>(mix_interactive.items_total),
                 static_cast<unsigned long long>(mix_interactive.rtt_p50_ns),
                 static_cast<unsigned long long>(mix_interactive.rtt_p99_ns),
                 mix_batch.connections,
                 static_cast<unsigned long long>(mix_batch.items_total),
                 mix_batch.items_per_second);
  }

  const std::string json =
      to_json(cfg, runs, have_mix ? &mix_interactive : nullptr,
              have_mix ? &mix_batch : nullptr);
  std::fputs(json.c_str(), stdout);
  if (!cfg.out.empty()) {
    std::ofstream f(cfg.out);
    f << json;
    if (!f) {
      std::fprintf(stderr, "sdaf_loadgen: cannot write %s\n", cfg.out.c_str());
      return 1;
    }
  }

  if (!cfg.stats_out.empty() && dump_stats(cfg) != 0) return 1;
  return 0;
}
