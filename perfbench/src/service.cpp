// service_mix: one load-generator process against an sdafd daemon that
// run.py spawned. Three closed-loop connections share the daemon's pool:
// one interactive tenant (weight 4, 1-item push -> poll-until-delivered on
// a 3-node relay pipeline) and two batch connections (weight 1, 64-item
// push_some + drain on a seeded filtering ladder). A fourth connection
// reads the STATS page at the window's edges and samples the credit gauge.
#include <algorithm>
#include <atomic>
#include <thread>

#include "driver.h"
#include "src/core/compile.h"
#include "src/graph/io.h"
#include "src/net/client.h"
#include "src/net/workload.h"
#include "src/support/prng.h"
#include "src/workloads/random_ladder.h"

namespace perfbench {

using namespace sdaf;

namespace {

constexpr const char* kInteractiveTopology =
    "node src\n"
    "node mid\n"
    "node dst\n"
    "edge src mid 16\n"
    "edge mid dst 16\n";
constexpr std::size_t kBatchItems = 64;   // values per push_some
constexpr std::uint32_t kBatchPoll = 512;
constexpr double kBatchPass = 0.5;
constexpr std::size_t kBatchConnections = 2;
constexpr std::uint64_t kOraclePrefix = 50'000;
constexpr auto kWarmupTime = std::chrono::milliseconds(500);
constexpr auto kStatsEvery = std::chrono::milliseconds(50);

// Span names, shared by every connection's SpanLog.
enum SpanName : std::uint32_t {
  kRoundTrip = 0,   // interactive push -> delivered
  kBatchCycle = 1,  // batch push_some + drain
  kPushSome = 2,
  kPoll = 3,
};
const std::vector<std::string> kSpanNames = {"net.round_trip", "net.batch_cycle",
                                             "net.push_some", "net.poll"};

// Records a root span and its children once the root has ended (children
// are timed first, so they are buffered until the parent's index exists).
struct SpanTree {
  struct Child {
    std::uint32_t name;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  std::vector<Child> children;

  void child(std::uint32_t name, std::int64_t start_ns, std::int64_t end_ns) {
    children.push_back({name, start_ns, end_ns});
  }
  void flush(SpanLog* log, std::uint32_t root, std::uint64_t id,
             std::int64_t start_ns, std::int64_t end_ns) {
    const std::uint32_t parent = log->record(root, id, start_ns, end_ns);
    for (const Child& c : children)
      log->record(c.name, id, c.start_ns, c.end_ns, parent);
    children.clear();
  }
};

net::OpenFrame interactive_spec() {
  net::OpenFrame f;
  f.backend = static_cast<std::uint8_t>(exec::Backend::Pooled);
  f.mode = static_cast<std::uint8_t>(runtime::DummyMode::Propagation);
  f.kernel = net::KernelKind::Relay;
  f.pass_rate = 1.0;
  f.tenant = "interactive";
  f.weight = 4.0;
  f.topology = kInteractiveTopology;
  return f;
}

// The batch tenants' topology is one fixed SP-ladder; the run's seed drives
// its filters. (A seeded shape would make a run's cost depend on which
// ladder the seed drew, not on the system.)
net::OpenFrame batch_spec(std::uint64_t seed) {
  Prng rng(0xBA7C4ULL);
  workloads::RandomLadderOptions lopt;
  lopt.rungs = 3;
  lopt.left_interior = 4;
  lopt.right_interior = 4;
  lopt.max_buffer = 8;
  net::OpenFrame f;
  f.backend = static_cast<std::uint8_t>(exec::Backend::Pooled);
  f.mode = static_cast<std::uint8_t>(runtime::DummyMode::Propagation);
  f.kernel = net::KernelKind::Relay;
  f.pass_rate = kBatchPass;
  f.seed = seed;
  f.batch = 16;
  f.tenant = "batch";
  f.weight = 1.0;
  f.topology = to_text(workloads::random_ladder(rng, lopt));
  return f;
}

// Per-phase tallies of one connection (written by its own thread only).
struct Tally {
  std::uint64_t ops = 0;        // round trips / push_some calls
  std::uint64_t items = 0;      // items accepted
  std::uint64_t polls = 0;
  std::uint64_t delivered = 0;
  SampleSet rtt_ns;
};

// One closed-loop connection.
struct Conn {
  std::optional<net::Client> client;
  std::optional<net::ClientStream> stream;
  double open_ms = 0.0;
  std::vector<Tally> tally = std::vector<Tally>(kPhases);  // per Phase
  SpanLog log{kSpanNames};
  std::string error;
  std::uint64_t failed = 0;
  std::uint64_t next_seq = 0;  // items accepted so far == next seq
  std::uint64_t next_delivery = 0;
  std::vector<std::uint64_t> prefix_seqs;
  exec::RunReport verdict;

  void fail(const std::string& why) {
    if (error.empty()) error = why;
  }
};

bool open_conn(Conn* c, const std::string& socket, std::uint16_t id,
               const net::OpenFrame& spec) {
  const std::int64_t t0 = now_ns();
  c->client = net::Client::connect_unix(socket);
  if (!c->client.has_value()) {
    c->fail("connect to " + socket + " failed");
    return false;
  }
  c->stream.emplace(c->client->open(id, spec));
  c->open_ms = static_cast<double>(now_ns() - t0) * 1e-6;
  return true;
}

// Checks and records delivered items: in order, exactly once, carrying
// their own sequence number as value.
void accept_items(Conn* c, const net::DeliverFrame& d, Tally* t,
                  bool every_seq) {
  for (const auto& item : d.items) {
    if (item.seq < c->next_delivery || (every_seq && item.seq != c->next_delivery))
      c->fail("seq " + std::to_string(item.seq) + " delivered out of order, "
              "twice or with a gap (expected " +
              std::to_string(c->next_delivery) + ")");
    if (!carries_seq(item.value, item.seq))
      c->fail("seq " + std::to_string(item.seq) + " carries a wrong value");
    c->next_delivery = item.seq + 1;
    if (item.seq < kOraclePrefix) c->prefix_seqs.push_back(item.seq);
  }
  t->delivered += d.items.size();
}

// Close, drain to end-of-stream, Finish: the verdict must be completed.
void finish_conn(Conn* c, bool every_seq) {
  c->stream->close(0);
  Tally scratch;
  for (;;) {
    const net::DeliverFrame d = c->stream->poll(0, kBatchPoll);
    accept_items(c, d, &scratch, every_seq);
    if (d.ended != 0) break;
    if (d.items.empty()) std::this_thread::yield();
  }
  c->verdict = c->stream->finish();
  if (!c->verdict.completed || c->verdict.deadlocked)
    c->fail("verdict is not completed: " + c->verdict.state_dump);
}

void interactive_loop(Conn* c, const std::atomic<std::size_t>* phase) {
  try {
    SpanTree spans;
    for (;;) {
      const std::size_t p = phase->load(std::memory_order_acquire);
      if (p == kTail) break;
      Tally& t = c->tally[p];
      SpanLog* log = p == kTraced ? &c->log : nullptr;
      const std::uint64_t seq = c->next_seq;
      const std::int64_t t0 = now_ns();
      const net::PushAckFrame ack = c->stream->push_some(
          0, {runtime::Value(static_cast<std::int64_t>(seq))});
      const std::int64_t t1 = now_ns();
      if (ack.ended != 0) {
        ++c->failed;
        c->fail("interactive port ended before close");
        break;
      }
      if (ack.accepted == 0) continue;  // backpressure: retry
      ++c->next_seq;
      ++t.items;
      std::int64_t poll_start = t1;
      std::uint64_t got = 0;
      while (got == 0) {
        const net::DeliverFrame d = c->stream->poll(0, 1);
        const std::int64_t now = now_ns();
        if (log != nullptr) spans.child(kPoll, poll_start, now);
        poll_start = now;
        ++t.polls;
        accept_items(c, d, &t, true);
        got = d.items.size();
        if (d.ended != 0) break;
      }
      const std::int64_t t2 = now_ns();
      if (log != nullptr) {
        spans.child(kPushSome, t0, t1);
        spans.flush(log, kRoundTrip, seq, t0, t2);
      }
      ++t.ops;
      t.rtt_ns.add(static_cast<double>(t2 - t0));
    }
    finish_conn(c, true);
  } catch (const std::exception& e) {
    ++c->failed;
    c->fail(std::string("connection failed: ") + e.what());
  }
}

void batch_loop(Conn* c, const std::atomic<std::size_t>* phase) {
  try {
    std::vector<runtime::Value> values;
    SpanTree spans;
    for (;;) {
      const std::size_t p = phase->load(std::memory_order_acquire);
      if (p == kTail) break;
      Tally& t = c->tally[p];
      SpanLog* log = p == kTraced ? &c->log : nullptr;
      values.clear();
      for (std::size_t i = 0; i < kBatchItems; ++i)
        values.emplace_back(static_cast<std::int64_t>(c->next_seq + i));
      const std::int64_t t0 = now_ns();
      const net::PushAckFrame ack = c->stream->push_some(0, values);
      const std::int64_t t1 = now_ns();
      if (log != nullptr) spans.child(kPushSome, t0, t1);
      ++t.ops;
      t.rtt_ns.add(static_cast<double>(t1 - t0));
      if (ack.ended != 0) {
        ++c->failed;
        c->fail("batch port ended before close");
        break;
      }
      const std::uint64_t id = c->next_seq;
      c->next_seq += ack.accepted;
      t.items += ack.accepted;
      // Drain what the push let through; stop at the first empty poll.
      for (;;) {
        const std::int64_t p0 = now_ns();
        const net::DeliverFrame d = c->stream->poll(0, kBatchPoll);
        if (log != nullptr) spans.child(kPoll, p0, now_ns());
        ++t.polls;
        accept_items(c, d, &t, false);
        if (d.items.empty() || d.ended != 0) break;
      }
      if (log != nullptr) spans.flush(log, kBatchCycle, id, t0, now_ns());
    }
    finish_conn(c, false);
  } catch (const std::exception& e) {
    ++c->failed;
    c->fail(std::string("connection failed: ") + e.what());
  }
}

// The STATS families the benchmark reads, keyed like read_layers() keys
// the in-process counters. Pool counters repeat on every stream's
// snapshot (one shared pool), so they are read from the interactive one.
Counters stats_counters(const std::vector<PromSample>& s) {
  Counters c;
  const auto put = [&](const char* key, const char* family,
                       const std::map<std::string, std::string>& match) {
    c[key] = prom_sum(s, family, match).value_or(0.0);
  };
  const std::map<std::string, std::string> any = {{"tenant", "*"}};
  const std::map<std::string, std::string> one = {{"tenant", "interactive/*"}};
  put("ch.data", "sdaf_channel_data_pushed_total", any);
  put("ch.dummies", "sdaf_channel_dummies_pushed_total", any);
  put("ch.full_stalls", "sdaf_channel_full_stalls_total", any);
  put("ch.empty_waits", "sdaf_channel_empty_waits_total", any);
  put("node.fires", "sdaf_node_fires_total", any);
  put("pool.task_runs", "sdaf_worker_task_runs_total", one);
  put("pool.wakes", "sdaf_worker_wakes_total", one);
  put("pool.steals", "sdaf_worker_steals_total", one);
  put("pool.steal_fails", "sdaf_worker_steal_fails_total", one);
  put("pool.futex_parks", "sdaf_worker_futex_parks_total", one);
  for (const char* tenant : {"interactive", "batch"}) {
    const std::map<std::string, std::string> t = {{"tenant", tenant}};
    c[std::string("lane.") + tenant + ".dequeued"] =
        prom_sum(s, "sdaf_tenant_sched_dequeued_total", t).value_or(0.0);
    c[std::string("lane.") + tenant + ".depth_max"] =
        prom_max(s, "sdaf_tenant_queue_depth_max", t).value_or(0.0);
  }
  put("net.frames", "sdafd_frames_total", {});
  put("net.push_timeouts", "sdafd_push_timeouts_total", {});
  return c;
}

// The monitor connection: STATS reads at the window's edges plus the
// sampled credit gauge in between.
class Monitor {
 public:
  explicit Monitor(const std::string& socket)
      : client_(net::Client::connect_unix(socket)) {}
  [[nodiscard]] bool ok() const { return client_.has_value(); }

  std::optional<std::vector<PromSample>> read() {
    ++requests_;
    return parse_prometheus(client_->stats());
  }

  // Samples the batch tenant's credits in flight until `until_ns`.
  double sample_credits_until(std::int64_t until_ns) {
    double peak = 0.0;
    while (now_ns() < until_ns) {
      std::this_thread::sleep_for(kStatsEvery);
      if (const auto s = read())
        peak = std::max(peak, prom_max(*s, "sdaf_tenant_credits_in_flight",
                                       {{"tenant", "batch"}})
                                  .value_or(0.0));
    }
    return peak;
  }

  [[nodiscard]] std::uint64_t requests() const { return requests_; }

 private:
  std::optional<net::Client> client_;
  std::uint64_t requests_ = 0;
};

struct Edge {
  std::int64_t t_ns = 0;
  double cpu_s = 0.0;
  std::uint64_t stats_requests = 0;
  Counters layers;
};

}  // namespace

Result run_service_probe(const Options& o) {
  Result r;
  Conn c;
  try {
    if (!open_conn(&c, o.socket, 1, interactive_spec())) {
      r.fail(c.error);
      return r;
    }
    finish_conn(&c, true);
    r.info["interactive.open_ms"] = c.open_ms;
  } catch (const net::ProtocolError& e) {
    r.fail(std::string("protocol error: ") + e.what());
  }
  if (!c.error.empty()) r.fail(c.error);
  r.attempted = 1;
  return r;
}

Result run_service_mix(const Options& o) {
  Result r;
  const Window win = split_window(o);
  const net::OpenFrame ispec = interactive_spec();
  const net::OpenFrame bspec = batch_spec(o.seed);

  Conn inter;
  std::vector<Conn> batch(kBatchConnections);
  try {
    if (!open_conn(&inter, o.socket, 1, ispec)) {
      r.fail(inter.error);
      return r;
    }
    for (auto& b : batch) {
      if (!open_conn(&b, o.socket, 1, bspec)) {
        r.fail(b.error);
        return r;
      }
    }
  } catch (const net::ProtocolError& e) {
    ++r.failed;
    r.fail(std::string("open failed: ") + e.what());
    return r;
  }
  Monitor monitor(o.socket);
  if (!monitor.ok()) {
    r.fail("monitor connection failed");
    return r;
  }

  std::atomic<std::size_t> phase{0};
  std::vector<std::thread> threads;
  threads.emplace_back(interactive_loop, &inter, &phase);
  for (auto& b : batch) threads.emplace_back(batch_loop, &b, &phase);

  const auto edge = [&]() -> std::optional<Edge> {
    Edge e;
    const auto s = monitor.read();
    if (!s.has_value()) return std::nullopt;
    e.t_ns = now_ns();
    e.cpu_s = process_cpu_seconds(o.daemon_pid);
    e.stats_requests = monitor.requests();
    e.layers = stats_counters(*s);
    return e;
  };
  const auto tally_sum = [&](std::size_t p, std::uint64_t Tally::*field) {
    std::uint64_t sum = 0;
    for (const auto& b : batch) sum += b.tally[p].*field;
    return sum;
  };

  std::this_thread::sleep_for(kWarmupTime +
                              std::chrono::duration<double>(kSettleSeconds));
  // Untraced window: only the daemon's /proc counters, plus in a traced run
  // the same STATS sampling as the traced half.
  phase.store(kUntraced, std::memory_order_release);
  const std::int64_t w0 = now_ns();
  const double wcpu0 = process_cpu_seconds(o.daemon_pid);
  const std::int64_t w_end = w0 + static_cast<std::int64_t>(win.untraced_s * 1e9);
  if (o.trace)
    (void)monitor.sample_credits_until(w_end);
  else
    std::this_thread::sleep_for(std::chrono::nanoseconds(w_end - now_ns()));
  WindowTotals untraced{static_cast<double>(now_ns() - w0) * 1e-9,
                        process_cpu_seconds(o.daemon_pid) - wcpu0, 0.0};
  const double rss_mib = peak_rss_mib(o.daemon_pid);
  std::optional<Edge> e2, e3;
  double credits_peak = 0.0;
  if (o.trace) {
    phase.store(kTraced, std::memory_order_release);
    e2 = edge();
    if (e2)
      credits_peak = monitor.sample_credits_until(
          e2->t_ns + static_cast<std::int64_t>(win.traced_s * 1e9));
    e3 = edge();
  }
  phase.store(kTail, std::memory_order_release);
  for (auto& t : threads) t.join();

  // ---- correctness
  if (o.trace && (!e2 || !e3)) r.fail("STATS page did not parse");
  for (Conn* c : {&inter, &batch[0], &batch[1]}) {
    if (!c->error.empty()) r.fail(c->error);
    r.failed += c->failed;
  }
  if (inter.next_delivery != inter.next_seq)
    r.fail("interactive: " + std::to_string(inter.next_seq) + " accepted, " +
           std::to_string(inter.next_delivery) + " delivered");
  {
    // Oracle: each batch stream delivers exactly the Sim run's sequence
    // numbers over the first kOraclePrefix items.
    const auto g = net::parse_topology(bspec.topology);
    if (!g.has_value()) {
      r.fail("batch topology does not parse");
    } else {
      exec::RunSpec run;
      run.mode = runtime::DummyMode::Propagation;
      run.batch = bspec.batch;
      run.apply(core::compile(*g));
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const std::uint64_t prefix = std::min(batch[i].next_seq, kOraclePrefix);
        const auto expect =
            sim_delivered(*g, net::make_kernels(*g, bspec), run, prefix);
        if (expect != batch[i].prefix_seqs)
          r.fail("batch connection " + std::to_string(i) +
                 ": delivered seqs differ from the Sim oracle over the first " +
                 std::to_string(prefix) + " items");
      }
    }
  }
  if (!r.correct) return r;

  // ---- end-to-end (untraced window)
  for (const Phase p : {kUntraced, kTraced})
    r.attempted += inter.tally[p].ops + tally_sum(p, &Tally::ops);
  untraced.items = static_cast<double>(tally_sum(kUntraced, &Tally::items));
  report_window(&r, untraced, inter.tally[kUntraced].rtt_ns, !o.trace);
  r.e2e["peak_rss_mb"] = rss_mib;
  // setup_s: run.py adds the daemon's start-up to this connect + open.
  r.info["interactive.open_ms"] = inter.open_ms;
  r.info["net.open_ms"] = median({inter.open_ms, batch[0].open_ms, batch[1].open_ms});

  if (!o.trace || !e2 || !e3) return r;

  // ---- per-layer (traced window)
  const WindowDiff w = diff_window(e2->layers, e3->layers);
  check_window_counters(&r, w);
  const double twall = static_cast<double>(e3->t_ns - e2->t_ns) * 1e-9;
  const double tbatch = static_cast<double>(tally_sum(kTraced, &Tally::items));
  const double tall = tbatch + static_cast<double>(inter.tally[kTraced].items);
  derive_layers(w.delta, tall, twall, e3->cpu_s - e2->cpu_s, &r.layer);
  r.info["trace.throughput_items_per_s"] = tbatch / twall;
  for (const char* k : {"core.compile_ms", "exec.open_ms", "exec.push_call_p50_ns",
                        "exec.push_call_p99_ns", "exec.push_blocked_frac",
                        "exec.poll_call_p50_ns", "exec.poll_empty_frac"})
    r.layer[k] = 0.0;  // inside the daemon: not observable from the client
  r.layer["qos.lane_depth_max.interactive"] =
      value_or_zero(e3->layers, "lane.interactive.depth_max");
  r.layer["qos.lane_depth_max.batch"] = value_or_zero(e3->layers, "lane.batch.depth_max");
  r.layer["qos.credits_in_flight_max.batch"] = credits_peak;

  SampleSet push_rtt;
  for (const auto& b : batch) push_rtt.merge(b.log.durations(kPushSome));
  put_quantile(&r, &r.layer, "net.push_rtt_p50_us", push_rtt, 0.50, 1e-3, false);
  put_quantile(&r, &r.layer, "net.push_rtt_p99_us", push_rtt, 0.99, 1e-3, false);
  put_quantile(&r, &r.layer, "net.poll_rtt_p50_us", inter.log.durations(kPoll), 0.50,
               1e-3, false);
  const Tally& it = inter.tally[kTraced];
  r.layer["net.polls_per_delivery"] =
      it.delivered > 0 ? static_cast<double>(it.polls) / static_cast<double>(it.delivered)
                       : 0.0;
  const double pushes =
      static_cast<double>(it.ops + tally_sum(kTraced, &Tally::ops));
  r.layer["net.short_ack_frac"] =
      pushes > 0 ? value_or_zero(w.delta, "net.push_timeouts") / pushes : 0.0;
  const double monitor_frames =
      static_cast<double>(e3->stats_requests - e2->stats_requests);
  r.layer["net.frames_per_item"] =
      tall > 0 ? (value_or_zero(w.delta, "net.frames") - monitor_frames) / tall : 0.0;
  r.layer["net.open_ms"] = r.info["net.open_ms"];
  if (!o.trace_out.empty())
    write_trace(o.trace_out, {&inter.log, &batch[0].log, &batch[1].log});
  return r;
}

}  // namespace perfbench
