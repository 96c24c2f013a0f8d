// The two in-process workloads: filtered_ingest (a pooled exec::Stream fed
// by one pusher and drained by one poller) and wide_ladder (repeated
// Session::run rounds of a ~1000-node ladder on a shared pool).
#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <thread>

#include <sched.h>

#include "driver.h"
#include "src/core/compile.h"
#include "src/exec/session.h"
#include "src/exec/stream.h"
#include "src/obs/metrics.h"
#include "src/runtime/pool_executor.h"
#include "src/support/prng.h"
#include "src/workloads/filters.h"
#include "src/workloads/random_ladder.h"
#include "src/workloads/topologies.h"

namespace perfbench {

using namespace sdaf;

std::vector<std::uint64_t> sim_delivered(
    const StreamGraph& g,
    const std::vector<std::shared_ptr<runtime::Kernel>>& kernels,
    const exec::RunSpec& run, std::uint64_t items) {
  exec::Session session(g, kernels);
  exec::StreamSpec spec;
  spec.run = run;
  spec.run.backend = exec::Backend::Sim;
  spec.run.pool = nullptr;
  spec.run.credits = nullptr;
  spec.run.metrics = nullptr;
  spec.metrics = false;
  exec::Stream stream = session.open(spec);
  std::vector<std::uint64_t> seqs;
  std::vector<exec::OutputPort::Item> buf;
  exec::InputPort& in = stream.input(0);
  exec::OutputPort& out = stream.output(0);
  const auto drain = [&] {
    buf.clear();
    out.poll_batch(&buf, buf.max_size());
    for (const auto& item : buf) seqs.push_back(item.seq);
  };
  for (std::uint64_t i = 0; i < items; ++i) {
    while (!in.try_push()) drain();
  }
  in.close();
  while (!out.ended()) {
    auto item = out.next();
    if (!item.has_value()) break;
    seqs.push_back(item->seq);
  }
  (void)stream.finish();
  return seqs;
}

namespace {

// Counters of the exec/runtime/pool/qos layers, keyed the same way the
// service workload keys what it parses from the STATS page.
Counters read_layers(const obs::MetricsSnapshot* stream,
                     const runtime::PoolExecutor& pool) {
  Counters c;
  if (stream != nullptr) {
    for (const auto& ch : stream->channels) {
      c["ch.data"] += static_cast<double>(ch.data_pushed);
      c["ch.dummies"] += static_cast<double>(ch.dummies_pushed);
      c["ch.full_stalls"] += static_cast<double>(ch.full_stalls);
      c["ch.empty_waits"] += static_cast<double>(ch.empty_waits);
    }
    for (const auto& n : stream->nodes)
      c["node.fires"] += static_cast<double>(n.fires);
  }
  for (const auto& w : pool.worker_metrics()) {
    c["pool.task_runs"] += static_cast<double>(w.task_runs);
    c["pool.wakes"] += static_cast<double>(w.wakes);
    c["pool.steals"] += static_cast<double>(w.steals);
    c["pool.steal_fails"] += static_cast<double>(w.steal_fails);
    c["pool.futex_parks"] += static_cast<double>(w.futex_parks);
  }
  for (const auto& t : pool.tenant_metrics()) {
    c["lane." + t.tenant + ".dequeued"] = static_cast<double>(t.dequeued);
    c["lane." + t.tenant + ".depth_max"] = static_cast<double>(t.queue_depth_max);
  }
  return c;
}

Counters registry_counters(const StreamGraph& g,
                           const obs::MetricsRegistry& registry,
                           const runtime::PoolExecutor& pool) {
  const obs::MetricsSnapshot snap = obs::snapshot(g, registry, {});
  return read_layers(&snap, pool);
}

std::size_t hardware_threads() {
  return std::max<unsigned>(1, std::thread::hardware_concurrency());
}

// The CPUs this process may run on, in order.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  return cpus;
}

// Pins the calling thread to one CPU (cpu < 0: leaves it free). Threads it
// starts afterwards inherit the pin.
void pin_self(int cpu) {
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)sched_setaffinity(0, sizeof(set), &set);
}

bool same_traffic(const exec::RunReport& a, const exec::RunReport& b,
                  std::string* why) {
  if (a.edges.size() != b.edges.size()) {
    *why = "edge count";
    return false;
  }
  for (std::size_t e = 0; e < a.edges.size(); ++e) {
    if (a.edges[e].data != b.edges[e].data ||
        a.edges[e].dummies != b.edges[e].dummies) {
      *why = "edge " + std::to_string(e) + " traffic data=" +
             std::to_string(a.edges[e].data) + "/" +
             std::to_string(b.edges[e].data) + " dummies=" +
             std::to_string(a.edges[e].dummies) + "/" +
             std::to_string(b.edges[e].dummies);
      return false;
    }
  }
  if (a.fires != b.fires) {
    *why = "fires";
    return false;
  }
  if (a.sink_data != b.sink_data) {
    *why = "sink_data";
    return false;
  }
  return true;
}

// ----------------------------------------------------------- filtered_ingest

constexpr double kIngestPass = 0.1;
constexpr std::uint32_t kIngestQuantum = 64;  // RunSpec::batch
constexpr std::size_t kPushBatch = 64;        // items per push_batch call
constexpr std::size_t kPollMax = 256;
// Items the input port buffers (the default is 256). The pusher parks on a
// full feed and is woken by the worker's pops; with 256 the worker often
// ran dry while the pusher's CPU woke up, so the figures followed the
// host's wake-up latency (rtt_p50_us spread up to 25% over ten runs on a
// shared 4-vCPU VM). With 4096 the worker always has input and the window
// measures the chain's own work.
constexpr std::size_t kFeedCapacity = 4096;
constexpr std::uint64_t kOraclePrefix = 200'000;
// A set-up here takes about 0.1 ms, mostly thread start-up, so the median
// is taken over more of them than kSetupReps.
constexpr std::size_t kIngestSetupReps = 25;
constexpr std::size_t kStampRing = std::size_t{1} << 16;  // batches in flight
// Round-trip samples kept per phase. A window delivers several hundred
// thousand items; keeping them all made the benchmark's own sample vector
// the part of peak_rss_mb that moved: whether a run crossed a power-of-two
// growth of the vector (4 MiB more at once) decided a quarter of the
// figure. The reservoir fills in the window's first seconds, so every run
// holds the same 512 KiB.
constexpr std::size_t kRttKept = std::size_t{1} << 16;

// The drainer's per-phase tallies (written by the drainer thread only,
// read by the pusher after join()).
struct DrainTally {
  std::uint64_t polls = 0;
  std::uint64_t empty_polls = 0;
  std::uint64_t delivered = 0;
  SampleSet rtt_ns{kRttKept};
};

// One pusher (the caller) and one drainer thread around a live stream. The
// pusher moves the loop through the phases (see Phase); the drainer files
// its tallies under the phase current when each poll starts.
class IngestLoop {
 public:
  IngestLoop(exec::Stream* stream, std::uint64_t oracle_prefix, int drain_cpu)
      : stream_(stream),
        prefix_(oracle_prefix),
        stamps_(kStampRing),
        tally_(kPhases) {
    drainer_ = std::thread([this, drain_cpu] {
      pin_self(drain_cpu);
      drain();
    });
  }
  ~IngestLoop() { stop(); }
  IngestLoop(const IngestLoop&) = delete;
  IngestLoop& operator=(const IngestLoop&) = delete;

  // Pushes until `until_ns` (or `items` items when until_ns == 0).
  // Returns false when the port refused items (stream ended early).
  bool push(std::int64_t until_ns, std::uint64_t items, SpanLog* log) {
    exec::InputPort& in = stream_->input(0);
    const std::uint64_t goal = pushed_ + items;
    for (;;) {
      if (until_ns == 0 ? pushed_ >= goal : now_ns() >= until_ns) return true;
      const std::uint64_t batch = pushed_ / kPushBatch;
      const std::int64_t t0 = now_ns();
      stamps_[batch % kStampRing].store(t0, std::memory_order_relaxed);
      const std::size_t accepted =
          in.push_batch(std::vector<runtime::Value>(kPushBatch));
      ++push_calls_;
      if (log != nullptr) log->record(0, batch, t0, now_ns());
      pushed_ += accepted;
      if (accepted != kPushBatch) return false;
    }
  }

  void set_phase(std::size_t p) { phase_.store(p, std::memory_order_release); }
  void set_drain_log(SpanLog* log) { drain_log_ = log; }

  // Closes the port and waits for the drainer to see end-of-stream.
  void stop() {
    if (!drainer_.joinable()) return;
    set_phase(kTail);
    stream_->input(0).close();
    drainer_.join();
  }

  [[nodiscard]] std::uint64_t pushed() const { return pushed_; }
  [[nodiscard]] std::uint64_t push_calls() const { return push_calls_; }
  [[nodiscard]] const DrainTally& tally(std::size_t p) const { return tally_[p]; }
  [[nodiscard]] const std::vector<std::uint64_t>& prefix_seqs() const {
    return prefix_seqs_;
  }
  [[nodiscard]] const std::string& drain_error() const { return drain_error_; }

 private:
  void drain() {
    exec::OutputPort& out = stream_->output(0);
    std::vector<exec::OutputPort::Item> buf;
    buf.reserve(kPollMax);
    std::uint64_t next_min = 0;
    while (!out.ended()) {
      const std::size_t p = phase_.load(std::memory_order_acquire);
      DrainTally& t = tally_[p];
      SpanLog* log = p == kTraced ? drain_log_ : nullptr;
      const std::int64_t t0 = log != nullptr ? now_ns() : 0;
      buf.clear();
      const std::size_t n = out.poll_batch(&buf, kPollMax);
      ++t.polls;
      if (n == 0) {
        if (log != nullptr) log->record(1, 0, t0, now_ns());
        ++t.empty_polls;
        std::this_thread::yield();
        continue;
      }
      const std::int64_t t1 = now_ns();
      if (log != nullptr) log->record(1, buf.front().seq / kPushBatch, t0, t1);
      for (const auto& item : buf) {
        if (item.seq < next_min && drain_error_.empty())
          drain_error_ = "seq " + std::to_string(item.seq) +
                         " delivered out of order or twice";
        next_min = item.seq + 1;
        if (drain_error_.empty() && !carries_seq(item.value, item.seq))
          drain_error_ = "seq " + std::to_string(item.seq) + " carries a wrong value";
        if (item.seq < prefix_) prefix_seqs_.push_back(item.seq);
        const std::int64_t stamp =
            stamps_[(item.seq / kPushBatch) % kStampRing].load(
                std::memory_order_relaxed);
        t.rtt_ns.add(static_cast<double>(t1 - stamp));
      }
      t.delivered += n;
    }
  }

  exec::Stream* stream_;
  std::uint64_t prefix_;
  std::vector<std::atomic<std::int64_t>> stamps_;
  std::atomic<std::size_t> phase_{0};
  SpanLog* drain_log_ = nullptr;
  std::uint64_t pushed_ = 0;
  std::uint64_t push_calls_ = 0;
  std::vector<DrainTally> tally_;
  std::vector<std::uint64_t> prefix_seqs_;
  std::string drain_error_;
  std::thread drainer_;  // last: joins before the tallies it writes go away
};

struct Mark {
  std::int64_t t_ns = 0;
  double cpu_s = 0.0;
  std::uint64_t items = 0;
  std::uint64_t ops = 0;
  Counters layers;
};

}  // namespace

Result run_filtered_ingest(const Options& o) {
  Result r;
  const Window win = split_window(o);
  const StreamGraph g = workloads::continuation_ladder(4, 64, 1);
  const auto kernels = workloads::relay_kernels(g, kIngestPass, o.seed);
  // One pool worker: the chain has about one ready node at a time, and a
  // second worker mostly adds wake-ups (on a 4-CPU host two workers gave
  // 0.6-1.0M items/s from run to run, one worker 1.25-1.5M). With three or
  // more CPUs the pusher, the drainer and the worker get one CPU each, so
  // where the scheduler happens to put them does not move the figures.
  const std::size_t workers = 1;
  const std::vector<int> cpus = allowed_cpus();
  const bool pin = cpus.size() >= 3;
  const int pusher_cpu = pin ? cpus[0] : -1;
  const int drainer_cpu = pin ? cpus[1] : -1;
  const int worker_cpu = pin ? cpus[2] : -1;
  r.info["pool.workers"] = static_cast<double>(workers);
  r.info["graph.nodes"] = static_cast<double>(g.node_count());

  std::vector<double> setup_s, compile_ms, open_ms;
  std::unique_ptr<runtime::PoolExecutor> pool;
  std::unique_ptr<exec::Session> session;
  std::unique_ptr<exec::Stream> stream;
  std::unique_ptr<IngestLoop> loop;
  exec::StreamSpec spec;
  for (std::size_t rep = 0; rep < kIngestSetupReps; ++rep) {
    if (loop) {
      loop->stop();
      (void)stream->finish();
      loop.reset();
      stream.reset();
      session.reset();
      pool.reset();
    }
    const std::int64_t t0 = now_ns();
    const core::CompileResult compiled = core::compile(g);
    const std::int64_t t1 = now_ns();
    if (!compiled.ok) {
      r.fail("compile rejected the continuation ladder: " + compiled.diagnostics);
      return r;
    }
    pin_self(worker_cpu);  // the pool's worker inherits this pin
    pool = std::make_unique<runtime::PoolExecutor>(workers);
    pin_self(pusher_cpu);
    session = std::make_unique<exec::Session>(g, kernels);
    spec = exec::StreamSpec{};
    spec.run.backend = exec::Backend::Pooled;
    spec.run.mode = runtime::DummyMode::Propagation;
    spec.run.apply(compiled);
    spec.run.batch = kIngestQuantum;
    spec.run.pool = pool.get();
    spec.run.tenant = "batch";
    spec.feed_capacity = kFeedCapacity;
    const std::int64_t t2 = now_ns();
    stream = std::make_unique<exec::Stream>(session->open(spec));
    const std::int64_t t3 = now_ns();
    // Ready to push. The warm-up is the unmeasured settle below: a timed
    // warm-up runs cold, and its time followed the shared host far more
    // than the window's throughput did (+29% against 4% between two sets
    // of ten runs).
    loop = std::make_unique<IngestLoop>(stream.get(), kOraclePrefix, drainer_cpu);
    setup_s.push_back(static_cast<double>(t3 - t0) * 1e-9);
    compile_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
    open_ms.push_back(static_cast<double>(t3 - t2) * 1e-6);
  }

  const auto mark = [&](std::uint64_t ops) {
    Mark m;
    m.t_ns = now_ns();
    m.cpu_s = process_cpu_seconds();
    m.items = loop->pushed();
    m.ops = ops;
    const obs::MetricsSnapshot snap = stream->metrics();
    m.layers = read_layers(&snap, *pool);
    return m;
  };

  SpanLog push_log({"exec.push_batch"});
  SpanLog poll_log({"exec.push_batch", "exec.poll_batch"});
  loop->set_drain_log(&poll_log);

  // Settle before the window: the first second after set-up runs slower.
  if (!loop->push(now_ns() + static_cast<std::int64_t>(kSettleSeconds * 1e9), 0,
                  nullptr)) {
    r.fail("stream ended while settling");
    return r;
  }
  // One window: marks (counter reads included) at both edges.
  const auto window = [&](Phase p, double seconds, SpanLog* log, Mark* start,
                          Mark* end) {
    loop->set_phase(p);
    *start = mark(loop->push_calls());
    const bool pushed =
        loop->push(start->t_ns + static_cast<std::int64_t>(seconds * 1e9), 0, log);
    *end = mark(loop->push_calls());
    return pushed;
  };
  const auto totals = [](const Mark& a, const Mark& b) {
    return WindowTotals{static_cast<double>(b.t_ns - a.t_ns) * 1e-9, b.cpu_s - a.cpu_s,
                        static_cast<double>(b.items - a.items)};
  };
  Mark m0, m1;
  bool ok = window(kUntraced, win.untraced_s, nullptr, &m0, &m1);
  const double rss_mib = peak_rss_mib();
  Counters traced_end;
  if (ok && o.trace) {
    Mark t0, t1;
    ok = window(kTraced, win.traced_s, &push_log, &t0, &t1);
    const WindowDiff w = diff_window(t0.layers, t1.layers);
    check_window_counters(&r, w);
    const WindowTotals t = totals(t0, t1);
    derive_layers(w.delta, t.items, t.wall_s, t.cpu_s, &r.layer);
    r.info["trace.throughput_items_per_s"] = t.items / t.wall_s;
    traced_end = t1.layers;
  }
  loop->stop();
  const exec::RunReport report = stream->finish();

  r.attempted = loop->push_calls() - m0.ops;
  if (!ok) {
    ++r.failed;
    r.fail("push_batch returned short: the stream ended before close");
  }
  if (!report.completed || report.deadlocked)
    r.fail("stream verdict is not completed: " + report.state_dump);
  if (!loop->drain_error().empty()) r.fail(loop->drain_error());

  // Oracle: the Sim backend delivers exactly the same sequence numbers.
  const std::uint64_t prefix = std::min(loop->pushed(), kOraclePrefix);
  const auto expect = sim_delivered(g, kernels, spec.run, prefix);
  if (expect != loop->prefix_seqs())
    r.fail("delivered seqs differ from the Sim oracle over the first " +
           std::to_string(prefix) + " items (" +
           std::to_string(loop->prefix_seqs().size()) + " vs " +
           std::to_string(expect.size()) + ")");
  // Traffic oracle: per-edge data/dummy counts, fires and sink data of a
  // prefix-sized pooled run equal the Sim run's.
  {
    exec::RunSpec run = spec.run;
    run.num_inputs = 20'000;
    const exec::RunReport pooled = session->run(run);
    run.backend = exec::Backend::Sim;
    run.pool = nullptr;
    const exec::RunReport sim = session->run(run);
    std::string why;
    if (!pooled.completed || !same_traffic(pooled, sim, &why))
      r.fail("pooled traffic differs from the Sim oracle: " + why);
  }

  report_window(&r, totals(m0, m1), loop->tally(kUntraced).rtt_ns, !o.trace);
  r.e2e["peak_rss_mb"] = rss_mib;
  r.e2e["setup_s"] = median(setup_s);

  if (o.trace) {
    const DrainTally& tt = loop->tally(kTraced);
    r.layer["core.compile_ms"] = median(compile_ms);
    r.layer["exec.open_ms"] = median(open_ms);
    put_quantile(&r, &r.layer, "exec.push_call_p50_ns", push_log.durations(0),
                 0.50, 1.0, false);
    put_quantile(&r, &r.layer, "exec.push_call_p99_ns", push_log.durations(0),
                 0.99, 1.0, false);
    r.layer["exec.push_blocked_frac"] = push_log.busy_ns(0) / (win.traced_s * 1e9);
    put_quantile(&r, &r.layer, "exec.poll_call_p50_ns", poll_log.durations(1),
                 0.50, 1.0, false);
    r.layer["exec.poll_empty_frac"] =
        tt.polls > 0 ? static_cast<double>(tt.empty_polls) / static_cast<double>(tt.polls)
                     : 0.0;
    r.layer["qos.lane_depth_max.batch"] = value_or_zero(traced_end, "lane.batch.depth_max");
    zero_service_layers(&r.layer);
    if (!o.trace_out.empty()) write_trace(o.trace_out, {&push_log, &poll_log});
  }
  return r;
}

// -------------------------------------------------------------- wide_ladder

// Items per round: the pool-scaling benchmark's ladder rounds
// (bench/bench_pool_scaling.cpp) carry as many.
constexpr std::uint64_t kRoundItems = 32;

Result run_wide_ladder(const Options& o) {
  Result r;
  const Window win = split_window(o);
  Prng rng(0x1ADDE5ULL ^ o.seed);
  workloads::RandomLadderOptions lopt;
  lopt.rungs = 250;
  lopt.left_interior = 500;
  lopt.right_interior = 500;
  lopt.component_edges = 1;
  lopt.max_buffer = 4;
  const StreamGraph g = workloads::random_ladder(rng, lopt);
  const auto kernels = workloads::relay_kernels(g, 1.0, o.seed);
  const std::size_t workers = hardware_threads();
  r.info["pool.workers"] = static_cast<double>(workers);
  r.info["graph.nodes"] = static_cast<double>(g.node_count());

  std::vector<double> setup_s, compile_ms, open_ms;
  std::unique_ptr<runtime::PoolExecutor> pool;
  std::unique_ptr<exec::Session> session;
  exec::RunSpec spec;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    session.reset();
    pool.reset();
    const std::int64_t t0 = now_ns();
    const core::CompileResult compiled = core::compile(g);
    const std::int64_t t1 = now_ns();
    if (!compiled.ok) {
      r.fail("compile rejected the ladder: " + compiled.diagnostics);
      return r;
    }
    pool = std::make_unique<runtime::PoolExecutor>(workers);
    session = std::make_unique<exec::Session>(g, kernels);
    spec = exec::RunSpec{};
    spec.backend = exec::Backend::Pooled;
    spec.mode = runtime::DummyMode::Propagation;
    spec.apply(compiled);
    spec.num_inputs = kRoundItems;
    spec.batch = 1;
    spec.pool = pool.get();
    spec.tenant = "batch";
    const std::int64_t t2 = now_ns();
    const exec::RunReport first = session->run(spec);
    const std::int64_t t3 = now_ns();
    if (!first.completed) {
      r.fail("first round did not complete");
      return r;
    }
    setup_s.push_back(static_cast<double>(t3 - t0) * 1e-9);
    compile_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
    open_ms.push_back(static_cast<double>(t3 - t2) * 1e-6);
  }

  // Oracle: every pooled round must match one Sim run of the same spec.
  exec::RunSpec sim_spec = spec;
  sim_spec.backend = exec::Backend::Sim;
  sim_spec.pool = nullptr;
  const exec::RunReport sim = session->run(sim_spec);
  if (!sim.completed) r.fail("Sim oracle run did not complete");

  std::uint64_t rounds = 0;
  std::uint64_t mismatches = 0;
  std::string first_mismatch;
  const auto play = [&](std::int64_t until_ns, SampleSet* rtt, SpanLog* log) {
    while (now_ns() < until_ns) {
      const std::int64_t t0 = now_ns();
      const exec::RunReport rep = session->run(spec);
      const std::int64_t t1 = now_ns();
      if (log != nullptr) log->record(0, rounds, t0, t1);
      ++rounds;
      rtt->add(static_cast<double>(t1 - t0));
      std::string why;
      if (!rep.completed || !same_traffic(rep, sim, &why)) {
        ++mismatches;
        if (!rep.completed) ++r.failed;
        if (first_mismatch.empty())
          first_mismatch = rep.completed ? why : "round did not complete";
      }
    }
  };

  // A traced run keeps one MetricsRegistry attached through both halves, so
  // that the halves differ only in the spans.
  std::optional<obs::MetricsRegistry> registry;
  if (o.trace) {
    registry.emplace(g.node_count(), g.edge_count());
    spec.metrics = &*registry;
  }
  SampleSet settle_rtt;
  play(now_ns() + static_cast<std::int64_t>(kSettleSeconds * 1e9), &settle_rtt,
       nullptr);
  const std::uint64_t rounds_before = rounds;
  SampleSet window_rtt;
  const std::int64_t w0 = now_ns();
  const double wcpu0 = process_cpu_seconds();
  play(w0 + static_cast<std::int64_t>(win.untraced_s * 1e9), &window_rtt, nullptr);
  const WindowTotals untraced{static_cast<double>(now_ns() - w0) * 1e-9,
                              process_cpu_seconds() - wcpu0,
                              static_cast<double>((rounds - rounds_before) * kRoundItems)};
  const std::uint64_t rounds_untraced = rounds - rounds_before;
  r.e2e["peak_rss_mb"] = peak_rss_mib();

  if (o.trace) {
    SpanLog log({"exec.session_run"});
    SampleSet rtt_traced;
    const Counters c0 = registry_counters(g, *registry, *pool);
    const std::int64_t t0 = now_ns();
    const double tcpu0 = process_cpu_seconds();
    const std::uint64_t r0 = rounds;
    play(t0 + static_cast<std::int64_t>(win.traced_s * 1e9), &rtt_traced, &log);
    const std::int64_t t1 = now_ns();
    const double tcpu1 = process_cpu_seconds();
    const Counters c1 = registry_counters(g, *registry, *pool);
    const WindowDiff w = diff_window(c0, c1);
    check_window_counters(&r, w);
    const double items = static_cast<double>((rounds - r0) * kRoundItems);
    derive_layers(w.delta, items, static_cast<double>(t1 - t0) * 1e-9,
                  tcpu1 - tcpu0, &r.layer);
    r.layer["core.compile_ms"] = median(compile_ms);
    r.layer["exec.open_ms"] = median(open_ms);
    for (const char* k : {"exec.push_call_p50_ns", "exec.push_call_p99_ns",
                          "exec.push_blocked_frac", "exec.poll_call_p50_ns",
                          "exec.poll_empty_frac"})
      r.layer[k] = 0.0;
    r.layer["qos.lane_depth_max.batch"] = value_or_zero(c1, "lane.batch.depth_max");
    zero_service_layers(&r.layer);
    r.info["trace.throughput_items_per_s"] =
        items / (static_cast<double>(t1 - t0) * 1e-9);
    if (!o.trace_out.empty()) write_trace(o.trace_out, {&log});
    spec.metrics = nullptr;
  }

  r.attempted = rounds;
  if (mismatches > 0)
    r.fail(std::to_string(mismatches) + " of " + std::to_string(rounds) +
           " rounds differ from the Sim oracle; first: " + first_mismatch);

  r.info["window.rounds"] = static_cast<double>(rounds_untraced);
  report_window(&r, untraced, window_rtt, !o.trace);
  r.e2e["setup_s"] = median(setup_s);
  return r;
}

}  // namespace perfbench
