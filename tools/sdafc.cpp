// sdafc -- the deadlock-avoidance "compiler driver": reads a topology in
// the text format of src/graph/io.h, classifies it, computes dummy
// intervals, and prints the report (optionally DOT with annotations).
// With --run it executes the topology end-to-end through the exec::Session
// facade on any backend, using seeded Bernoulli relay kernels as the
// filtering workload.
//
//   sdafc [--nonprop] [--reject-general] [--dot] [--ceil] FILE
//   sdafc --run [--backend=sim|pooled] [--items=N]
//         [--pass-rate=P] [--seed=S] [--no-avoidance] [--metrics[=json|prom]]
//         [--tenant=NAME]
//         FILE
//   sdafc --run --stdin [--backend=...] FILE   # one item per input line
//   sdafc --help
//
// --stdin drives the topology live through the streaming port API: each
// stdin line is pushed as one item into the (single) source's InputPort,
// results are printed from the sink OutputPorts as they arrive
// ("sink[seq]\ttext"), and EOF is the dynamic close() that ends the
// stream with the usual verdict.
//
// --metrics attaches an obs::MetricsRegistry to the run and prints the
// end-of-run snapshot to *stderr* (JSON by default, Prometheus text with
// --metrics=prom), keeping stdout parseable and exit codes unchanged. With
// --stdin the final summary is printed once the stream closes.
//
// --tenant (qos) labels the run. A pooled --metrics run also appends the
// pool's per-tenant injector ledger (enqueues/dequeues, queue depth and
// its high-water) to the metrics summary.
//
// --snapshot-every=N (with --run --stdin) cuts an asynchronous barrier
// snapshot after every N accepted lines and writes the serialized bytes to
// --snapshot-out=FILE (overwritten each cut, so the file always holds the
// latest checkpoint). --restore=FILE starts the stream from such a file
// instead of a fresh open: the stream resumes at the cut (epoch + 1) and
// stdin lines continue from the snapshot's replay point.
//
// Exit status: 0 ok, 1 rejected/invalid/incomplete, 2 usage,
// 3 run deadlocked.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/ckpt/snapshot.h"
#include "src/core/compile.h"
#include "src/core/report.h"
#include "src/exec/session.h"
#include "src/exec/stream.h"
#include "src/graph/io.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/runtime/pool_executor.h"
#include "src/workloads/filters.h"

using namespace sdaf;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: sdafc [--nonprop] [--reject-general] [--dot] [--ceil]\n"
      "             [--run] [--backend=sim|pooled] [--items=N]\n"
      "             [--pass-rate=P] [--seed=S] [--no-avoidance] [--stdin]\n"
      "             FILE\n"
      "  FILE format:  node <name> | edge <from> <to> <buffer>\n"
      "  --nonprop         use the Non-Propagation Algorithm\n"
      "  --reject-general  refuse non-CS4 topologies\n"
      "  --dot             emit annotated Graphviz instead of the report\n"
      "  --ceil            integer intervals with the paper's roundup\n"
      "  --run             execute the topology through exec::Session\n"
      "  --backend=B       execution backend (default sim)\n"
      "  --items=N         sequence numbers per source (default 1000)\n"
      "  --pass-rate=P     Bernoulli pass probability per (seq,slot),\n"
      "                    default 0.7\n"
      "  --seed=S          kernel seed (default 1)\n"
      "  --no-avoidance    run without dummy wrappers (demonstrates the\n"
      "                    deadlock the intervals prevent)\n"
      "  --metrics[=FMT]   print the end-of-run metrics snapshot to stderr;\n"
      "                    FMT is json (default) or prom (Prometheus text)\n"
      "  --tenant=NAME     tenant label for the run (default \"default\");\n"
      "                    a pooled --metrics run appends the per-tenant\n"
      "                    injector ledger\n"
      "  --stdin           with --run: stream one item per stdin line\n"
      "                    through the live InputPort (single-source\n"
      "                    topologies), printing sink results as they\n"
      "                    arrive; EOF closes the stream\n"
      "  --snapshot-every=N  with --stdin: cut a barrier snapshot every N\n"
      "                    accepted lines, writing the latest checkpoint\n"
      "                    to --snapshot-out=FILE\n"
      "  --snapshot-out=FILE destination for --snapshot-every checkpoints\n"
      "  --restore=FILE    with --stdin: resume the stream from a\n"
      "                    checkpoint file instead of a fresh open\n"
      "  exit: 0 ok, 1 rejected/invalid/incomplete, 2 usage,\n"
      "        3 run deadlocked\n");
  return 2;
}

bool parse_u64(const char* text, std::uint64_t* out) {
  char* end = nullptr;
  const auto value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  *out = value;
  return true;
}

bool parse_probability(const char* text, double* out) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || value < 0.0 || value > 1.0) return false;
  *out = value;
  return true;
}

std::string value_text(const runtime::Value& v) {
  if (!v.has_value()) return "<token>";
  try {
    return v.as<std::string>();
  } catch (const std::bad_cast&) {
  }
  try {
    return std::to_string(v.as<std::int64_t>());
  } catch (const std::bad_cast&) {
  }
  try {
    return std::to_string(v.as<double>());
  } catch (const std::bad_cast&) {
  }
  return "<opaque>";
}

// Metrics land on stderr so stdout stays the report/stream channel; a
// pipeline can do `sdafc --run --metrics=prom f 2>metrics.prom` and still
// parse the run output.
void print_metrics(const obs::MetricsSnapshot& snapshot,
                   const std::string& format) {
  const std::string text = format == "prom" ? obs::to_prometheus(snapshot)
                                            : obs::to_json(snapshot);
  std::fputs(text.c_str(), stderr);
  if (text.empty() || text.back() != '\n') std::fputc('\n', stderr);
}

// The per-tenant injector ledger off a pooled run's executor, on stderr
// like the snapshot it follows. prom reuses the canonical exporter and adds
// the pool's instance counter; json emits a separate schema-tagged document
// so sdaf.metrics.v1 stays intact.
void print_tenant_ledger(const runtime::PoolExecutor& pool,
                         const std::string& format) {
  const std::vector<obs::TenantSchedMetrics> tenants = pool.tenant_metrics();
  if (format == "prom") {
    const std::string text =
        obs::tenant_sched_to_prometheus(tenants) +
        obs::scalars_to_prometheus(
            {{"sdaf_pool_instances_built_total", "counter",
              "Run instances (wiring, node tasks) the pool built; a batch "
              "round that reuses a retired instance of its shape builds none.",
              pool.instances_built()}});
    std::fputs(text.c_str(), stderr);
    if (text.empty() || text.back() != '\n') std::fputc('\n', stderr);
    return;
  }
  std::ostringstream out;
  out << "{\"schema\":\"sdaf.tenant_sched.v2\",\"tenants\":[";
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    const auto& t = tenants[i];
    if (i != 0) out << ",";
    out << "{\"tenant\":\"" << t.tenant << "\",\"enqueued\":" << t.enqueued
        << ",\"dequeued\":" << t.dequeued
        << ",\"queue_depth\":" << t.queue_depth
        << ",\"queue_depth_max\":" << t.queue_depth_max << "}";
  }
  out << "]}\n";
  std::fputs(out.str().c_str(), stderr);
}

// Shared trailer for --run and --stdin: verdict line, traffic totals, and
// the wedged-state dump on deadlock. Returns the process exit status.
int print_run_report(const StreamGraph& g, const exec::RunReport& report,
                     const char* mode_name, std::uint64_t items,
                     double pass_rate) {
  const char* verdict = report.completed    ? "COMPLETED"
                        : report.deadlocked ? "DEADLOCKED"
                                            : "INCOMPLETE (sweep limit)";
  std::cout << "run backend=" << exec::to_string(report.backend)
            << " mode=" << mode_name << " items=" << items
            << " pass_rate=" << pass_rate << "\n"
            << "  " << verdict << " wall=" << report.wall_seconds << "s";
  if (report.backend == exec::Backend::Sim)
    std::cout << " sweeps=" << report.sweeps;
  std::cout << "\n  data=" << report.total_data()
            << " dummies=" << report.total_dummies() << " sink_data=";
  for (NodeId n = 0; n < g.node_count(); ++n)
    if (g.out_degree(n) == 0) std::cout << report.sink_data[n] << " ";
  std::cout << "\n";
  if (report.deadlocked && !report.state_dump.empty())
    std::cout << "--- wedged state ---\n" << report.state_dump;
  if (report.completed) return 0;
  return report.deadlocked ? 3 : 1;
}

// Serializes the stream's current barrier snapshot to `path`. The write is
// not atomic; a crash mid-write loses at most this one checkpoint file,
// never the stream (the snapshot is a copy).
bool write_snapshot_file(const ckpt::StreamSnapshot& snap,
                         const std::string& path) {
  const std::vector<std::uint8_t> bytes = ckpt::serialize(snap);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
}

std::optional<ckpt::StreamSnapshot> read_snapshot_file(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  return ckpt::deserialize(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size());
}

struct CkptFlags {
  std::uint64_t snapshot_every = 0;  // 0 = off
  std::string snapshot_out;
  std::string restore_from;
};

// The live path: one stdin line = one item through the InputPort, results
// streamed from the OutputPorts as they arrive. Backpressure is handled by
// draining taps between push attempts (and pumping on the Sim backend); a
// topology that stops absorbing input for ~5s is reported and closed, so
// the verdict still comes from the exact machinery.
int run_stdin_stream(const StreamGraph& g, exec::StreamSpec spec,
                     const char* mode_name, double pass_rate,
                     std::uint64_t seed, const std::string& metrics_format,
                     const CkptFlags& ckpt_flags) {
  if (g.sources().size() != 1) {
    std::fprintf(stderr,
                 "sdafc: --stdin needs exactly one source node (got %zu)\n",
                 g.sources().size());
    return 1;
  }
  exec::Session session(g, workloads::relay_kernels(g, pass_rate, seed));
  // Stream is move-constructible but not move-assignable, so open/restore
  // both flow through one initializing expression.
  std::optional<exec::Stream> opened = [&]() -> std::optional<exec::Stream> {
    if (ckpt_flags.restore_from.empty()) return session.open(std::move(spec));
    const auto snap = read_snapshot_file(ckpt_flags.restore_from);
    if (!snap.has_value()) {
      std::fprintf(stderr, "sdafc: cannot read snapshot %s\n",
                   ckpt_flags.restore_from.c_str());
      return std::nullopt;
    }
    auto restored = session.restore(std::move(spec), *snap);
    if (!restored.has_value()) {
      std::fprintf(stderr,
                   "sdafc: snapshot %s does not match this topology/mode\n",
                   ckpt_flags.restore_from.c_str());
      return std::nullopt;
    }
    std::fprintf(stderr,
                 "sdafc: restored from %s (epoch %llu, resuming at seq %llu)\n",
                 ckpt_flags.restore_from.c_str(),
                 static_cast<unsigned long long>(restored->epoch()),
                 static_cast<unsigned long long>(snap->ports[0].next_seq));
    return restored;
  }();
  if (!opened.has_value()) return 1;
  exec::Stream& stream = *opened;
  exec::InputPort& in = stream.input(0);

  const auto drain = [&] {
    for (std::size_t i = 0; i < stream.output_count(); ++i) {
      exec::OutputPort& out = stream.output(i);
      while (auto item = out.poll())
        std::cout << g.node_name(out.node()) << "[" << item->seq << "]\t"
                  << value_text(item->value) << "\n";
    }
  };

  bool wedged = false;
  std::uint64_t items = 0;
  std::string line;
  while (!wedged && std::getline(std::cin, line)) {
    int stalls = 0;
    while (!in.try_push(runtime::Value(line))) {
      stream.pump();  // Sim: run sweeps; Pooled: no-op
      drain();
      if (++stalls > 5000) {
        std::fprintf(stderr,
                     "sdafc: stream stopped absorbing input; closing\n");
        wedged = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (!wedged) ++items;
    drain();
    if (!wedged && ckpt_flags.snapshot_every != 0 &&
        items % ckpt_flags.snapshot_every == 0) {
      const auto snap = stream.snapshot(std::chrono::milliseconds(30000));
      if (!snap.has_value()) {
        std::fprintf(stderr,
                     "sdafc: barrier snapshot did not complete (stream "
                     "wedged?); continuing without a checkpoint\n");
      } else if (!write_snapshot_file(*snap, ckpt_flags.snapshot_out)) {
        std::fprintf(stderr, "sdafc: cannot write snapshot to %s\n",
                     ckpt_flags.snapshot_out.c_str());
      } else {
        std::fprintf(stderr,
                     "sdafc: checkpoint at seq %llu -> %s\n",
                     static_cast<unsigned long long>(snap->barrier_seq),
                     ckpt_flags.snapshot_out.c_str());
      }
      drain();
    }
  }
  in.close();
  // Stream the tail until every tap reports end-of-stream.
  for (std::size_t i = 0; i < stream.output_count(); ++i) {
    exec::OutputPort& out = stream.output(i);
    while (auto item = out.next())
      std::cout << g.node_name(out.node()) << "[" << item->seq << "]\t"
                << value_text(item->value) << "\n";
  }
  const auto report = stream.finish();
  // The stream Core owns its registry (StreamSpec::metrics defaults on), so
  // the final summary -- ports included -- comes straight off the handle.
  if (!metrics_format.empty()) print_metrics(stream.metrics(), metrics_format);
  return print_run_report(g, report, mode_name, items, pass_rate);
}

}  // namespace

int main(int argc, char** argv) {
  core::CompileOptions options;
  bool dot = false;
  bool run = false;
  bool use_stdin = false;
  bool avoidance = true;
  core::Rounding rounding = core::Rounding::Floor;
  exec::Backend backend = exec::Backend::Sim;
  std::uint64_t items = 1000;
  double pass_rate = 0.7;
  std::uint64_t seed = 1;
  std::string metrics_format;  // empty = off
  std::string tenant = "default";
  CkptFlags ckpt_flags;
  std::string file;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--nonprop") {
      options.algorithm = core::Algorithm::NonPropagation;
    } else if (arg == "--reject-general") {
      options.general_policy = core::GeneralPolicy::Reject;
    } else if (arg == "--dot") {
      dot = true;
    } else if (arg == "--ceil") {
      rounding = core::Rounding::PaperCeil;
    } else if (arg == "--run") {
      run = true;
    } else if (arg.rfind("--backend=", 0) == 0) {
      const auto parsed = exec::backend_from_string(arg.substr(10));
      if (!parsed.has_value()) {
        std::fprintf(stderr, "sdafc: unknown backend %s\n",
                     arg.substr(10).c_str());
        return usage();
      }
      backend = *parsed;
    } else if (arg.rfind("--items=", 0) == 0) {
      if (!parse_u64(arg.c_str() + 8, &items)) {
        std::fprintf(stderr, "sdafc: bad --items value %s\n",
                     arg.c_str() + 8);
        return usage();
      }
    } else if (arg.rfind("--pass-rate=", 0) == 0) {
      if (!parse_probability(arg.c_str() + 12, &pass_rate)) {
        std::fprintf(stderr, "sdafc: bad --pass-rate value %s (want [0,1])\n",
                     arg.c_str() + 12);
        return usage();
      }
    } else if (arg.rfind("--seed=", 0) == 0) {
      if (!parse_u64(arg.c_str() + 7, &seed)) {
        std::fprintf(stderr, "sdafc: bad --seed value %s\n", arg.c_str() + 7);
        return usage();
      }
    } else if (arg.rfind("--tenant=", 0) == 0) {
      tenant = arg.substr(9);
      if (tenant.empty()) {
        std::fprintf(stderr, "sdafc: --tenant needs a name\n");
        return usage();
      }
    } else if (arg == "--metrics" || arg.rfind("--metrics=", 0) == 0) {
      metrics_format = arg == "--metrics" ? "json" : arg.substr(10);
      if (metrics_format != "json" && metrics_format != "prom") {
        std::fprintf(stderr, "sdafc: bad --metrics format %s (want json|prom)\n",
                     metrics_format.c_str());
        return usage();
      }
    } else if (arg == "--no-avoidance") {
      avoidance = false;
    } else if (arg == "--stdin") {
      use_stdin = true;
    } else if (arg.rfind("--snapshot-every=", 0) == 0) {
      if (!parse_u64(arg.c_str() + 17, &ckpt_flags.snapshot_every) ||
          ckpt_flags.snapshot_every == 0) {
        std::fprintf(stderr, "sdafc: bad --snapshot-every value %s\n",
                     arg.c_str() + 17);
        return usage();
      }
    } else if (arg.rfind("--snapshot-out=", 0) == 0) {
      ckpt_flags.snapshot_out = arg.substr(15);
    } else if (arg.rfind("--restore=", 0) == 0) {
      ckpt_flags.restore_from = arg.substr(10);
    } else if (arg == "--help" || arg == "-h") {
      return usage();
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "sdafc: unknown flag %s\n", arg.c_str());
      return usage();
    } else {
      file = arg;
    }
  }
  if (file.empty()) return usage();

  std::ifstream in(file);
  if (!in) {
    std::fprintf(stderr, "sdafc: cannot open %s\n", file.c_str());
    return 1;
  }
  std::ostringstream text;
  text << in.rdbuf();

  const StreamGraph g = from_text(text.str());
  const auto result = core::compile(g, options);

  if (dot) {
    std::cout << to_dot(g, result.ok ? &result.intervals : nullptr);
  } else {
    std::cout << core::describe(g, result);
    if (result.ok) {
      const auto ints = result.integer_intervals(rounding);
      std::cout << "  integer thresholds ("
                << (rounding == core::Rounding::PaperCeil ? "paper roundup"
                                                          : "floor")
                << "):";
      for (EdgeId e = 0; e < g.edge_count(); ++e) {
        if (ints[e] == core::kNoDummyInterval)
          std::cout << " -";
        else
          std::cout << " " << ints[e];
      }
      std::cout << "\n";
    }
  }
  if (!result.ok) return 1;
  if (!run) {
    if (use_stdin)
      std::fprintf(stderr, "sdafc: --stdin requires --run\n");
    return use_stdin ? usage() : 0;
  }

  exec::RunSpec spec;
  spec.backend = backend;
  spec.num_inputs = items;
  spec.tenant = tenant;
  if (avoidance) {
    spec.mode = options.algorithm == core::Algorithm::NonPropagation
                    ? runtime::DummyMode::NonPropagation
                    : runtime::DummyMode::Propagation;
    spec.apply(result, rounding);
  } else {
    spec.mode = runtime::DummyMode::None;
  }
  const char* mode_name =
      avoidance ? (spec.mode == runtime::DummyMode::Propagation
                       ? "propagation"
                       : "nonpropagation")
                : "none";

  if (ckpt_flags.snapshot_every != 0 && ckpt_flags.snapshot_out.empty()) {
    std::fprintf(stderr, "sdafc: --snapshot-every needs --snapshot-out\n");
    return usage();
  }
  if ((ckpt_flags.snapshot_every != 0 || !ckpt_flags.restore_from.empty()) &&
      !use_stdin) {
    std::fprintf(stderr,
                 "sdafc: --snapshot-every/--restore need --run --stdin\n");
    return usage();
  }

  if (use_stdin) {
    exec::StreamSpec stream_spec;
    stream_spec.run = spec;
    return run_stdin_stream(g, std::move(stream_spec), mode_name, pass_rate,
                            seed, metrics_format, ckpt_flags);
  }

  std::optional<obs::MetricsRegistry> registry;
  // With metrics on, a pooled run gets an explicit pool so the per-worker
  // scheduler counters (steals, futex parks, deque depth) can be folded
  // into the snapshot -- a session-private pool is gone before printing.
  std::optional<runtime::PoolExecutor> pool;
  if (!metrics_format.empty()) {
    registry.emplace(g.node_count(), g.edge_count());
    spec.metrics = &*registry;
    if (spec.backend == exec::Backend::Pooled && spec.pool == nullptr) {
      pool.emplace(spec.pool_workers);
      spec.pool = &*pool;
    }
  }
  exec::Session session(g, workloads::relay_kernels(g, pass_rate, seed));
  const auto report = session.run(spec);
  if (registry.has_value()) {
    obs::SnapshotOptions sopt;
    sopt.backend = exec::to_string(report.backend);
    sopt.tenant = spec.tenant;
    sopt.wall_seconds = report.wall_seconds;
    sopt.bytes_per_slot = sizeof(runtime::Message);
    obs::MetricsSnapshot snap = obs::snapshot(g, *registry, sopt);
    if (pool.has_value()) snap.workers = pool->worker_metrics();
    print_metrics(snap, metrics_format);
    // The per-tenant injector ledger (qos): how many of each tenant's tasks
    // passed through this pool's injector. Appended after the snapshot
    // so the sdaf.metrics.v1 schema is untouched.
    if (pool.has_value()) print_tenant_ledger(*pool, metrics_format);
  }
  // Three distinct outcomes: completed, certified deadlock, or a sim run
  // truncated by the sweep ceiling (neither flag set).
  return print_run_report(g, report, mode_name, items, pass_rate);
}
