#include "tests/harness/stress_harness.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <map>
#include <sstream>
#include <thread>

#include "src/qos/credit.h"
#include "src/ckpt/snapshot.h"
#include "src/core/compile.h"
#include "src/exec/session.h"
#include "src/runtime/pool_executor.h"
#include "src/support/contracts.h"
#include "src/support/timer.h"
#include "src/workloads/filters.h"
#include "src/workloads/random_ladder.h"
#include "src/workloads/random_sp.h"
#include "src/workloads/topologies.h"

namespace sdaf::harness {

using runtime::DummyMode;

const char* to_string(Topology t) {
  switch (t) {
    case Topology::Sp:
      return "sp";
    case Topology::Ladder:
      return "ladder";
    case Topology::Triangle:
      return "triangle";
    case Topology::Continuation:
      return "continuation";
  }
  return "?";
}

const char* to_string(FeedMode m) {
  switch (m) {
    case FeedMode::Batch:
      return "batch";
    case FeedMode::Port:
      return "port";
  }
  return "?";
}

const char* to_string(Sched s) {
  switch (s) {
    case Sched::Lifo:
      return "lifo";
    case Sched::Fifo:
      return "fifo";
    case Sched::StealHeavy:
      return "steal-heavy";
    case Sched::ParkStorm:
      return "park-storm";
  }
  return "?";
}

namespace {

std::optional<Sched> sched_from_string(const std::string& s) {
  for (const Sched v :
       {Sched::Lifo, Sched::Fifo, Sched::StealHeavy, Sched::ParkStorm})
    if (s == to_string(v)) return v;
  return std::nullopt;
}

// The pool configuration a non-default sched regime demands. All regimes
// salt the scheduler seed from the case so a repro line replays the same
// victim-selection and perturbation decisions.
runtime::PoolExecutor::Options pool_options_for(const CaseSpec& spec,
                                                std::size_t node_count) {
  runtime::PoolExecutor::Options opt;
  opt.seed = spec.seed ^ 0x5CEDC0DE5CEDC0DEull;
  switch (spec.sched) {
    case Sched::Lifo:
      break;
    case Sched::Fifo:
      opt.workers = 2;
      opt.lifo_slot = false;
      break;
    case Sched::StealHeavy:
      // More workers than node tasks: a worker's local enqueue is almost
      // always drained by somebody else, so every schedule is a steal.
      // Tiny deques force ring growth to race those steals.
      opt.workers = std::min<std::size_t>(16, node_count + 2);
      opt.deque_capacity = 2;
      opt.perturb_yield_in_256 = 64;
      break;
    case Sched::ParkStorm:
      // 1-step quanta bounce every task through the injector between
      // steps, and heavy perturbation makes workers go idle (and futex-
      // park) between bounces: the park/wake handshake dominates.
      opt.workers = 4;
      opt.max_steps_per_quantum = 1;
      opt.deque_capacity = 2;
      opt.perturb_yield_in_256 = 128;
      break;
  }
  return opt;
}

std::optional<Topology> topology_from_string(const std::string& s) {
  for (const Topology t : {Topology::Sp, Topology::Ladder, Topology::Triangle,
                           Topology::Continuation})
    if (s == to_string(t)) return t;
  return std::nullopt;
}

const char* mode_name(DummyMode m) {
  switch (m) {
    case DummyMode::Propagation:
      return "prop";
    case DummyMode::NonPropagation:
      return "nonprop";
    case DummyMode::None:
      return "none";
  }
  return "?";
}

std::optional<DummyMode> mode_from_string(const std::string& s) {
  for (const DummyMode m :
       {DummyMode::Propagation, DummyMode::NonPropagation, DummyMode::None})
    if (s == mode_name(m)) return m;
  return std::nullopt;
}

}  // namespace

std::string to_string(const CaseSpec& spec) {
  char pass[64];
  std::snprintf(pass, sizeof(pass), "%.17g", spec.pass_rate);
  std::ostringstream out;
  out << "topo=" << to_string(spec.topology) << " seed=" << spec.seed
      << " inputs=" << spec.num_inputs << " pass=" << pass
      << " mode=" << mode_name(spec.mode) << " batch=" << spec.batch
      << " feed=" << to_string(spec.feed) << " chunk=" << spec.chunk
      << " sched=" << to_string(spec.sched) << " tenants=" << spec.tenants;
  return out.str();
}

std::optional<CaseSpec> parse_case(const std::string& line) {
  CaseSpec spec;
  std::istringstream in(line);
  std::string token;
  bool saw_topo = false;
  while (in >> token) {
    const auto eq = token.find('=');
    if (eq == std::string::npos) return std::nullopt;
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    try {
      if (key == "topo") {
        const auto t = topology_from_string(value);
        if (!t.has_value()) return std::nullopt;
        spec.topology = *t;
        saw_topo = true;
      } else if (key == "seed") {
        spec.seed = std::stoull(value);
      } else if (key == "inputs") {
        spec.num_inputs = std::stoull(value);
      } else if (key == "pass") {
        spec.pass_rate = std::stod(value);
      } else if (key == "mode") {
        const auto m = mode_from_string(value);
        if (!m.has_value()) return std::nullopt;
        spec.mode = *m;
      } else if (key == "batch") {
        spec.batch = static_cast<std::uint32_t>(std::stoul(value));
      } else if (key == "feed") {
        if (value == "batch")
          spec.feed = FeedMode::Batch;
        else if (value == "port")
          spec.feed = FeedMode::Port;
        else
          return std::nullopt;
      } else if (key == "chunk") {
        spec.chunk = static_cast<std::uint32_t>(std::stoul(value));
      } else if (key == "sched") {
        // Pre-scheduler-v2 repro lines omit this key; default Lifo.
        const auto s = sched_from_string(value);
        if (!s.has_value()) return std::nullopt;
        spec.sched = *s;
      } else if (key == "tenants") {
        // Pre-qos repro lines omit this key; default 1 (single-tenant).
        spec.tenants = static_cast<std::uint32_t>(std::stoul(value));
        if (spec.tenants == 0) return std::nullopt;
      } else {
        return std::nullopt;
      }
    } catch (...) {
      return std::nullopt;
    }
  }
  if (!saw_topo) return std::nullopt;
  return spec;
}

std::string repro_command(const CaseSpec& spec) {
  return "SDAF_HARNESS_REPRO='" + to_string(spec) +
         "' ./test_harness_stress --gtest_filter=HarnessStress.ReproFromEnv";
}

StreamGraph build_topology(const CaseSpec& spec) {
  Prng rng(spec.seed);
  switch (spec.topology) {
    case Topology::Sp: {
      workloads::RandomSpOptions opt;
      opt.target_edges = 4 + static_cast<std::size_t>(rng.next_below(16));
      opt.max_buffer = 1 + static_cast<std::int64_t>(rng.next_below(6));
      return workloads::random_sp(rng, opt).graph;
    }
    case Topology::Ladder: {
      workloads::RandomLadderOptions opt;
      opt.rungs = 1 + static_cast<std::size_t>(rng.next_below(3));
      opt.left_interior = 1 + static_cast<std::size_t>(rng.next_below(4));
      opt.right_interior = 1 + static_cast<std::size_t>(rng.next_below(4));
      opt.component_edges = 1 + static_cast<std::size_t>(rng.next_below(3));
      opt.max_buffer = 1 + static_cast<std::int64_t>(rng.next_below(6));
      return workloads::random_ladder(rng, opt);
    }
    case Topology::Triangle:
      return workloads::fig2_triangle(
          1 + static_cast<std::int64_t>(rng.next_below(3)),
          1 + static_cast<std::int64_t>(rng.next_below(3)),
          1 + static_cast<std::int64_t>(rng.next_below(3)));
    case Topology::Continuation:
      return workloads::continuation_ladder(
          1 + static_cast<std::size_t>(rng.next_below(4)),
          /*fat=*/8 + static_cast<std::int64_t>(rng.next_below(57)),
          /*tight=*/1);
  }
  SDAF_ASSERT(false);
  return {};
}

std::vector<std::shared_ptr<runtime::Kernel>> build_kernels(
    const StreamGraph& g, const CaseSpec& spec) {
  if (spec.topology == Topology::Triangle) {
    // The Fig. 2 wedge driver: the source filters everything on the long
    // path for the whole run, so without avoidance the triangle deadlocks
    // once the direct edge fills.
    std::vector<std::shared_ptr<runtime::Kernel>> kernels;
    kernels.push_back(std::make_shared<runtime::RelayKernel>(
        workloads::adversarial_prefix_filter(1, spec.num_inputs)));
    kernels.push_back(runtime::pass_through_kernel());
    kernels.push_back(runtime::pass_through_kernel());
    return kernels;
  }
  return workloads::relay_kernels(g, spec.pass_rate, spec.seed);
}

namespace {

exec::RunSpec make_run_spec(const StreamGraph& g, const CaseSpec& spec) {
  exec::RunSpec rs;
  rs.mode = spec.mode;
  rs.num_inputs = spec.num_inputs;
  rs.batch = spec.batch;
  rs.pool_workers = 2;
  if (spec.mode != DummyMode::None) {
    core::CompileOptions copt;
    copt.algorithm = spec.mode == DummyMode::Propagation
                         ? core::Algorithm::Propagation
                         : core::Algorithm::NonPropagation;
    const auto compiled = core::compile(g, copt);
    SDAF_EXPECTS(compiled.ok);
    rs.apply(compiled);
  }
  return rs;
}

// The dump contract: emitted exactly when deadlocked, and then it names
// edges and nodes (the pooled backend emits it at exact quiescence).
std::optional<std::string> check_dump(const exec::RunReport& report,
                                      const std::string& label) {
  if (report.deadlocked) {
    if (report.state_dump.empty())
      return label + ": deadlocked but state_dump is empty";
    if (report.state_dump.find("edge ") == std::string::npos ||
        report.state_dump.find("node ") == std::string::npos)
      return label + ": state_dump lacks edge/node lines";
  } else if (!report.state_dump.empty()) {
    return label + ": completed run has a non-empty state_dump";
  }
  return std::nullopt;
}

std::optional<std::string> compare_reports(const exec::RunReport& expected,
                                           const exec::RunReport& actual,
                                           const std::string& label) {
  std::ostringstream out;
  if (expected.deadlocked != actual.deadlocked ||
      expected.completed != actual.completed) {
    out << label << ": verdict mismatch (reference "
        << (expected.deadlocked ? "deadlocked" : "completed") << ", got "
        << (actual.deadlocked ? "deadlocked" : "completed") << ")";
    return out.str();
  }
  if (expected.fires != actual.fires) return label + ": fires mismatch";
  if (expected.sink_data != actual.sink_data)
    return label + ": sink_data mismatch";
  if (expected.edges.size() != actual.edges.size())
    return label + ": edge count mismatch";
  for (std::size_t e = 0; e < expected.edges.size(); ++e) {
    if (expected.edges[e].data != actual.edges[e].data ||
        expected.edges[e].dummies != actual.edges[e].dummies) {
      out << label << ": edge " << e << " traffic mismatch (reference "
          << expected.edges[e].data << "+" << expected.edges[e].dummies
          << "d, got " << actual.edges[e].data << "+"
          << actual.edges[e].dummies << "d)";
      return out.str();
    }
  }
  return std::nullopt;
}

}  // namespace

namespace {

// The live-port equivalent of the batch run: push exactly num_inputs firing
// tokens per source in randomized chunks (pacing decorrelated from the
// topology seed), opportunistically draining the egress taps between
// chunks, then dynamic close + finish. Feed capacity covers the whole run
// so a wedged workload can never park the harness in push() -- the verdict
// always arrives from finish(). Bit-identity with the batch run is the
// property under test.
exec::RunReport run_backend_port(const StreamGraph& g, const CaseSpec& spec,
                                 exec::Backend backend,
                                 runtime::PoolExecutor* pool) {
  exec::Session session(g, build_kernels(g, spec));
  exec::StreamSpec ss;
  ss.run = make_run_spec(g, spec);
  ss.run.backend = backend;
  ss.run.pool = pool;
  ss.feed_capacity = static_cast<std::size_t>(spec.num_inputs) + 1;
  ss.egress_capacity = static_cast<std::size_t>(spec.num_inputs) + 2;
  exec::Stream stream = session.open(ss);
  Prng pacing(spec.seed ^ 0xFEEDF00Dull);
  const std::uint32_t max_chunk = std::max<std::uint32_t>(1, spec.chunk);
  std::uint64_t pushed = 0;
  while (pushed < spec.num_inputs) {
    const std::uint64_t chunk = std::min<std::uint64_t>(
        1 + pacing.next_below(max_chunk), spec.num_inputs - pushed);
    // Coalesced ingest: one push_batch per chunk per port, so the whole
    // randomized port-vs-batch sweep also proves the bulk fast path
    // (single segment reservation + publish) bit-identical.
    for (std::size_t i = 0; i < stream.input_count(); ++i) {
      const std::size_t accepted = stream.input(i).push_batch(
          std::vector<runtime::Value>(static_cast<std::size_t>(chunk)));
      SDAF_EXPECTS(accepted == chunk);
    }
    pushed += chunk;
    for (std::size_t i = 0; i < stream.output_count(); ++i)
      while (stream.output(i).poll().has_value()) {
      }
  }
  for (std::size_t i = 0; i < stream.input_count(); ++i)
    stream.input(i).close();
  return stream.finish();
}

}  // namespace

exec::RunReport run_backend(const StreamGraph& g, const CaseSpec& spec,
                            exec::Backend backend,
                            runtime::PoolExecutor* pool) {
  // A non-default scheduling regime needs its own adversarially configured
  // pool; the caller's shared pool keeps its production options.
  std::unique_ptr<runtime::PoolExecutor> perturbed;
  if (backend == exec::Backend::Pooled && spec.sched != Sched::Lifo) {
    perturbed = std::make_unique<runtime::PoolExecutor>(
        pool_options_for(spec, g.node_count()));
    pool = perturbed.get();
  }
  if (spec.feed == FeedMode::Port)
    return run_backend_port(g, spec, backend, pool);
  exec::Session session(g, build_kernels(g, spec));
  exec::RunSpec rs = make_run_spec(g, spec);
  rs.backend = backend;
  rs.pool = pool;
  return session.run(rs);
}

std::optional<std::string> run_differential(const CaseSpec& spec,
                                            runtime::PoolExecutor* pool,
                                            bool* reference_deadlocked) {
  const StreamGraph g = build_topology(spec);
  exec::Session session(g, build_kernels(g, spec));
  exec::RunSpec rs = make_run_spec(g, spec);
  rs.pool = pool;

  // The reference is always the batch-fed simulator: in Port mode that
  // makes the check exactly "a port-fed run pushing the same N items is
  // bit-identical to the equivalent num_inputs batch run", on every
  // backend including the port-fed simulator itself.
  rs.backend = exec::Backend::Sim;
  const exec::RunReport reference = session.run(rs);
  if (reference_deadlocked != nullptr)
    *reference_deadlocked = reference.deadlocked;
  if (auto err = check_dump(reference, "sim"); err.has_value())
    return *err + "\n  repro: " + repro_command(spec);

  std::vector<exec::Backend> backends = {exec::Backend::Pooled};
  if (spec.feed == FeedMode::Port)
    backends.insert(backends.begin(), exec::Backend::Sim);
  for (const exec::Backend backend : backends) {
    const exec::RunReport report = run_backend(g, spec, backend, pool);
    const std::string label = std::string(exec::to_string(backend)) +
                              (spec.feed == FeedMode::Port ? "+port" : "");
    auto err = compare_reports(reference, report, label);
    if (!err.has_value()) err = check_dump(report, label);
    if (err.has_value())
      return *err + "\n  case: " + to_string(spec) +
             "\n  repro: " + repro_command(spec);
  }
  return std::nullopt;
}

std::optional<std::string> run_multitenant_differential(
    const CaseSpec& spec, runtime::PoolExecutor* pool) {
  SDAF_EXPECTS(spec.tenants >= 1);
  SDAF_EXPECTS(pool != nullptr);  // sharing the pool is the point
  const StreamGraph g = build_topology(spec);

  // Solo reference: the batch-fed deterministic simulator, exactly as in
  // run_differential.
  exec::RunReport reference;
  {
    exec::Session session(g, build_kernels(g, spec));
    exec::RunSpec rs = make_run_spec(g, spec);
    rs.backend = exec::Backend::Sim;
    reference = session.run(rs);
  }
  if (auto err = check_dump(reference, "sim"); err.has_value())
    return *err + "\n  repro: " + repro_command(spec);

  // N concurrent port-fed pooled copies on the one shared pool, each under
  // a distinct tenant label. Avoidance-armed copies also
  // run under a tight per-tenant credit window so the acquire/park/release
  // path is exercised under real cross-tenant concurrency; wedge-capable
  // (mode None) copies run uncredited -- a wedged stream never returns its
  // credits, and the harness must reach finish() to collect the verdict.
  std::vector<exec::RunReport> reports(spec.tenants);
  std::vector<std::string> errors(spec.tenants);
  {
    std::vector<std::thread> drivers;
    drivers.reserve(spec.tenants);
    for (std::uint32_t t = 0; t < spec.tenants; ++t) {
      drivers.emplace_back([&, t] {
        try {
          qos::CreditGauge credits(1 + spec.num_inputs / 4);
          exec::Session session(g, build_kernels(g, spec));
          exec::StreamSpec ss;
          ss.run = make_run_spec(g, spec);
          ss.run.backend = exec::Backend::Pooled;
          ss.run.pool = pool;
          ss.run.tenant = "t";
          ss.run.tenant += std::to_string(t);
          if (spec.mode != DummyMode::None) ss.run.credits = &credits;
          ss.feed_capacity = static_cast<std::size_t>(spec.num_inputs) + 1;
          ss.egress_capacity = static_cast<std::size_t>(spec.num_inputs) + 2;
          exec::Stream stream = session.open(ss);
          // Pacing decorrelated per tenant, so the copies interleave their
          // pushes instead of marching in lockstep.
          Prng pacing(spec.seed ^ (0xFEEDF00Dull + 0x9E3779B9ull * (t + 1)));
          const std::uint32_t max_chunk =
              std::max<std::uint32_t>(1, spec.chunk);
          std::uint64_t pushed = 0;
          while (pushed < spec.num_inputs) {
            const std::uint64_t chunk = std::min<std::uint64_t>(
                1 + pacing.next_below(max_chunk), spec.num_inputs - pushed);
            for (std::size_t i = 0; i < stream.input_count(); ++i) {
              const std::size_t accepted = stream.input(i).push_batch(
                  std::vector<runtime::Value>(static_cast<std::size_t>(chunk)));
              SDAF_EXPECTS(accepted == chunk);
            }
            pushed += chunk;
            for (std::size_t i = 0; i < stream.output_count(); ++i)
              while (stream.output(i).poll().has_value()) {
              }
          }
          for (std::size_t i = 0; i < stream.input_count(); ++i)
            stream.input(i).close();
          reports[t] = stream.finish();
        } catch (const std::exception& e) {
          errors[t] = std::string("driver threw: ") + e.what();
        }
      });
    }
    for (auto& d : drivers) d.join();
  }

  for (std::uint32_t t = 0; t < spec.tenants; ++t) {
    const std::string label = "tenant t" + std::to_string(t);
    if (!errors[t].empty())
      return label + ": " + errors[t] + "\n  case: " + to_string(spec) +
             "\n  repro: " + repro_command(spec);
    auto err = compare_reports(reference, reports[t], label);
    if (!err.has_value()) err = check_dump(reports[t], label);
    if (err.has_value())
      return *err + "\n  case: " + to_string(spec) +
             "\n  repro: " + repro_command(spec);
  }
  return std::nullopt;
}

namespace {

// One tap's delivered items, deduplicated by seq -- the client-side half of
// the exactly-once contract (a restore may re-deliver residue the client
// already has). Returns an error string on a payload mismatch between a
// re-delivery and the original.
struct DeliveredSet {
  std::map<std::uint64_t, std::int64_t> items;

  std::optional<std::string> add(const exec::OutputPort::Item& item,
                                 const std::string& label) {
    const std::int64_t v =
        item.value.has_value() ? item.value.as<std::int64_t>() : -1;
    const auto [it, inserted] = items.emplace(item.seq, v);
    if (!inserted && it->second != v) {
      std::ostringstream out;
      out << label << ": re-delivered seq " << item.seq << " changed payload ("
          << it->second << " -> " << v << ")";
      return out.str();
    }
    return std::nullopt;
  }
};

std::string crash_label(const CaseSpec& spec, exec::Backend backend,
                        std::uint64_t crash_seed) {
  return "\n  case: " + to_string(spec) + " crash=" +
         std::to_string(crash_seed) + " backend=" + exec::to_string(backend) +
         "\n  repro: SDAF_CRASH_REPRO='" + to_string(spec) +
         " crash=" + std::to_string(crash_seed) +
         " backend=" + exec::to_string(backend) +
         "' ./test_crash_recovery --gtest_filter=CrashRecovery.ReproFromEnv";
}

}  // namespace

std::optional<std::string> run_crash_differential(const CaseSpec& spec,
                                                  exec::Backend backend,
                                                  std::uint64_t crash_seed,
                                                  runtime::PoolExecutor* pool) {
  SDAF_EXPECTS(spec.mode != DummyMode::None);
  const StreamGraph g = build_topology(spec);
  // Same substitution as run_backend: a non-default sched regime gets its
  // own pool, shared by the pre-crash and post-restore phases (the pool
  // outlives instances, like a daemon surviving its streams).
  std::unique_ptr<runtime::PoolExecutor> perturbed;
  if (backend == exec::Backend::Pooled && spec.sched != Sched::Lifo) {
    perturbed = std::make_unique<runtime::PoolExecutor>(
        pool_options_for(spec, g.node_count()));
    pool = perturbed.get();
  }
  exec::StreamSpec ss;
  ss.run = make_run_spec(g, spec);
  ss.run.backend = backend;
  ss.run.pool = pool;
  // Feeds and taps sized for the whole run: the differential is about the
  // cut, not backpressure, so neither side may park.
  ss.feed_capacity = static_cast<std::size_t>(spec.num_inputs) + 1;
  ss.egress_capacity = static_cast<std::size_t>(spec.num_inputs) + 2;
  constexpr std::chrono::milliseconds kBarrier{30000};

  // Uninterrupted reference: the port-fed deterministic simulator, outputs
  // captured per tap.
  std::vector<std::vector<exec::OutputPort::Item>> want;
  exec::RunReport want_report;
  {
    exec::Session session(g, build_kernels(g, spec));
    exec::StreamSpec ref = ss;
    ref.run.backend = exec::Backend::Sim;
    ref.run.pool = nullptr;
    exec::Stream stream = session.open(ref);
    for (std::size_t i = 0; i < stream.input_count(); ++i) {
      stream.input(i).push_batch(std::vector<runtime::Value>(
          static_cast<std::size_t>(spec.num_inputs)));
      stream.input(i).close();
    }
    want.resize(stream.output_count());
    for (std::size_t j = 0; j < stream.output_count(); ++j)
      while (auto item = stream.output(j).next()) want[j].push_back(*item);
    want_report = stream.finish();
    if (!want_report.completed)
      return "crash reference did not complete" +
             crash_label(spec, backend, crash_seed);
  }

  Prng rng(crash_seed);
  // One case in ten crashes at the terminal cut: everything pushed and
  // closed, the barrier completing through the finished set alone.
  const bool terminal = rng.next_below(100) < 10;
  const std::uint64_t cut =
      terminal ? spec.num_inputs : 1 + rng.next_below(spec.num_inputs);
  std::vector<DeliveredSet> delivered;
  std::vector<std::uint8_t> snapshot_bytes;

  // Phase 1: run to the cut and crash at the barrier. Only `delivered` and
  // `snapshot_bytes` survive the scope -- the stream, its session and its
  // kernels are gone, exactly like the process that died.
  {
    exec::Session session(g, build_kernels(g, spec));
    exec::Stream stream = session.open(ss);
    delivered.resize(stream.output_count());
    const std::uint32_t max_chunk = std::max<std::uint32_t>(1, spec.chunk);
    std::uint64_t pushed = 0;
    while (pushed < cut) {
      const std::uint64_t chunk =
          std::min<std::uint64_t>(1 + rng.next_below(max_chunk), cut - pushed);
      for (std::size_t i = 0; i < stream.input_count(); ++i) {
        const std::size_t accepted = stream.input(i).push_batch(
            std::vector<runtime::Value>(static_cast<std::size_t>(chunk)));
        SDAF_EXPECTS(accepted == chunk);
      }
      pushed += chunk;
      // Opportunistic client-side draining: some items are delivered before
      // the crash, so the restore's residue re-delivery overlaps them.
      for (std::size_t j = 0; j < stream.output_count(); ++j)
        while (auto item = stream.output(j).poll())
          if (auto err = delivered[j].add(*item, "pre-crash"); err.has_value())
            return *err + crash_label(spec, backend, crash_seed);
    }
    if (terminal)
      for (std::size_t i = 0; i < stream.input_count(); ++i)
        stream.input(i).close();
    const auto snap = stream.snapshot(kBarrier);
    if (!snap.has_value())
      return "snapshot did not complete at the barrier" +
             crash_label(spec, backend, crash_seed);
    snapshot_bytes = ckpt::serialize(*snap);
    (void)stream.finish();
  }

  // Phase 2: rehydrate from the serialized bytes in a fresh session and
  // replay every port from its cut.
  const auto snap = ckpt::deserialize(snapshot_bytes);
  if (!snap.has_value())
    return "snapshot bytes did not round-trip" +
           crash_label(spec, backend, crash_seed);
  exec::Session session(g, build_kernels(g, spec));
  auto restored = session.restore(ss, *snap);
  if (!restored.has_value())
    return "Session::restore refused its own snapshot" +
           crash_label(spec, backend, crash_seed);
  for (std::size_t i = 0; i < restored->input_count(); ++i) {
    auto& port = restored->input(i);
    if (port.closed()) continue;
    const std::uint64_t replay_from = snap->ports[i].next_seq;
    SDAF_EXPECTS(port.pushed() == replay_from);
    const std::size_t accepted = port.push_batch(std::vector<runtime::Value>(
        static_cast<std::size_t>(spec.num_inputs - replay_from)));
    SDAF_EXPECTS(accepted == spec.num_inputs - replay_from);
    port.close();
  }
  for (std::size_t j = 0; j < restored->output_count(); ++j)
    while (auto item = restored->output(j).next())
      if (auto err = delivered[j].add(*item, "post-restore"); err.has_value())
        return *err + crash_label(spec, backend, crash_seed);
  const exec::RunReport report = restored->finish();

  // The verdict, counters and traffic resume exactly.
  if (auto err = compare_reports(want_report, report, "crash+restore");
      err.has_value())
    return *err + crash_label(spec, backend, crash_seed);
  // The delivered set (pre-crash + re-delivered residue + post-restore),
  // deduped by seq, is exactly the uninterrupted output stream.
  for (std::size_t j = 0; j < want.size(); ++j) {
    if (delivered[j].items.size() != want[j].size()) {
      std::ostringstream out;
      out << "tap " << j << ": delivered " << delivered[j].items.size()
          << " distinct items, reference delivered " << want[j].size();
      return out.str() + crash_label(spec, backend, crash_seed);
    }
    auto it = delivered[j].items.begin();
    for (const auto& ref : want[j]) {
      const std::int64_t ref_v =
          ref.value.has_value() ? ref.value.as<std::int64_t>() : -1;
      if (it->first != ref.seq || it->second != ref_v) {
        std::ostringstream out;
        out << "tap " << j << ": item mismatch at seq " << ref.seq
            << " (reference " << ref_v << ", got seq " << it->first << " = "
            << it->second << ")";
        return out.str() + crash_label(spec, backend, crash_seed);
      }
      ++it;
    }
  }
  return std::nullopt;
}

CaseSpec random_case(Prng& rng) {
  CaseSpec spec;
  const std::uint64_t t = rng.next_below(100);
  spec.topology = t < 40   ? Topology::Sp
                  : t < 70 ? Topology::Ladder
                  : t < 85 ? Topology::Triangle
                           : Topology::Continuation;
  spec.seed = rng.next_u64();
  spec.num_inputs = 20 + rng.next_below(80);
  spec.pass_rate = 0.2 + 0.8 * rng.next_double();
  const std::uint64_t m = rng.next_below(100);
  spec.mode = m < 40   ? DummyMode::Propagation
              : m < 80 ? DummyMode::NonPropagation
                       : DummyMode::None;
  if (spec.mode == DummyMode::None) {
    // Unprotected verdicts are only exact at message-at-a-time pacing:
    // batch > 1 acts like extra buffering and may mask a hazard.
    spec.batch = 1;
  } else {
    const std::uint32_t batches[] = {1, 7, 64};
    spec.batch = batches[rng.next_below(3)];
  }
  spec.feed = rng.next_below(100) < 30 ? FeedMode::Port : FeedMode::Batch;
  spec.chunk = 1 + static_cast<std::uint32_t>(rng.next_below(8));
  const std::uint64_t s = rng.next_below(100);
  spec.sched = s < 50   ? Sched::Lifo
               : s < 70 ? Sched::Fifo
               : s < 85 ? Sched::StealHeavy
                        : Sched::ParkStorm;
  return spec;
}

SweepResult sweep_random_cases(std::uint64_t sweep_seed, double seconds,
                               int max_cases, runtime::PoolExecutor* pool,
                               std::optional<FeedMode> forced_feed,
                               std::optional<Sched> forced_sched) {
  SweepResult result;
  Prng rng(sweep_seed);
  Stopwatch clock;
  // SDAF_STRESS_VERBOSE: one line per case before it runs, so a hang (not
  // just a mismatch) identifies its case.
  const bool verbose = std::getenv("SDAF_STRESS_VERBOSE") != nullptr;
  while (result.cases_run < max_cases &&
         (result.cases_run == 0 || clock.elapsed_seconds() < seconds)) {
    CaseSpec spec = random_case(rng);
    if (forced_feed.has_value()) spec.feed = *forced_feed;
    if (forced_sched.has_value()) spec.sched = *forced_sched;
    if (verbose) std::fprintf(stderr, "case: %s\n", to_string(spec).c_str());
    bool deadlocked = false;
    result.failure = run_differential(spec, pool, &deadlocked);
    if (deadlocked) ++result.deadlocks;
    ++result.cases_run;
    if (result.failure.has_value()) break;
  }
  return result;
}

SweepResult sweep_multitenant_cases(std::uint64_t sweep_seed, double seconds,
                                    int max_cases,
                                    runtime::PoolExecutor* pool) {
  SweepResult result;
  Prng rng(sweep_seed);
  Stopwatch clock;
  const bool verbose = std::getenv("SDAF_STRESS_VERBOSE") != nullptr;
  while (result.cases_run < max_cases &&
         (result.cases_run == 0 || clock.elapsed_seconds() < seconds)) {
    CaseSpec spec = random_case(rng);
    // The shared pool keeps its production regime; the adversarial sched
    // pools are single-tenant by construction (SchedPerturbationSweep).
    spec.sched = Sched::Lifo;
    spec.tenants = 2 + static_cast<std::uint32_t>(rng.next_below(2));
    if (verbose) std::fprintf(stderr, "case: %s\n", to_string(spec).c_str());
    result.failure = run_multitenant_differential(spec, pool);
    ++result.cases_run;
    if (result.failure.has_value()) break;
  }
  return result;
}

SweepResult sweep_crash_cases(std::uint64_t sweep_seed, double seconds,
                              int max_cases, runtime::PoolExecutor* pool) {
  SweepResult result;
  Prng rng(sweep_seed);
  Stopwatch clock;
  const bool verbose = std::getenv("SDAF_STRESS_VERBOSE") != nullptr;
  constexpr exec::Backend kBackends[] = {exec::Backend::Sim,
                                         exec::Backend::Pooled};
  while (result.cases_run < max_cases &&
         (result.cases_run == 0 || clock.elapsed_seconds() < seconds)) {
    CaseSpec spec = random_case(rng);
    spec.feed = FeedMode::Port;  // the crash differential is port-fed
    if (spec.mode == DummyMode::None) {
      // Only avoidance-armed streams are wedge-free; a wedged barrier never
      // completes, so unprotected cases have no crash differential.
      spec.mode = DummyMode::Propagation;
      const std::uint32_t batches[] = {1, 7, 64};
      spec.batch = batches[rng.next_below(3)];
    }
    const exec::Backend backend =
        kBackends[rng.next_below(std::size(kBackends))];
    const std::uint64_t crash_seed = rng.next_u64();
    if (verbose)
      std::fprintf(stderr, "crash case: %s crash=%llu backend=%s\n",
                   to_string(spec).c_str(),
                   static_cast<unsigned long long>(crash_seed),
                   exec::to_string(backend));
    result.failure = run_crash_differential(spec, backend, crash_seed, pool);
    ++result.cases_run;
    if (result.failure.has_value()) break;
  }
  return result;
}

}  // namespace sdaf::harness
