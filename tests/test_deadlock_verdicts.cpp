// Deadlock-verdict property test: for randomized topologies with avoidance
// disabled (DummyMode::None), both backends must agree on the
// deadlock-vs-complete verdict, the wedged state must be unique (traffic,
// fires and sink deliveries bit-identical -- bounded deterministic dataflow
// has a single terminal marking), and the state_dump must be emitted at
// exact quiescence iff the run deadlocked. This extends the Fig. 2 wedge
// check (tests/test_session.cpp) to random SP-DAGs and SP-ladders via the
// stress harness; any failure prints a one-line repro command.
#include <gtest/gtest.h>

#include <regex>
#include <sstream>

#include "src/runtime/pool_executor.h"
#include "src/support/prng.h"
#include "tests/harness/stress_harness.h"

namespace sdaf::harness {
namespace {

TEST(DeadlockVerdicts, RandomizedUnprotectedRunsAgreeOnEveryBackend) {
  Prng rng(0xDEAD10C4);
  runtime::PoolExecutor pool(3);
  int deadlocks = 0;
  int completions = 0;
  for (int i = 0; i < 24; ++i) {
    CaseSpec spec;
    // Triangles are the known wedge; SP-DAGs and ladders with tight
    // buffers and heavy filtering wedge on their own merges.
    spec.topology = i % 4 == 0   ? Topology::Triangle
                    : i % 2 == 0 ? Topology::Sp
                                 : Topology::Ladder;
    spec.seed = rng.next_u64();
    spec.num_inputs = 30 + rng.next_below(50);
    // Alternate heavy and light filtering so the sweep sees both verdicts
    // (tight buffers wedge under almost any filtering).
    spec.pass_rate = i % 2 == 0 ? 0.15 + 0.4 * rng.next_double()
                                : 0.85 + 0.15 * rng.next_double();
    spec.mode = runtime::DummyMode::None;  // avoidance off
    spec.batch = 1;  // unprotected verdicts are only exact at paper pacing
    bool deadlocked = false;
    const auto failure = run_differential(spec, &pool, &deadlocked);
    ASSERT_FALSE(failure.has_value()) << *failure;
    if (deadlocked)
      ++deadlocks;
    else
      ++completions;
  }
  // The sweep must exercise both verdicts, or it proves nothing.
  EXPECT_GE(deadlocks, 3) << "sweep found too few deadlocks";
  EXPECT_GE(completions, 3) << "sweep found too few completions";
}

TEST(DeadlockVerdicts, ProtectedRunsNeverDeadlock) {
  // The same tight-buffer workloads with compiled intervals armed must
  // complete on every backend (the paper's guarantee), still bit-identical.
  Prng rng(0x5AFE);
  runtime::PoolExecutor pool(3);
  for (int i = 0; i < 8; ++i) {
    CaseSpec spec;
    spec.topology = i % 2 == 0 ? Topology::Sp : Topology::Ladder;
    spec.seed = rng.next_u64();
    spec.num_inputs = 30 + rng.next_below(50);
    spec.pass_rate = 0.15 + 0.5 * rng.next_double();
    spec.mode = i % 4 < 2 ? runtime::DummyMode::Propagation
                          : runtime::DummyMode::NonPropagation;
    spec.batch = 1;
    bool deadlocked = true;
    const auto failure = run_differential(spec, &pool, &deadlocked);
    ASSERT_FALSE(failure.has_value()) << *failure;
    EXPECT_FALSE(deadlocked) << to_string(spec);
  }
}

TEST(DeadlockVerdicts, StateDumpShapeIsUnifiedAcrossBackends) {
  // Both backends produce their wedge dumps through
  // runtime::Wiring::dump_wedged_state, so the shape must be identical:
  // first one `edge <id> <from>-><to> <occ>/<cap> pushed=<data>+<dummies>d
  // ...` line per edge in id order, then one `node <name> <state>
  // park=<why>` line per node in id order (each optionally followed by
  // indented trace lines). Find a wedging triangle case, then assert the
  // shape per backend.
  const std::regex edge_re(
      R"(^edge (\d+) \S+->\S+ \d+/\d+ pushed=\d+\+\d+d( head=.*)?( tail=.*)?$)");
  const std::regex node_re(R"(^node (\S+) .* park=.+$)");

  runtime::PoolExecutor pool(2);
  CaseSpec spec;
  spec.topology = Topology::Triangle;
  spec.num_inputs = 40;
  spec.pass_rate = 0.3;
  spec.mode = runtime::DummyMode::None;  // avoidance off: wedges
  spec.batch = 1;
  bool found_wedge = false;
  for (std::uint64_t seed = 1; seed <= 16 && !found_wedge; ++seed) {
    spec.seed = seed;
    const StreamGraph g = build_topology(spec);
    const auto reference = run_backend(g, spec, exec::Backend::Sim, &pool);
    if (!reference.deadlocked) continue;
    found_wedge = true;
    for (const exec::Backend backend :
         {exec::Backend::Sim, exec::Backend::Pooled}) {
      const auto report = run_backend(g, spec, backend, &pool);
      ASSERT_TRUE(report.deadlocked) << to_string(backend);
      ASSERT_FALSE(report.state_dump.empty()) << to_string(backend);
      std::istringstream lines(report.state_dump);
      std::string line;
      std::size_t edges_seen = 0;
      std::size_t nodes_seen = 0;
      while (std::getline(lines, line)) {
        if (line.rfind("  trace ", 0) == 0) {
          // Trace tails only follow node lines.
          EXPECT_GT(nodes_seen, 0u) << to_string(backend) << ": " << line;
          continue;
        }
        std::smatch m;
        if (line.rfind("edge ", 0) == 0) {
          EXPECT_EQ(nodes_seen, 0u)
              << to_string(backend) << ": edge line after node lines";
          ASSERT_TRUE(std::regex_match(line, m, edge_re))
              << to_string(backend) << ": " << line;
          EXPECT_EQ(m[1].str(), std::to_string(edges_seen))
              << to_string(backend) << ": edges out of order";
          ++edges_seen;
        } else {
          ASSERT_TRUE(std::regex_match(line, m, node_re))
              << to_string(backend) << ": " << line;
          EXPECT_EQ(m[1].str(), g.node_name(nodes_seen))
              << to_string(backend) << ": nodes out of order";
          ++nodes_seen;
        }
      }
      EXPECT_EQ(edges_seen, g.edge_count()) << to_string(backend);
      EXPECT_EQ(nodes_seen, g.node_count()) << to_string(backend);
    }
  }
  ASSERT_TRUE(found_wedge) << "no seed in [1,16] wedged the triangle";
}

}  // namespace
}  // namespace sdaf::harness
