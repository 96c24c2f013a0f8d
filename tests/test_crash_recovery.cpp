// Driver for the crash-recovery differential
// (harness::run_crash_differential): kill a port-fed stream at a random
// snapshot barrier, restore from the serialized bytes into a fresh session,
// replay the cut's tail, and require the delivered output set (client-side
// dedup by seq) and the final report bit-identical to an uninterrupted run.
//
//   - ReproFromEnv: replays exactly one kill/restore from SDAF_CRASH_REPRO
//     ('<case line> crash=<seed> backend=<sim|pooled>', the tokens
//     the harness prints on mismatch).
//   - TimeBoxedCrashSweep: random cases for SDAF_STRESS_SECONDS (default
//     ~2s; tools/ci.sh --crash raises it under ASan/TSan) steered by
//     SDAF_STRESS_SEED.
//   - EveryTopologyCrashesAndRecovers: each topology generator through one
//     deterministic kill/restore per backend.
#include "tests/harness/stress_harness.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>

#include "src/runtime/pool_executor.h"

namespace sdaf::harness {
namespace {

TEST(CrashRecovery, EveryTopologyCrashesAndRecovers) {
  runtime::PoolExecutor pool(2);
  constexpr exec::Backend kBackends[] = {exec::Backend::Sim,
                                         exec::Backend::Pooled};
  for (const Topology topo : {Topology::Sp, Topology::Ladder,
                              Topology::Triangle, Topology::Continuation}) {
    CaseSpec spec;
    spec.topology = topo;
    spec.seed = 0xC4A5 + static_cast<std::uint64_t>(topo);
    spec.num_inputs = 40;
    spec.pass_rate = 0.5;
    spec.mode = runtime::DummyMode::Propagation;
    spec.feed = FeedMode::Port;
    for (const exec::Backend backend : kBackends) {
      const auto failure = run_crash_differential(
          spec, backend, /*crash_seed=*/0xDEAD ^ spec.seed, &pool);
      EXPECT_FALSE(failure.has_value()) << *failure;
    }
  }
}

// Both dummy modes and a coalesced batch quantum survive the kill/restore.
TEST(CrashRecovery, NonPropagationAndBatchedQuanta) {
  runtime::PoolExecutor pool(2);
  CaseSpec spec;
  spec.topology = Topology::Sp;
  spec.seed = 0xBEE5;
  spec.num_inputs = 60;
  spec.pass_rate = 0.6;
  spec.mode = runtime::DummyMode::NonPropagation;
  spec.batch = 7;
  spec.feed = FeedMode::Port;
  for (const exec::Backend backend :
       {exec::Backend::Sim, exec::Backend::Pooled}) {
    const auto failure =
        run_crash_differential(spec, backend, /*crash_seed=*/0x7EA, &pool);
    EXPECT_FALSE(failure.has_value()) << *failure;
  }
}

TEST(CrashRecovery, ReproFromEnv) {
  const char* line = std::getenv("SDAF_CRASH_REPRO");
  if (line == nullptr) {
    GTEST_SKIP() << "SDAF_CRASH_REPRO not set";
  }
  // The line is a harness case line plus crash=<seed> backend=<name>.
  std::string case_line;
  std::uint64_t crash_seed = 0;
  bool saw_crash = false;
  exec::Backend backend = exec::Backend::Sim;
  bool saw_backend = false;
  std::istringstream in(line);
  std::string token;
  while (in >> token) {
    if (token.rfind("crash=", 0) == 0) {
      crash_seed = std::strtoull(token.c_str() + 6, nullptr, 0);
      saw_crash = true;
    } else if (token.rfind("backend=", 0) == 0) {
      const auto parsed = exec::backend_from_string(token.substr(8));
      saw_backend = parsed.has_value();
      if (saw_backend) backend = *parsed;
    } else {
      if (!case_line.empty()) case_line += ' ';
      case_line += token;
    }
  }
  ASSERT_TRUE(saw_crash && saw_backend)
      << "SDAF_CRASH_REPRO needs crash= and backend= tokens: " << line;
  const auto spec = parse_case(case_line);
  ASSERT_TRUE(spec.has_value()) << "unparseable case: " << case_line;
  runtime::PoolExecutor pool(2);
  const auto failure = run_crash_differential(*spec, backend, crash_seed, &pool);
  EXPECT_FALSE(failure.has_value()) << *failure;
}

TEST(CrashRecovery, TimeBoxedCrashSweep) {
  double seconds = 2.0;
  if (const char* env = std::getenv("SDAF_STRESS_SECONDS"))
    seconds = std::strtod(env, nullptr);
  std::uint64_t seed = 0x5EED ^ 0xCC;
  if (const char* env = std::getenv("SDAF_STRESS_SEED"))
    seed = std::strtoull(env, nullptr, 0);
  runtime::PoolExecutor pool(3);
  const SweepResult result =
      sweep_crash_cases(seed, seconds, /*max_cases=*/1000000, &pool);
  EXPECT_FALSE(result.failure.has_value()) << *result.failure;
  EXPECT_GE(result.cases_run, 1);
  RecordProperty("cases_run", result.cases_run);
}

}  // namespace
}  // namespace sdaf::harness
