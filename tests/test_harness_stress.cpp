// Driver for the randomized stress / differential harness
// (tests/harness/stress_harness.h). Three entry points:
//
//   - ReproFromEnv: replays exactly one case from SDAF_HARNESS_REPRO
//     (the one-line spec the harness prints on mismatch).
//   - TimeBoxedRandomSweep: runs random cases for SDAF_STRESS_SECONDS
//     (default ~2s, so plain ctest stays fast; tools/ci.sh --stress raises
//     it under TSan/ASan) with SDAF_STRESS_SEED steering the sweep.
//   - SpecRoundTrip / named topology smokes: keep the repro format and
//     every topology generator honest.
#include "tests/harness/stress_harness.h"

#include <gtest/gtest.h>

#include <cstdlib>

#include "src/runtime/pool_executor.h"

namespace sdaf::harness {
namespace {

TEST(HarnessStress, SpecRoundTrip) {
  Prng rng(0xF00D);
  for (int i = 0; i < 200; ++i) {
    const CaseSpec spec = random_case(rng);
    const auto parsed = parse_case(to_string(spec));
    ASSERT_TRUE(parsed.has_value()) << to_string(spec);
    EXPECT_EQ(parsed->topology, spec.topology);
    EXPECT_EQ(parsed->seed, spec.seed);
    EXPECT_EQ(parsed->num_inputs, spec.num_inputs);
    EXPECT_EQ(parsed->pass_rate, spec.pass_rate);  // %.17g round-trips
    EXPECT_EQ(parsed->mode, spec.mode);
    EXPECT_EQ(parsed->batch, spec.batch);
    EXPECT_EQ(parsed->feed, spec.feed);
    EXPECT_EQ(parsed->chunk, spec.chunk);
    EXPECT_EQ(parsed->sched, spec.sched);
    EXPECT_EQ(parsed->tenants, spec.tenants);
  }
  EXPECT_FALSE(parse_case("nonsense").has_value());
  EXPECT_FALSE(parse_case("topo=warp seed=1").has_value());
  EXPECT_FALSE(parse_case("topo=sp seed=1 sched=chaotic").has_value());
  EXPECT_FALSE(parse_case("topo=sp seed=1 tenants=0").has_value());
  // Pre-port repro lines (no feed=/chunk=/sched=/tenants=) still parse, as
  // batch-fed single-tenant with the default scheduling regime.
  const auto legacy = parse_case("topo=sp seed=7 inputs=30 batch=2");
  ASSERT_TRUE(legacy.has_value());
  EXPECT_EQ(legacy->feed, FeedMode::Batch);
  EXPECT_EQ(legacy->sched, Sched::Lifo);
  EXPECT_EQ(legacy->tenants, 1u);
}

TEST(HarnessStress, EveryTopologyRunsDifferentially) {
  runtime::PoolExecutor pool(2);
  for (const Topology topo : {Topology::Sp, Topology::Ladder,
                              Topology::Triangle, Topology::Continuation}) {
    CaseSpec spec;
    spec.topology = topo;
    spec.seed = 0xBA5E + static_cast<std::uint64_t>(topo);
    spec.num_inputs = 40;
    spec.pass_rate = 0.5;
    spec.mode = runtime::DummyMode::Propagation;
    spec.batch = 7;
    const auto failure = run_differential(spec, &pool);
    EXPECT_FALSE(failure.has_value()) << *failure;
  }
}

TEST(HarnessStress, ReproFromEnv) {
  const char* line = std::getenv("SDAF_HARNESS_REPRO");
  if (line == nullptr) {
    GTEST_SKIP() << "SDAF_HARNESS_REPRO not set";
  }
  const auto spec = parse_case(line);
  ASSERT_TRUE(spec.has_value()) << "unparseable spec: " << line;
  runtime::PoolExecutor pool(2);
  // A tenants=N line came from the multi-tenant sweep; replay it through
  // the same check.
  const auto failure = spec->tenants > 1
                           ? run_multitenant_differential(*spec, &pool)
                           : run_differential(*spec, &pool);
  EXPECT_FALSE(failure.has_value()) << *failure;
}

TEST(HarnessStress, TimeBoxedRandomSweep) {
  double seconds = 2.0;
  if (const char* env = std::getenv("SDAF_STRESS_SECONDS"))
    seconds = std::strtod(env, nullptr);
  std::uint64_t seed = 0x5EED;
  if (const char* env = std::getenv("SDAF_STRESS_SEED"))
    seed = std::strtoull(env, nullptr, 0);
  runtime::PoolExecutor pool(3);
  const SweepResult result = sweep_random_cases(
      seed, seconds, /*max_cases=*/1000000, &pool);
  EXPECT_FALSE(result.failure.has_value()) << *result.failure;
  EXPECT_GE(result.cases_run, 1);
  RecordProperty("cases_run", result.cases_run);
  RecordProperty("deadlocks", result.deadlocks);
}

// Every case port-fed: randomized push chunking/pacing through the live
// Stream API on both backends, each required bit-identical to the
// batch-fed simulator reference (tools/ci.sh --stress runs this under
// ASan and TSan).
TEST(HarnessStress, PortModeSweep) {
  double seconds = 2.0;
  if (const char* env = std::getenv("SDAF_STRESS_SECONDS"))
    seconds = std::strtod(env, nullptr);
  std::uint64_t seed = 0x5EED ^ 0x90;
  if (const char* env = std::getenv("SDAF_STRESS_SEED"))
    seed = std::strtoull(env, nullptr, 0);
  runtime::PoolExecutor pool(3);
  const SweepResult result = sweep_random_cases(
      seed, seconds, /*max_cases=*/1000000, &pool, FeedMode::Port);
  EXPECT_FALSE(result.failure.has_value()) << *result.failure;
  EXPECT_GE(result.cases_run, 1);
  RecordProperty("cases_run", result.cases_run);
  RecordProperty("deadlocks", result.deadlocks);
}

// The multi-tenant sweep (qos): every case runs as 2-3 concurrent port-fed
// tenant copies on one shared pool, distinct tenant labels and (when
// avoidance-armed) tight per-tenant credit windows, each copy required
// bit-identical to the solo batch-fed simulator reference -- co-tenants
// and backpressure may reorder execution, never change semantics. tools/ci.sh --stress runs this under ASan and TSan.
TEST(HarnessStress, MultiTenantSweep) {
  double seconds = 2.0;
  if (const char* env = std::getenv("SDAF_STRESS_SECONDS"))
    seconds = std::strtod(env, nullptr);
  std::uint64_t seed = 0x5EED ^ 0x7E;
  if (const char* env = std::getenv("SDAF_STRESS_SEED"))
    seed = std::strtoull(env, nullptr, 0);
  runtime::PoolExecutor pool(3);
  const SweepResult result = sweep_multitenant_cases(
      seed, seconds, /*max_cases=*/1000000, &pool);
  EXPECT_FALSE(result.failure.has_value()) << *result.failure;
  EXPECT_GE(result.cases_run, 1);
  RecordProperty("cases_run", result.cases_run);
}

// The scheduler-adversarial sweep: every case runs the pooled backend under
// each non-default scheduling regime -- fifo (hot slot off), steal-heavy
// (more workers than nodes, tiny deques, injected yields) and park-storm
// (1-step quanta, constant futex parking) -- and must stay bit-identical to
// the batch-fed simulator reference. This is the "the scheduler may reorder
// execution, never change semantics" property under the worst interleavings
// we can force; tools/ci.sh --stress runs it under ASan and TSan.
TEST(HarnessStress, SchedPerturbationSweep) {
  double seconds = 2.0;
  if (const char* env = std::getenv("SDAF_STRESS_SECONDS"))
    seconds = std::strtod(env, nullptr);
  std::uint64_t seed = 0x5EED ^ 0x5C;
  if (const char* env = std::getenv("SDAF_STRESS_SEED"))
    seed = std::strtoull(env, nullptr, 0);
  runtime::PoolExecutor pool(3);
  int total_cases = 0;
  for (const Sched sched :
       {Sched::Fifo, Sched::StealHeavy, Sched::ParkStorm}) {
    const SweepResult result =
        sweep_random_cases(seed + static_cast<std::uint64_t>(sched),
                           seconds / 3.0, /*max_cases=*/1000000, &pool,
                           std::nullopt, sched);
    EXPECT_FALSE(result.failure.has_value())
        << "sched=" << to_string(sched) << ": " << *result.failure;
    EXPECT_GE(result.cases_run, 1) << to_string(sched);
    total_cases += result.cases_run;
  }
  RecordProperty("cases_run", total_cases);
}

}  // namespace
}  // namespace sdaf::harness
