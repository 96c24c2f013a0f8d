// Reusable randomized stress / differential harness for the execution
// backends. One seeded CaseSpec fully determines a workload -- topology,
// kernels, dummy mode, firing quantum -- and the harness runs it through
// the deterministic simulator (the reference) and the pooled scheduler,
// requiring bit-identical verdicts, per-edge traffic, firing counts and
// sink deliveries.
//
// On mismatch the harness reports a one-line repro command
// (SDAF_HARNESS_REPRO='<spec>' ./test_harness_stress ...), so a failure
// found by a time-boxed random sweep -- locally, in CI, or under TSan/ASan
// via `tools/ci.sh --stress` -- replays as a deterministic single case.
//
// The library is gtest-free on purpose: tests assert on the returned
// optional mismatch string, and tools can link it without a test driver.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/exec/run_types.h"
#include "src/graph/stream_graph.h"
#include "src/runtime/kernel.h"
#include "src/support/prng.h"

namespace sdaf::runtime {
class PoolExecutor;
}  // namespace sdaf::runtime

namespace sdaf::harness {

enum class Topology : std::uint8_t {
  Sp,            // random series-parallel DAG (workloads::random_sp)
  Ladder,        // random SP-ladder (workloads::random_ladder)
  Triangle,      // Fig. 2 triangle + adversarial prefix filter (the wedge)
  Continuation,  // dummy-dense continuation ladder (coalescing worst case)
};

[[nodiscard]] const char* to_string(Topology t);

// How the workload's items reach the sources.
enum class FeedMode : std::uint8_t {
  Batch,  // classic: Session::run with RunSpec::num_inputs
  Port,   // live: Session::open, randomized push chunking/pacing through
          // InputPorts (tokens, so kernels fire exactly as in batch mode),
          // outputs drained through the egress taps, dynamic close()
};

[[nodiscard]] const char* to_string(FeedMode m);

// Scheduling regime for the pooled backend: every mode must produce
// bit-identical results (the scheduler is free to reorder execution, never
// to change semantics). Non-default modes run on a private PoolExecutor
// whose options force the adversarial paths -- more workers than nodes so
// every wake is a steal, injected yield points (Options::perturb_yield_in_256
// seeded from the case), tiny deques so rings grow mid-steal, a 1-step
// quantum so tasks bounce through the injector and workers park constantly.
enum class Sched : std::uint8_t {
  Lifo,        // production defaults: shared pool, hot slot on
  Fifo,        // lifo_slot off -- workers drain their own deque FIFO
  StealHeavy,  // workers > nodes, tiny deques, perturbed: steals dominate
  ParkStorm,   // 1-step quantum + heavy perturbation: park/wake dominate
};

[[nodiscard]] const char* to_string(Sched s);

// Everything that determines one workload, bit for bit. `seed` shapes the
// graph (buffer sizes, structure) and decorrelates the kernel filters;
// `mode` None disables avoidance (batch is then pinned to 1 by
// random_case -- unprotected deadlock verdicts are only exact at the
// paper's message-at-a-time pacing). `feed` Port runs the same workload
// through the streaming ports, with `chunk` bounding the randomized push
// chunk size; the reference is always the batch-fed simulator, so every
// port-fed backend is differential-tested bit-identical to the equivalent
// num_inputs batch run.
struct CaseSpec {
  Topology topology = Topology::Sp;
  std::uint64_t seed = 1;
  std::uint64_t num_inputs = 50;
  double pass_rate = 0.7;
  runtime::DummyMode mode = runtime::DummyMode::Propagation;
  std::uint32_t batch = 1;
  FeedMode feed = FeedMode::Batch;
  std::uint32_t chunk = 8;  // Port only: pushes land in chunks of 1..chunk
  Sched sched = Sched::Lifo;
  // Multi-tenant axis (qos): run_multitenant_differential runs this many
  // concurrent port-fed copies of the case on ONE shared pool, tenant i
  // labeled "t<i>" (and, when avoidance-armed, under a per-tenant credit
  // window), each required bit-identical to the solo
  // batch-fed simulator reference. 1 = the classic single-tenant case.
  std::uint32_t tenants = 1;
};

// One-line `key=value ...` form; parse_case is its exact inverse.
[[nodiscard]] std::string to_string(const CaseSpec& spec);
[[nodiscard]] std::optional<CaseSpec> parse_case(const std::string& line);
// Shell one-liner that replays exactly this case.
[[nodiscard]] std::string repro_command(const CaseSpec& spec);

[[nodiscard]] StreamGraph build_topology(const CaseSpec& spec);
[[nodiscard]] std::vector<std::shared_ptr<runtime::Kernel>> build_kernels(
    const StreamGraph& g, const CaseSpec& spec);

// Runs the spec on one backend, honouring spec.feed. When `pool` is null
// the Pooled backend uses a private 2-worker pool; spec.sched != Lifo
// replaces `pool` with a private adversarially configured pool regardless.
// mode != None runs with compiled intervals.
[[nodiscard]] exec::RunReport run_backend(const StreamGraph& g,
                                          const CaseSpec& spec,
                                          exec::Backend backend,
                                          runtime::PoolExecutor* pool);

// The differential check: batch-fed simulator reference, then every
// backend (both in Port mode -- the port-fed sim included -- else pooled
// only) must match verdict, per-edge {data, dummies}, fires and sink_data
// -- and every backend must emit a state_dump exactly when deadlocked.
// Returns nullopt on agreement, else a mismatch description ending in the
// repro command. `reference_deadlocked` (optional) reports the reference
// verdict, so sweeps can tally without re-running the simulator.
[[nodiscard]] std::optional<std::string> run_differential(
    const CaseSpec& spec, runtime::PoolExecutor* pool,
    bool* reference_deadlocked = nullptr);

// The multi-tenant differential (qos): spec.tenants concurrent port-fed
// copies of the case on the caller's shared pool (one FIFO injector),
// avoidance-armed copies additionally throttled by a per-tenant credit
// window -- and every copy's verdict, per-edge traffic, firing counts and
// sink deliveries must be bit-identical to the solo batch-fed simulator
// reference. This is "co-tenants and backpressure reorder execution,
// never change semantics" under real concurrency.
// Requires a non-null shared pool. Returns nullopt on agreement.
[[nodiscard]] std::optional<std::string> run_multitenant_differential(
    const CaseSpec& spec, runtime::PoolExecutor* pool);

// Draws a random but replayable CaseSpec: all topologies, both dummy modes
// plus avoidance-off, batch in {1, 7, 64} (1 when mode == None), batch- or
// port-fed with a random chunking bound.
[[nodiscard]] CaseSpec random_case(Prng& rng);

// The crash-recovery differential (ckpt): run the spec port-fed on
// `backend`, crash it at a random barrier -- push a crash_seed-chosen
// prefix, take an asynchronous snapshot, then destroy the stream and its
// session, keeping only the snapshot bytes and what the client had already
// polled -- restore into a fresh session, replay every port from its
// PortCut::next_seq, and finish. The delivered output set (client-side
// dedup by seq across the crash, the exactly-once contract) and the final
// report must be bit-identical to an uninterrupted run of the same spec.
// The snapshot round-trips through serialize/deserialize on the way, so
// the wire format is under the same differential. Requires spec.mode !=
// None: only avoidance-armed streams are wedge-free, and a wedged stream's
// barrier never completes (by design). Returns nullopt on agreement.
[[nodiscard]] std::optional<std::string> run_crash_differential(
    const CaseSpec& spec, exec::Backend backend, std::uint64_t crash_seed,
    runtime::PoolExecutor* pool);

struct SweepResult {
  int cases_run = 0;
  int deadlocks = 0;  // cases whose reference verdict was deadlock
  std::optional<std::string> failure;
};

// Runs random cases derived from `sweep_seed` until `seconds` elapse or
// `max_cases` have run; stops at the first mismatch. `forced_feed` pins
// every case to one feed mode (the ci.sh --stress port-mode sweep);
// `forced_sched` pins the pooled backend's scheduling regime (the ci.sh
// --stress perturbation sweep draws per-case regimes when unset).
[[nodiscard]] SweepResult sweep_random_cases(
    std::uint64_t sweep_seed, double seconds, int max_cases,
    runtime::PoolExecutor* pool,
    std::optional<FeedMode> forced_feed = std::nullopt,
    std::optional<Sched> forced_sched = std::nullopt);

// Randomized multi-tenant sweep: random cases pinned to 2-3 tenants and run
// through run_multitenant_differential on the shared pool. Stops at the
// first mismatch (the failure line carries tenants=N, so the ordinary
// SDAF_HARNESS_REPRO replay routes back through the multi-tenant check).
[[nodiscard]] SweepResult sweep_multitenant_cases(std::uint64_t sweep_seed,
                                                  double seconds,
                                                  int max_cases,
                                                  runtime::PoolExecutor* pool);

// Randomized kill/restore sweep: random avoidance-armed cases (mode None is
// re-drawn to Propagation), each crashed at a random barrier on a random
// backend and differentially restored via run_crash_differential. Stops at
// the first mismatch; the failure string carries the case line plus the
// crash=<seed> backend=<name> tokens the SDAF_CRASH_REPRO env replays
// (tests/test_crash_recovery.cpp).
[[nodiscard]] SweepResult sweep_crash_cases(std::uint64_t sweep_seed,
                                            double seconds, int max_cases,
                                            runtime::PoolExecutor* pool);

}  // namespace sdaf::harness
