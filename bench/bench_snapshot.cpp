// What checkpointing costs a live stream. Two figures of merit, both
// recorded in BENCH_snapshot.json by tools/bench.sh:
//
//   - BM_SnapshotOverhead_*: sustained ingest through the continuation
//     ladder with periodic asynchronous barrier snapshots (begin + poll,
//     the stream never stops) against the identical run with no barriers,
//     inside one benchmark so the pair shares a machine state.
//     snapshot_overhead_pct is the recorded figure; the budget is <= 5%.
//     The snapshots-off side still executes every compiled-in checkpoint
//     branch (one pending-barrier flag test at the hot sites), so the pair
//     also bounds the cost of the idle snapshot path at zero barriers.
//   - BM_SnapshotLatency_*: wall time from snapshot_begin to the assembled
//     ckpt::StreamSnapshot while a pusher and a drainer keep the stream
//     saturated (p50_ns / p99_ns over every barrier in the run), plus the
//     serialized size of the last cut (snapshot_bytes).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "src/ckpt/snapshot.h"
#include "src/core/compile.h"
#include "src/exec/session.h"
#include "src/exec/stream.h"
#include "src/support/contracts.h"
#include "src/support/timer.h"
#include "src/workloads/filters.h"
#include "src/workloads/topologies.h"

namespace {

using namespace sdaf;

constexpr std::uint64_t kIngestItems = 20000;
// Barrier cadence for the overhead run; a multiple of the poll cadence
// (64, the batch quantum) so every begin point is also a poll point.
constexpr std::uint64_t kSnapshotEvery = 2048;

exec::StreamSpec ladder_stream_spec(const core::CompileResult& compiled,
                                    exec::Backend backend) {
  exec::StreamSpec spec;
  spec.run.backend = backend;
  spec.run.mode = runtime::DummyMode::Propagation;
  spec.run.apply(compiled);
  spec.run.batch = 64;
  spec.run.pool_workers = 2;
  return spec;
}

// One iteration = the same saturated ingest twice, snapshots off then on.
// The on pass cuts a barrier every kSnapshotEvery pushes and polls it from
// the ingest loop -- the asynchronous serving shape, never a blocking wait
// -- so the delta is the true cost of flowing markers through a loaded
// graph, not the latency of parking on one.
void run_snapshot_overhead(benchmark::State& state, exec::Backend backend) {
  const StreamGraph g = workloads::continuation_ladder(4, 64, 1);
  const auto compiled = core::compile(g);
  SDAF_ASSERT(compiled.ok);
  std::uint64_t processed = 0;
  std::uint64_t snapshots = 0;
  double wall_off = 0.0;
  double wall_on = 0.0;
  for (auto _ : state) {
    for (int snaps_on = 0; snaps_on < 2; ++snaps_on) {
      exec::Session session(g, workloads::relay_kernels(g, 0.5, 17));
      exec::Stream stream =
          session.open(ladder_stream_spec(compiled, backend));
      exec::InputPort& in = stream.input(0);
      exec::OutputPort& out = stream.output(0);
      Stopwatch run_clock;
      std::thread drainer([&] {
        while (out.next().has_value()) {
        }
      });
      bool pending = false;
      for (std::uint64_t i = 0; i < kIngestItems; ++i) {
        const bool pushed = in.push();
        SDAF_ASSERT(pushed);
        if (snaps_on != 0 && (i + 1) % 64 == 0) {  // poll at batch cadence
          if (pending && stream.snapshot_poll().has_value()) {
            pending = false;
            ++snapshots;
          }
          if (!pending && (i + 1) % kSnapshotEvery == 0) {
            pending = stream.snapshot_begin();
          }
        }
      }
      in.close();
      drainer.join();
      if (pending && stream.snapshot_poll().has_value()) {
        ++snapshots;  // terminal cut: the EOS flood completed the barrier
      }
      const auto report = stream.finish();
      SDAF_ASSERT(report.completed);
      (snaps_on != 0 ? wall_on : wall_off) += run_clock.elapsed_seconds();
    }
    processed += kIngestItems;
    SDAF_ASSERT(snapshots > 0);
  }
  const double off_rate =
      wall_off > 0 ? static_cast<double>(processed) / wall_off : 0.0;
  const double on_rate =
      wall_on > 0 ? static_cast<double>(processed) / wall_on : 0.0;
  state.counters["items_per_second_snapshots_off"] = off_rate;
  state.counters["items_per_second_snapshots_on"] = on_rate;
  state.counters["snapshot_overhead_pct"] =
      off_rate > 0 ? 100.0 * (off_rate - on_rate) / off_rate : 0.0;
  state.counters["snapshots_per_run"] = static_cast<double>(
      snapshots / std::max<std::uint64_t>(1, state.iterations()));
}

void BM_SnapshotOverhead_Pooled(benchmark::State& state) {
  run_snapshot_overhead(state, exec::Backend::Pooled);
}
BENCHMARK(BM_SnapshotOverhead_Pooled)
    ->Iterations(3)->Unit(benchmark::kMillisecond);

// Barrier completion time under load: a pusher saturates the stream while
// a drainer empties the tap, and the measuring thread cuts back-to-back
// snapshots (each snapshot() is begin + poll-until-assembled, bounded).
// The final barrier is cut after the pusher stops so every run has at
// least one sample even on a machine that drains the ingest instantly.
void run_snapshot_latency(benchmark::State& state, exec::Backend backend) {
  const StreamGraph g = workloads::continuation_ladder(4, 64, 1);
  const auto compiled = core::compile(g);
  SDAF_ASSERT(compiled.ok);
  std::vector<double> samples_ns;
  std::size_t last_bytes = 0;
  for (auto _ : state) {
    exec::Session session(g, workloads::relay_kernels(g, 0.5, 17));
    exec::Stream stream = session.open(ladder_stream_spec(compiled, backend));
    exec::InputPort& in = stream.input(0);
    exec::OutputPort& out = stream.output(0);
    std::atomic<bool> feeding{true};
    std::thread drainer([&] {
      while (out.next().has_value()) {
      }
    });
    std::thread pusher([&] {
      for (std::uint64_t i = 0; i < kIngestItems; ++i) {
        const bool pushed = in.push();
        SDAF_ASSERT(pushed);
      }
      feeding.store(false, std::memory_order_release);
    });
    while (feeding.load(std::memory_order_acquire)) {
      Stopwatch barrier;
      const auto s = stream.snapshot(std::chrono::milliseconds(500));
      if (s.has_value()) {
        samples_ns.push_back(barrier.elapsed_seconds() * 1e9);
        last_bytes = ckpt::serialize(*s).size();
      }
    }
    pusher.join();
    {
      Stopwatch barrier;
      const auto s = stream.snapshot(std::chrono::seconds(5));
      SDAF_ASSERT(s.has_value());
      samples_ns.push_back(barrier.elapsed_seconds() * 1e9);
      last_bytes = ckpt::serialize(*s).size();
    }
    in.close();
    drainer.join();
    const auto report = stream.finish();
    SDAF_ASSERT(report.completed);
  }
  SDAF_ASSERT(!samples_ns.empty());
  std::sort(samples_ns.begin(), samples_ns.end());
  const auto at = [&](double q) {
    const auto idx = static_cast<std::size_t>(
        q * static_cast<double>(samples_ns.size() - 1));
    return samples_ns[idx];
  };
  state.counters["p50_ns"] = at(0.50);
  state.counters["p99_ns"] = at(0.99);
  state.counters["snapshots_per_run"] = static_cast<double>(
      samples_ns.size() / std::max<std::uint64_t>(1, state.iterations()));
  state.counters["snapshot_bytes"] = static_cast<double>(last_bytes);
}

void BM_SnapshotLatency_Pooled(benchmark::State& state) {
  run_snapshot_latency(state, exec::Backend::Pooled);
}
BENCHMARK(BM_SnapshotLatency_Pooled)
    ->Iterations(3)->Unit(benchmark::kMillisecond);

}  // namespace
