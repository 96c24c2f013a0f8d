// Streaming-port data plane: what live traffic costs through the
// exec::Stream API on the continuation ladder (the dummy-dense regime the
// coalescing data plane is built for).
//
// Two figures of merit, both recorded in BENCH_streaming.json by
// tools/bench.sh:
//   - BM_StreamLatency_*: push -> poll round-trip of a single in-flight
//     item through the whole ladder (p50_ns / p99_ns percentile counters
//     over every round trip in the run; pass rate 1.0 so each push
//     produces exactly one egress item).
//   - BM_StreamIngest_*: sustained ingest throughput with a concurrent
//     drainer thread (items_per_second against wall time), the
//     backpressured serving shape the ports exist for. _PooledBatch drives
//     the same ingest with 64-item push_batch calls instead of push().
#include <benchmark/benchmark.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "src/core/compile.h"
#include "src/exec/session.h"
#include "src/exec/stream.h"
#include "src/support/contracts.h"
#include "src/support/timer.h"
#include "src/workloads/filters.h"
#include "src/workloads/topologies.h"

namespace {

using namespace sdaf;

constexpr std::uint64_t kLatencyItems = 2000;
// Enough items that one ingest run lasts tens of milliseconds, so stream
// open, pool start-up and teardown stay a small share of each repetition.
constexpr std::uint64_t kIngestItems = 200000;
constexpr std::size_t kIngestBatch = 64;

exec::StreamSpec ladder_stream_spec(const core::CompileResult& compiled,
                                    exec::Backend backend,
                                    std::uint32_t batch) {
  exec::StreamSpec spec;
  spec.run.backend = backend;
  spec.run.mode = runtime::DummyMode::Propagation;
  spec.run.apply(compiled);
  spec.run.batch = batch;
  spec.run.pool_workers = 2;
  return spec;
}

void report_percentiles(benchmark::State& state,
                        std::vector<double>& samples_ns) {
  SDAF_ASSERT(!samples_ns.empty());
  std::sort(samples_ns.begin(), samples_ns.end());
  const auto at = [&](double q) {
    const auto idx = static_cast<std::size_t>(
        q * static_cast<double>(samples_ns.size() - 1));
    return samples_ns[idx];
  };
  state.counters["p50_ns"] = at(0.50);
  state.counters["p99_ns"] = at(0.99);
}

// One item in flight at a time: push, then poll until the ladder delivers
// it at the sink tap. Every stage passes, so the round trip covers the full
// relay chain (and, in propagation mode, its wrapper bookkeeping).
void run_latency(benchmark::State& state, exec::Backend backend) {
  const StreamGraph g = workloads::continuation_ladder(4, 64, 1);
  const auto compiled = core::compile(g);
  SDAF_ASSERT(compiled.ok);
  std::vector<double> samples_ns;
  samples_ns.reserve(kLatencyItems);
  std::uint64_t processed = 0;
  std::uint64_t futex_parks = 0;
  std::uint64_t futex_wakes = 0;
  double wall = 0.0;
  for (auto _ : state) {
    exec::Session session(g, workloads::passthrough_kernels(g));
    exec::Stream stream =
        session.open(ladder_stream_spec(compiled, backend, /*batch=*/1));
    exec::InputPort& in = stream.input(0);
    exec::OutputPort& out = stream.output(0);
    Stopwatch run_clock;
    for (std::uint64_t i = 0; i < kLatencyItems; ++i) {
      Stopwatch rtt;
      const bool pushed = in.push();
      SDAF_ASSERT(pushed);
      // next() parks in the tap's condition variable on the concurrent
      // backends (so the measurement includes the real wake-up path) and
      // pumps sweeps on Sim.
      auto item = out.next();
      SDAF_ASSERT(item.has_value());
      samples_ns.push_back(rtt.elapsed_seconds() * 1e9);
      benchmark::DoNotOptimize(item->seq);
    }
    wall += run_clock.elapsed_seconds();
    processed += kLatencyItems;
    for (const auto& w : stream.metrics().workers) {
      futex_parks += w.futex_parks;
      futex_wakes += w.futex_wakes;
    }
    in.close();
    const auto report = stream.finish();
    SDAF_ASSERT(report.completed);
  }
  report_percentiles(state, samples_ns);
  state.counters["round_trips_per_second"] =
      wall > 0 ? static_cast<double>(processed) / wall : 0.0;
  // Pooled only: idle-worker futex sleeps and wake syscalls per round trip
  // (zero on Sim). Near 1 each means the worker slept between items and
  // every push paid a wake; near 0 means it found the next push awake.
  const auto per_rt = [&](std::uint64_t n) {
    return static_cast<double>(n) / static_cast<double>(processed);
  };
  state.counters["futex_parks_per_rt"] = per_rt(futex_parks);
  state.counters["futex_wakes_per_rt"] = per_rt(futex_wakes);
}

void BM_StreamLatency_Sim(benchmark::State& state) {
  run_latency(state, exec::Backend::Sim);
}
BENCHMARK(BM_StreamLatency_Sim)->Iterations(3)->Unit(benchmark::kMillisecond);

// Bimodal with the host's state: on a 4-vCPU host, 10 alternating runs
// each of this binary and of the herd-wake pool before it read p50 8-10 us
// with ~1 pool park per round trip (0.84-0.92 here, 1.03-1.28 before), or
// 19-24 us with 2-3 (2.0-2.2 here, 2.8-3.2 before). Both binaries switched
// mode between the same two pairs (4 fast runs, then 6 slow, each side).
// In the slow mode the second worker sleeps and wakes within every round
// trip; futex_parks_per_rt tells which mode a run hit.
void BM_StreamLatency_Pooled(benchmark::State& state) {
  run_latency(state, exec::Backend::Pooled);
}
BENCHMARK(BM_StreamLatency_Pooled)
    ->Iterations(3)->Unit(benchmark::kMillisecond);

// Saturated ingest: the caller pushes as fast as backpressure allows while
// a drainer thread consumes the tap; heavy filtering keeps the wire
// dummy-dense. Sim has no concurrent drainer (single-threaded by design)
// -- its ports interleave pump and drain on the caller's thread.
// push_batch_items > 0 pushes (concurrent backends only) in push_batch
// calls of that many firing tokens instead of item by item.
void run_ingest(benchmark::State& state, exec::Backend backend,
                double pass_rate, std::size_t push_batch_items = 0) {
  const StreamGraph g = workloads::continuation_ladder(4, 64, 1);
  const auto compiled = core::compile(g);
  SDAF_ASSERT(compiled.ok);
  std::uint64_t processed = 0;
  std::uint64_t dummies = 0;
  double wall = 0.0;
  for (auto _ : state) {
    exec::Session session(g, workloads::relay_kernels(g, pass_rate, 17));
    exec::Stream stream =
        session.open(ladder_stream_spec(compiled, backend, /*batch=*/64));
    exec::InputPort& in = stream.input(0);
    exec::OutputPort& out = stream.output(0);
    Stopwatch run_clock;
    if (backend == exec::Backend::Sim) {
      // Single-threaded serving loop: ingest until backpressure, then
      // drain the tap (poll pumps sweeps when it runs dry).
      std::uint64_t pushed = 0;
      while (pushed < kIngestItems) {
        if (in.try_push()) {
          ++pushed;
          continue;
        }
        while (out.poll().has_value()) {
        }
      }
      in.close();
      while (out.next().has_value()) {
      }
    } else {
      std::thread drainer([&] {
        while (out.next().has_value()) {
        }
      });
      if (push_batch_items > 0) {
        for (std::uint64_t i = 0; i < kIngestItems; i += push_batch_items) {
          const auto n = static_cast<std::size_t>(std::min<std::uint64_t>(
              push_batch_items, kIngestItems - i));
          const std::size_t pushed =
              in.push_batch(std::vector<runtime::Value>(n));
          SDAF_ASSERT(pushed == n);
        }
      } else {
        for (std::uint64_t i = 0; i < kIngestItems; ++i) {
          const bool pushed = in.push();
          SDAF_ASSERT(pushed);
        }
      }
      in.close();
      drainer.join();
    }
    const auto report = stream.finish();
    SDAF_ASSERT(report.completed);
    wall += run_clock.elapsed_seconds();
    processed += kIngestItems;
    dummies += report.total_dummies();
  }
  state.counters["items_per_second"] =
      wall > 0 ? static_cast<double>(processed) / wall : 0.0;
  state.counters["dummies_per_run"] = static_cast<double>(
      dummies / std::max<std::uint64_t>(1, state.iterations()));
}

void BM_StreamIngest_Sim(benchmark::State& state) {
  run_ingest(state, exec::Backend::Sim, /*pass_rate=*/0.1);
}
BENCHMARK(BM_StreamIngest_Sim)->Iterations(10)->Unit(benchmark::kMillisecond);

void BM_StreamIngest_Pooled(benchmark::State& state) {
  run_ingest(state, exec::Backend::Pooled, /*pass_rate=*/0.1);
}
BENCHMARK(BM_StreamIngest_Pooled)
    ->Iterations(10)->Unit(benchmark::kMillisecond);

void BM_StreamIngest_PooledBatch(benchmark::State& state) {
  run_ingest(state, exec::Backend::Pooled, /*pass_rate=*/0.1, kIngestBatch);
}
BENCHMARK(BM_StreamIngest_PooledBatch)
    ->Iterations(10)->Unit(benchmark::kMillisecond);

}  // namespace
