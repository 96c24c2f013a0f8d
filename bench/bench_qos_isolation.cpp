// Multi-tenant QoS isolation: what a latency-sensitive tenant's push ->
// poll round trip costs while a batch tenant saturates the same shared
// pool (one FIFO injector), with the batch tenant held to a per-tenant
// credit window.
//
// Recorded in BENCH_qos.json by tools/bench.sh (fixed benchmark names =
// the schema). Two interactive configurations, same counters each
// (p50_ns / p99_ns over every round trip, batch_items pushed by the
// co-tenant while they were taken):
//   - BM_QosInteractive_Solo: the interactive tenant alone on the shared
//     pool. The baseline the other number is compared against.
//   - BM_QosInteractive_Shared: a batch tenant saturates the pool under a
//     64-item credit window. The figure of merit: p99 here should stay
//     within a small multiple of solo p99 (tools/bench.sh prints the
//     ratio; the acceptance budget is <= 5x on a multi-core host).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/compile.h"
#include "src/exec/session.h"
#include "src/exec/stream.h"
#include "src/qos/credit.h"
#include "src/runtime/pool_executor.h"
#include "src/support/contracts.h"
#include "src/support/timer.h"
#include "src/workloads/filters.h"
#include "src/workloads/topologies.h"

namespace {

using namespace sdaf;

constexpr std::uint64_t kRoundTrips = 1500;
// The batch co-tenant's credit window.
constexpr std::uint64_t kBatchCredits = 64;

exec::StreamSpec tenant_spec(const core::CompileResult& compiled,
                             runtime::PoolExecutor& pool,
                             const std::string& tenant) {
  exec::StreamSpec spec;
  spec.run.backend = exec::Backend::Pooled;
  spec.run.mode = runtime::DummyMode::Propagation;
  spec.run.apply(compiled);
  spec.run.pool = &pool;
  spec.run.tenant = tenant;
  spec.metrics = false;
  return spec;
}

// A batch tenant that pushes as fast as backpressure (channel space and,
// when its spec carries a credit gauge, the tenant window) allows, with a
// drainer thread on the tap, until asked to stop.
struct BatchTenant {
  exec::Session session;
  exec::Stream stream;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> pushed{0};
  std::thread pusher;
  std::thread drainer;

  BatchTenant(const StreamGraph& g, exec::StreamSpec spec)
      : session(g, workloads::passthrough_kernels(g)),
        stream(session.open(std::move(spec))) {}

  void start() {
    pusher = std::thread([this] {
      using namespace std::chrono_literals;
      exec::InputPort& in = stream.input(0);
      while (!stop.load(std::memory_order_relaxed)) {
        // Deadline-bounded so a raised stop flag is honored promptly even
        // when the credit window or the feed is full.
        if (in.try_push_for(runtime::Value{}, 5ms) ==
            exec::PortPushOutcome::Ok)
          pushed.fetch_add(1, std::memory_order_relaxed);
      }
      in.close();
    });
    drainer = std::thread([this] {
      exec::OutputPort& out = stream.output(0);
      while (out.next().has_value()) {
      }
    });
  }

  std::uint64_t finish() {
    stop.store(true, std::memory_order_relaxed);
    pusher.join();
    drainer.join();
    const auto report = stream.finish();
    SDAF_ASSERT(report.completed);
    return pushed.load(std::memory_order_relaxed);
  }
};

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

// One interactive round trip at a time against an optionally saturated
// pool. `with_batch` runs the co-tenant under its credit window.
void run_interactive(benchmark::State& state, bool with_batch) {
  const StreamGraph g = workloads::continuation_ladder(4, 64, 1);
  const auto compiled = core::compile(g);
  SDAF_ASSERT(compiled.ok);
  std::vector<double> samples_ns;
  samples_ns.reserve(kRoundTrips);
  std::uint64_t batch_items = 0;
  for (auto _ : state) {
    runtime::PoolExecutor pool(2);
    qos::CreditGauge batch_credits(kBatchCredits);

    std::unique_ptr<BatchTenant> batch;
    if (with_batch) {
      exec::StreamSpec bs = tenant_spec(compiled, pool, "batch");
      bs.run.credits = &batch_credits;
      batch = std::make_unique<BatchTenant>(g, std::move(bs));
      batch->start();
    }

    exec::Session session(g, workloads::passthrough_kernels(g));
    exec::Stream stream =
        session.open(tenant_spec(compiled, pool, "interactive"));
    exec::InputPort& in = stream.input(0);
    exec::OutputPort& out = stream.output(0);
    for (std::uint64_t i = 0; i < kRoundTrips; ++i) {
      Stopwatch rtt;
      const bool ok = in.push();
      SDAF_ASSERT(ok);
      auto item = out.next();
      SDAF_ASSERT(item.has_value());
      samples_ns.push_back(rtt.elapsed_seconds() * 1e9);
      benchmark::DoNotOptimize(item->seq);
    }
    in.close();
    const auto report = stream.finish();
    SDAF_ASSERT(report.completed);
    if (batch != nullptr) batch_items += batch->finish();
  }
  report_percentiles(state, samples_ns);
  state.counters["batch_items"] = static_cast<double>(batch_items);
}

void BM_QosInteractive_Solo(benchmark::State& state) {
  run_interactive(state, /*with_batch=*/false);
}
BENCHMARK(BM_QosInteractive_Solo)->Iterations(3)->Unit(benchmark::kMillisecond);

void BM_QosInteractive_Shared(benchmark::State& state) {
  run_interactive(state, /*with_batch=*/true);
}
BENCHMARK(BM_QosInteractive_Shared)
    ->Iterations(3)->Unit(benchmark::kMillisecond);

}  // namespace
