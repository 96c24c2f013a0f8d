// The streaming port API (src/exec/stream.h): port-fed runs bit-identical
// to their batch equivalents, live payloads flowing push -> poll, Sim
// backpressure without blocking, the extended quiescence rule (no verdict
// while ports are open; exact deadlock verdict at dynamic close), and the
// thread-offloaded Session::submit.
#include "src/exec/stream.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "src/core/compile.h"
#include "src/exec/session.h"
#include "src/runtime/pool_executor.h"
#include "src/workloads/filters.h"
#include "src/workloads/topologies.h"
#include "tests/harness/stress_harness.h"

namespace sdaf::exec {
namespace {

using runtime::DummyMode;
using runtime::Kernel;
using runtime::Value;

constexpr Backend kBackends[] = {Backend::Sim, Backend::Pooled};

void expect_same_report(const RunReport& expected, const RunReport& actual,
                        const std::string& label) {
  ASSERT_EQ(expected.deadlocked, actual.deadlocked) << label;
  ASSERT_EQ(expected.completed, actual.completed) << label;
  ASSERT_EQ(expected.sink_data, actual.sink_data) << label;
  ASSERT_EQ(expected.fires, actual.fires) << label;
  ASSERT_EQ(expected.edges.size(), actual.edges.size()) << label;
  for (std::size_t e = 0; e < expected.edges.size(); ++e) {
    EXPECT_EQ(expected.edges[e].data, actual.edges[e].data)
        << label << " edge " << e;
    EXPECT_EQ(expected.edges[e].dummies, actual.edges[e].dummies)
        << label << " edge " << e;
  }
}

std::vector<std::shared_ptr<Kernel>> wedge_kernels() {
  std::vector<std::shared_ptr<Kernel>> kernels;
  kernels.push_back(std::make_shared<runtime::RelayKernel>(
      workloads::adversarial_prefix_filter(1, 100)));
  kernels.push_back(runtime::pass_through_kernel());
  kernels.push_back(runtime::pass_through_kernel());
  return kernels;
}

// Pushing N firing tokens through an InputPort and closing must reproduce
// the num_inputs = N batch run bit for bit, on every backend and in both
// dummy modes (the randomized port-mode differential sweep widens this;
// here the canonical split-join gets it deterministically).
TEST(Stream, PortFedTokensBitIdenticalToBatchRun) {
  const StreamGraph g = workloads::splitjoin(3, 2, 3);
  const auto compiled = core::compile(g);
  ASSERT_TRUE(compiled.ok);
  for (const auto mode :
       {DummyMode::Propagation, DummyMode::NonPropagation}) {
    Session session(g, workloads::relay_kernels(g, 0.55, 0xAB));
    RunSpec rs;
    rs.mode = mode;
    rs.apply(compiled);
    rs.num_inputs = 150;
    rs.pool_workers = 2;
    rs.backend = Backend::Sim;
    const RunReport reference = session.run(rs);
    ASSERT_TRUE(reference.completed);
    for (const Backend backend : kBackends) {
      StreamSpec ss;
      ss.run = rs;
      ss.run.backend = backend;
      Stream stream = session.open(ss);
      ASSERT_EQ(stream.input_count(), 1u);
      ASSERT_EQ(stream.output_count(), 1u);
      for (int i = 0; i < 150; ++i) ASSERT_TRUE(stream.input(0).push());
      stream.input(0).close();
      EXPECT_TRUE(stream.input(0).closed());
      const RunReport report = stream.finish();
      expect_same_report(reference, report,
                         std::string("port+") + to_string(backend));
    }
  }
}

// Live payloads ride the ports end to end: what goes in at the InputPort
// comes out of the OutputPort, in order, with matching sequence numbers.
TEST(Stream, PayloadsFlowInOrderThroughEveryBackend) {
  const StreamGraph g = workloads::pipeline(3, 4);
  for (const Backend backend : kBackends) {
    Session session(g, workloads::passthrough_kernels(g));
    StreamSpec ss;
    ss.run.backend = backend;
    ss.run.mode = DummyMode::None;
    ss.run.pool_workers = 2;
    Stream stream = session.open(ss);
    InputPort& in = stream.input(0);
    OutputPort& out = stream.output(0);
    std::uint64_t received = 0;
    for (std::int64_t i = 0; i < 64; ++i) {
      ASSERT_TRUE(in.push(Value(i * 10)));
      // Drain opportunistically so the test also interleaves poll.
      while (auto item = out.poll()) {
        EXPECT_EQ(item->seq, received);
        EXPECT_EQ(item->value.as<std::int64_t>(),
                  static_cast<std::int64_t>(received) * 10);
        ++received;
      }
    }
    in.close();
    // Blocking next() finishes the tail and then reports end-of-stream.
    while (auto item = out.next()) {
      EXPECT_EQ(item->seq, received);
      EXPECT_EQ(item->value.as<std::int64_t>(),
                static_cast<std::int64_t>(received) * 10);
      ++received;
    }
    EXPECT_EQ(received, 64u) << to_string(backend);
    EXPECT_TRUE(out.ended()) << to_string(backend);
    const RunReport report = stream.finish();
    EXPECT_TRUE(report.completed) << to_string(backend);
    EXPECT_EQ(in.pushed(), 64u);
  }
}

// Sim backpressure is pump-based, not blocking: try_push refuses once the
// feed fills, a pump drains it into the graph, and push() self-pumps.
TEST(Stream, SimBackpressurePumpsInsteadOfBlocking) {
  const StreamGraph g = workloads::pipeline(2, 8);
  Session session(g, workloads::passthrough_kernels(g));
  StreamSpec ss;
  ss.run.backend = Backend::Sim;
  ss.run.mode = DummyMode::None;
  ss.feed_capacity = 2;
  Stream stream = session.open(ss);
  InputPort& in = stream.input(0);
  ASSERT_TRUE(in.try_push());
  ASSERT_TRUE(in.try_push());
  EXPECT_FALSE(in.try_push());  // feed full, nothing pumped yet
  stream.pump();
  EXPECT_TRUE(in.try_push());  // the sweep drained the feed
  for (int i = 0; i < 40; ++i) ASSERT_TRUE(in.push());  // push() self-pumps
  in.close();
  const RunReport report = stream.finish();
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.fires.front(), 43u);
}

// The extended quiescence rule: a wedged unprotected workload reaches no
// verdict while its port is open (quiescence means "awaiting input", and
// items keep flowing out of the tap), and the dynamic close() then yields
// exactly the certified deadlock of the batch run, state dump included.
TEST(Stream, DeadlockVerdictWaitsForPortCloseOnEveryBackend) {
  const StreamGraph g = workloads::fig2_triangle(2, 2, 2);
  RunSpec batch_rs;
  batch_rs.mode = DummyMode::None;
  batch_rs.num_inputs = 100;
  batch_rs.pool_workers = 2;
  batch_rs.backend = Backend::Sim;
  Session batch_session(g, wedge_kernels());
  const RunReport reference = batch_session.run(batch_rs);
  ASSERT_TRUE(reference.deadlocked);
  for (const Backend backend : kBackends) {
    Session session(g, wedge_kernels());
    StreamSpec ss;
    ss.run = batch_rs;
    ss.run.backend = backend;
    ss.feed_capacity = 128;  // whole run fits: pushes never block on a wedge
    Stream stream = session.open(ss);
    for (int i = 0; i < 100; ++i) ASSERT_TRUE(stream.input(0).push());
    // Ports still open: no verdict exists yet, so the tap must not report
    // end-of-stream (the wedged sink never fires -- alignment starves on
    // the filtered long path -- so no items arrive either).
    OutputPort& out = stream.output(0);
    if (backend == Backend::Sim) stream.pump();
    while (out.poll().has_value()) {
    }
    EXPECT_FALSE(out.ended()) << to_string(backend);
    // Dynamic EOS: now the wedge is certifiable, bit-identical to batch.
    stream.input(0).close();
    const RunReport report = stream.finish();
    const std::string label = std::string("port+") + to_string(backend);
    EXPECT_TRUE(report.deadlocked) << label;
    EXPECT_FALSE(report.completed) << label;
    ASSERT_FALSE(report.state_dump.empty()) << label;
    EXPECT_NE(report.state_dump.find("edge "), std::string::npos) << label;
    EXPECT_NE(report.state_dump.find("node "), std::string::npos) << label;
    EXPECT_NE(report.state_dump.find("port feed "), std::string::npos)
        << label;
    expect_same_report(reference, report, label);
  }
}

// Taps must never affect deadlock verdicts: a caller draining the tap
// slowly keeps the sink parked on a full tap after every port closed and
// every other task parked -- which must read as "awaiting the caller", not
// as a quiescent wedge.
TEST(Stream, PooledSlowTapDrainIsNotDeadlock) {
  const StreamGraph g = workloads::pipeline(2, 4);
  Session session(g, workloads::passthrough_kernels(g));
  StreamSpec ss;
  ss.run.backend = Backend::Pooled;
  ss.run.pool_workers = 2;
  ss.run.mode = DummyMode::None;
  ss.egress_capacity = 2;
  Stream stream = session.open(ss);
  for (int i = 0; i < 12; ++i) ASSERT_TRUE(stream.input(0).push());
  stream.input(0).close();
  std::uint64_t received = 0;
  while (auto item = stream.output(0).next()) {
    ++received;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(received, 12u);
  const RunReport report = stream.finish();
  EXPECT_TRUE(report.completed);
  EXPECT_FALSE(report.deadlocked);
}

// A kernel that parks its first firing until the test releases it -- the
// probe for "submit() returned before the workload ran".
class GateKernel final : public Kernel {
 public:
  void fire(std::uint64_t, const std::vector<std::optional<Value>>&,
            runtime::Emitter& out) override {
    std::unique_lock lock(mu_);
    if (!released_ &&
        !cv_.wait_for(lock, std::chrono::seconds(10),
                      [&] { return released_; }))
      timed_out_.store(true);
    out.emit(0, Value(std::int64_t{1}));
  }

  void release() {
    {
      std::lock_guard lock(mu_);
      released_ = true;
    }
    cv_.notify_all();
  }

  [[nodiscard]] bool timed_out() const { return timed_out_.load(); }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool released_ = false;
  std::atomic<bool> timed_out_{false};
};

// Session::submit must be genuinely asynchronous on every backend: the
// source kernel blocks until the test releases it *after* submit returns,
// so an inline submit would trip the kernel's 10s timeout. (Pooled without
// a shared pool takes the same offload path as Sim.)
TEST(Stream, SubmitIsAsynchronousWithoutSharedPool) {
  const StreamGraph g = workloads::pipeline(2, 4);
  for (const Backend backend : kBackends) {
    auto gate = std::make_shared<GateKernel>();
    std::vector<std::shared_ptr<Kernel>> kernels{gate,
                                                 runtime::pass_through_kernel()};
    Session session(g, kernels);
    RunSpec rs;
    rs.backend = backend;
    rs.mode = DummyMode::None;
    rs.num_inputs = 5;
    auto pending = session.submit(rs);
    gate->release();  // only reachable if submit did not run inline
    const RunReport report = pending.get();
    EXPECT_TRUE(report.completed) << to_string(backend);
    EXPECT_EQ(report.fires.front(), 5u) << to_string(backend);
    EXPECT_FALSE(gate->timed_out()) << to_string(backend);
  }
}

// Several live streams interleaved on one shared pool: multi-tenant
// streaming with per-tenant ports, each bit-identical to its batch run.
TEST(Stream, SharedPoolInterleavesLiveStreams) {
  const StreamGraph g = workloads::splitjoin(2, 2, 4);
  runtime::PoolExecutor pool(3);
  constexpr int kTenants = 4;
  constexpr std::uint64_t kItems = 80;
  std::vector<std::unique_ptr<Session>> sessions;
  std::vector<Stream> streams;
  for (int t = 0; t < kTenants; ++t) {
    sessions.push_back(std::make_unique<Session>(
        g, workloads::relay_kernels(g, 0.7, 0x77 + t)));
    StreamSpec ss;
    ss.run.backend = Backend::Pooled;
    ss.run.mode = DummyMode::None;
    ss.run.pool = &pool;
    streams.push_back(sessions.back()->open(ss));
  }
  for (std::uint64_t i = 0; i < kItems; ++i)
    for (auto& stream : streams) ASSERT_TRUE(stream.input(0).push());
  for (auto& stream : streams) stream.input(0).close();
  for (int t = 0; t < kTenants; ++t) {
    Session reference_session(g, workloads::relay_kernels(g, 0.7, 0x77 + t));
    RunSpec rs;
    rs.mode = DummyMode::None;
    rs.num_inputs = kItems;
    const RunReport reference = reference_session.run(rs);
    expect_same_report(reference, streams[t].finish(),
                       "tenant " + std::to_string(t));
  }
}

// try_push_for on a wedged stream: the deadline parks, then reports
// TimedOut -- the distinct backpressure status -- and never blocks past its
// bound. The port stays usable: close still certifies the exact deadlock,
// and a closed port reports Ended, not TimedOut.
TEST(Stream, TryPushForTimesOutOnWedgeThenStillCertifies) {
  const StreamGraph g = workloads::fig2_triangle(2, 2, 2);
  for (const Backend backend : kBackends) {
    Session session(g, wedge_kernels());
    StreamSpec ss;
    ss.run.backend = backend;
    ss.run.mode = DummyMode::None;
    ss.run.pool_workers = 2;
    ss.feed_capacity = 4;
    Stream stream = session.open(ss);
    const std::string label = to_string(backend);

    PortPushOutcome outcome = PortPushOutcome::Ok;
    const auto start = std::chrono::steady_clock::now();
    int accepted = 0;
    for (int i = 0; i < 64; ++i) {
      outcome = stream.input(0).try_push_for(Value(),
                                             std::chrono::milliseconds(40));
      if (outcome != PortPushOutcome::Ok) break;
      ++accepted;
    }
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_EQ(outcome, PortPushOutcome::TimedOut) << label;
    EXPECT_GT(accepted, 0) << label;
    // 64 bounded attempts, each <= 40ms + slack: nothing hard-blocked.
    EXPECT_LT(elapsed, std::chrono::seconds(30)) << label;

    // A timed batch push on the same wedge accepts at most a short prefix
    // rather than blocking forever.
    const std::size_t bulk = stream.input(0).push_batch_for(
        std::vector<Value>(8), std::chrono::milliseconds(40));
    EXPECT_LT(bulk, 8u) << label;

    stream.input(0).close();
    EXPECT_EQ(stream.input(0).try_push_for(Value(),
                                           std::chrono::milliseconds(1)),
              PortPushOutcome::Ended)
        << label;
    const RunReport report = stream.finish();
    EXPECT_TRUE(report.deadlocked) << label;
    EXPECT_FALSE(report.state_dump.empty()) << label;
  }
}

// push_batch is the same stream as item-at-a-time push, coalesced: one
// reservation + one publish per chunk must leave payload order, per-edge
// traffic, firing counts and verdict bit-identical on every backend and in
// both avoidance modes.
TEST(Stream, PushBatchBitIdenticalToItemPushes) {
  const StreamGraph g = workloads::splitjoin(3, 2, 3);
  const auto compiled = core::compile(g);
  ASSERT_TRUE(compiled.ok);
  constexpr std::int64_t kItems = 150;
  // Feed capacities 1 and 2 put the batch low-water mark (capacity / 2) at
  // its floors, 0 and 1.
  for (const std::size_t feed_capacity : {std::size_t{256}, std::size_t{1},
                                          std::size_t{2}}) {
    for (const auto mode :
         {DummyMode::Propagation, DummyMode::NonPropagation}) {
      for (const Backend backend : kBackends) {
        const std::string label =
            std::string(to_string(backend)) + "+mode" +
            std::to_string(static_cast<int>(mode)) + "+feed" +
            std::to_string(feed_capacity);
        RunReport reports[2];
        std::vector<std::int64_t> payloads[2];
        for (const int use_batch : {0, 1}) {
          Session session(g, workloads::relay_kernels(g, 0.55, 0xAB));
          StreamSpec ss;
          ss.run.mode = mode;
          ss.run.apply(compiled);
          ss.run.backend = backend;
          ss.run.pool_workers = 2;
          ss.feed_capacity = feed_capacity;
          Stream stream = session.open(ss);
          const auto drain = [&] {
            while (auto item = stream.output(0).poll())
              payloads[use_batch].push_back(item->value.as<std::int64_t>());
          };
          std::int64_t next = 0;
          while (next < kItems) {
            // Varied chunk sizes cross the feed-capacity boundary, forcing
            // the room-limited multi-round staging path.
            const std::int64_t chunk =
                std::min<std::int64_t>(1 + (next * 7) % 23, kItems - next);
            if (use_batch == 1) {
              std::vector<Value> vals;
              for (std::int64_t i = 0; i < chunk; ++i)
                vals.emplace_back(Value((next + i) * 10));
              ASSERT_EQ(stream.input(0).push_batch(std::move(vals)),
                        static_cast<std::size_t>(chunk))
                  << label;
            } else {
              for (std::int64_t i = 0; i < chunk; ++i)
                ASSERT_TRUE(stream.input(0).push(Value((next + i) * 10)))
                    << label;
            }
            next += chunk;
            drain();
          }
          stream.input(0).close();
          while (auto item = stream.output(0).next())
            payloads[use_batch].push_back(item->value.as<std::int64_t>());
          reports[use_batch] = stream.finish();
        }
        expect_same_report(reports[0], reports[1], label);
        EXPECT_EQ(payloads[0], payloads[1]) << label;
      }
    }
  }
}

// A source that fires only within a budget the test grants, so the number
// of items it has taken off its feed is exact rather than timing-dependent:
// with budget 0 it parks inside fire(), stalling the feed.
class BudgetSourceKernel final : public Kernel {
 public:
  void fire(std::uint64_t seq, const std::vector<std::optional<Value>>&,
            runtime::Emitter& out) override {
    std::unique_lock lock(mu_);
    ++started_;
    cv_.notify_all();
    if (cv_.wait_for(lock, std::chrono::seconds(10),
                     [&] { return budget_ > 0; }))
      --budget_;
    out.emit(0, Value(static_cast<std::int64_t>(seq)));
  }

  void grant(int n) {
    {
      std::lock_guard lock(mu_);
      budget_ += n;
    }
    cv_.notify_all();
  }

  // Waits until `n` firings have started; false after 10s.
  bool wait_started(int n) {
    std::unique_lock lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(10),
                        [&] { return started_ >= n; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int budget_ = 0;
  int started_ = 0;
};

// A pooled stream whose source parks in its first firing (budget 0), so
// fill() leaves its feed (capacity 8) exactly full.
struct StalledFeed {
  static constexpr std::size_t kFeed = 8;
  StreamGraph g = workloads::pipeline(2, 4);
  std::shared_ptr<BudgetSourceKernel> source =
      std::make_shared<BudgetSourceKernel>();
  Session session{g, {source, runtime::pass_through_kernel()}};
  Stream stream = session.open([] {
    StreamSpec ss;
    ss.run.backend = Backend::Pooled;
    ss.run.pool_workers = 2;
    ss.run.mode = DummyMode::None;
    ss.feed_capacity = kFeed;
    return ss;
  }());

  // Returns how many items the port accepted.
  std::uint64_t fill() {
    InputPort& in = stream.input(0);
    EXPECT_TRUE(in.push());
    EXPECT_TRUE(source->wait_started(1));
    while (in.try_push()) {
    }
    return in.pushed();
  }

  // Releases the source, closes the port and checks every accepted item
  // came out.
  void finish() {
    source->grant(1 << 20);
    stream.input(0).close();
    std::uint64_t received = 0;
    while (stream.output(0).next().has_value()) ++received;
    EXPECT_EQ(received, stream.input(0).pushed());
    EXPECT_TRUE(stream.finish().completed);
  }
};

// Timed batch pushes park on the low-water mark (here 4 of 8 slots), but a
// deadline that passes first still lands what fits: the source frees
// exactly 3 slots while the push waits, and all 3 are taken.
TEST(Stream, PushBatchForLandsWhatFitsByItsDeadline) {
  StalledFeed f;
  const std::uint64_t full = f.fill();
  ASSERT_EQ(f.stream.metrics().ports[0].occupancy, StalledFeed::kFeed);
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    f.source->grant(3);  // three firings complete, a fourth parks
  });
  const std::size_t accepted = f.stream.input(0).push_batch_for(
      std::vector<Value>(10), std::chrono::milliseconds(1000));
  releaser.join();
  EXPECT_EQ(accepted, 3u);
  EXPECT_EQ(f.stream.input(0).pushed(), full + 3);
  f.finish();
}

// A single-item push needs one slot, so on a full feed one pop releases it.
TEST(Stream, PushOnFullFeedReleasedByOnePop) {
  StalledFeed f;
  const std::uint64_t full = f.fill();
  std::atomic<bool> done{false};
  std::thread pusher([&] {
    EXPECT_TRUE(f.stream.input(0).push());
    done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(done.load());  // the feed is full: the push is parked
  f.source->grant(1);         // exactly one more pop
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done.load() && std::chrono::steady_clock::now() < until)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(done.load());
  if (!done.load()) f.source->grant(1 << 20);  // unblock before joining
  pusher.join();
  EXPECT_EQ(f.stream.input(0).pushed(), full + 1);
  f.finish();
}

}  // namespace
}  // namespace sdaf::exec
