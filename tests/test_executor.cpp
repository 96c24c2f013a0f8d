#include "src/runtime/pool_executor.h"

#include <gtest/gtest.h>

#include "src/core/compile.h"
#include "src/workloads/filters.h"
#include "src/workloads/topologies.h"

// Runtime behaviours of the paper's model on the pooled backend: alignment
// at joins, no dummies without cycles, dummy propagation, the continuation
// rule's counterexample, and payload flow. Pipeline delivery, the Fig. 2
// verdicts and repeated runs are covered in test_pool_executor.cpp.
namespace sdaf::runtime {
namespace {

TEST(Executor, SplitJoinAligned) {
  const StreamGraph g = workloads::fig1_splitjoin(4);
  PoolExecutor pool(2);
  exec::RunSpec opt;
  opt.mode = DummyMode::None;
  opt.num_inputs = 50;
  const auto r = pool.run(g, workloads::passthrough_kernels(g), opt);
  EXPECT_TRUE(r.completed);
  // D consumed both branches at every seq.
  EXPECT_EQ(r.sink_data[3], 100u);
  EXPECT_EQ(r.fires[3], 50u);
}

TEST(Executor, FilteringWithoutCyclesNeedsNoDummies) {
  // A pure pipeline cannot deadlock no matter how aggressively it filters.
  const StreamGraph g = workloads::pipeline(5, 1);
  std::vector<std::shared_ptr<Kernel>> kernels;
  for (NodeId n = 0; n < g.node_count(); ++n)
    kernels.push_back(std::make_shared<RelayKernel>(
        workloads::bernoulli_filter(0.5, 1234 + n)));
  PoolExecutor pool(2);
  exec::RunSpec opt;
  opt.mode = DummyMode::None;
  opt.num_inputs = 200;
  const auto r = pool.run(g, kernels, opt);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.total_dummies(), 0u);
}

TEST(Executor, DummiesArePropagatedDownstream) {
  // Pipeline after a filtering split: dummies injected on the split's edge
  // must be forwarded by interior nodes in Propagation mode.
  const StreamGraph g = [&] {
    StreamGraph gg;
    const NodeId a = gg.add_node("A");
    const NodeId b = gg.add_node("B");
    const NodeId m = gg.add_node("M");
    const NodeId c = gg.add_node("C");
    gg.add_edge(a, b, 2);   // 0
    gg.add_edge(b, c, 2);   // 1
    gg.add_edge(a, m, 2);   // 2: filtered side, with interior hop M
    gg.add_edge(m, c, 2);   // 3
    return gg;
  }();
  const auto compiled = core::compile(g);
  ASSERT_TRUE(compiled.ok);
  std::vector<std::shared_ptr<Kernel>> kernels;
  kernels.push_back(std::make_shared<RelayKernel>(
      workloads::adversarial_prefix_filter(1, 1000)));
  kernels.push_back(pass_through_kernel());
  kernels.push_back(pass_through_kernel());
  kernels.push_back(pass_through_kernel());
  PoolExecutor pool(2);
  exec::RunSpec opt;
  opt.mode = DummyMode::Propagation;
  opt.intervals = compiled.integer_intervals(core::Rounding::Floor);
  opt.forward_on_filter = compiled.forward_on_filter();
  opt.num_inputs = 64;
  const auto r = pool.run(g, kernels, opt);
  EXPECT_TRUE(r.completed);
  EXPECT_GT(r.edges[2].dummies, 0u);  // originated at A
  EXPECT_GT(r.edges[3].dummies, 0u);  // propagated through M
}

// The minimal counterexample behind the continuation-edge rule (see
// core::CompileResult::forward_on_filter()): u feeds a (buffer 5) and b
// directly (buffer 1); a feeds b (buffer 5). The only branch node is u and the
// paper's intervals are [u->a] = 1, [u->b] = 10, [a->b] = infinite. When
// `a` filters everything toward b, u's data traffic on u->a satisfies
// [u->a] without ever producing knowledge for b, u->b fills (capacity 1),
// u blocks, and the system wedges -- unless a converts its filtered data
// to dummies on the continuation edge a->b.
TEST(Executor, InteriorFilteringCounterexample) {
  StreamGraph g;
  const NodeId u = g.add_node("u");
  const NodeId a = g.add_node("a");
  const NodeId b = g.add_node("b");
  g.add_edge(u, a, 5);  // 0
  g.add_edge(a, b, 5);  // 1: the continuation edge
  g.add_edge(u, b, 1);  // 2
  const auto compiled = core::compile(g);
  ASSERT_TRUE(compiled.ok);
  EXPECT_EQ(compiled.intervals[0], Rational(1));
  EXPECT_EQ(compiled.intervals[2], Rational(10));
  EXPECT_TRUE(compiled.intervals[1].is_infinite());
  ASSERT_EQ(compiled.forward_on_filter(),
            (std::vector<std::uint8_t>{0, 1, 0}));

  const auto make_kernels = [] {
    std::vector<std::shared_ptr<Kernel>> kernels;
    kernels.push_back(pass_through_kernel());  // u passes on both channels
    kernels.push_back(std::make_shared<RelayKernel>(
        [](std::uint64_t, std::size_t) { return false; }));  // a drops all
    kernels.push_back(pass_through_kernel());  // b (sink)
    return kernels;
  };

  // Without the continuation rule: deadlock.
  {
    PoolExecutor pool(2);
    exec::RunSpec opt;
    opt.mode = DummyMode::Propagation;
    opt.intervals = compiled.integer_intervals(core::Rounding::Floor);
    opt.num_inputs = 100;  // forward_on_filter deliberately left empty
    EXPECT_TRUE(pool.run(g, make_kernels(), opt).deadlocked);
  }
  // With it: completes.
  {
    PoolExecutor pool(2);
    exec::RunSpec opt;
    opt.mode = DummyMode::Propagation;
    opt.intervals = compiled.integer_intervals(core::Rounding::Floor);
    opt.forward_on_filter = compiled.forward_on_filter();
    opt.num_inputs = 100;
    const auto r = pool.run(g, make_kernels(), opt);
    EXPECT_TRUE(r.completed);
    EXPECT_GT(r.edges[1].dummies, 0u);  // a converted filtered data
  }
}

TEST(Executor, ValuesFlowThroughPayloads) {
  // Source tags values; sink checks them via a lambda kernel.
  StreamGraph g;
  const NodeId src = g.add_node();
  const NodeId dst = g.add_node();
  g.add_edge(src, dst, 4);
  std::vector<std::shared_ptr<Kernel>> kernels;
  kernels.push_back(std::make_shared<LambdaKernel>(
      [](std::uint64_t seq, const auto&, Emitter& out) {
        out.emit(0, Value(static_cast<std::int64_t>(seq * 3)));
      }));
  std::atomic<std::int64_t> sum{0};
  kernels.push_back(std::make_shared<LambdaKernel>(
      [&sum](std::uint64_t, const auto& inputs, Emitter&) {
        sum += inputs[0]->template as<std::int64_t>();
      }));
  PoolExecutor pool(2);
  exec::RunSpec opt;
  opt.mode = DummyMode::None;
  opt.num_inputs = 10;
  const auto r = pool.run(g, kernels, opt);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(sum.load(), 3 * 45);
}

}  // namespace
}  // namespace sdaf::runtime
