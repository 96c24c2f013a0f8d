// Quickstart: build a filtering split/join, compile dummy intervals, and
// run it through the exec::Session facade -- the one execution API over the
// deterministic simulator and the pooled scheduler.
//
//   $ ./quickstart
//
// Walks through the whole public API surface in ~50 lines of user code.
#include <cstdio>

#include "src/core/report.h"
#include "src/exec/session.h"
#include "src/workloads/filters.h"

using namespace sdaf;

int main() {
  // 1. Describe the topology: Fig. 1's split/join with finite channels.
  StreamGraph g;
  const NodeId split = g.add_node("split");
  const NodeId upper = g.add_node("upper");
  const NodeId lower = g.add_node("lower");
  const NodeId join = g.add_node("join");
  g.add_edge(split, upper, /*buffer=*/4);
  g.add_edge(split, lower, /*buffer=*/4);
  g.add_edge(upper, join, /*buffer=*/4);
  g.add_edge(lower, join, /*buffer=*/4);

  // 2. Provide kernels. The split forwards each item to a data-dependent
  //    subset of branches (here: pseudo-random, the essence of filtering);
  //    the branches and join pass everything through.
  auto kernels = workloads::passthrough_kernels(g);
  kernels[split] = std::make_shared<runtime::RelayKernel>(
      workloads::bernoulli_filter(/*p=*/0.5, /*seed=*/2011));

  // 3. Compile + run in one call: exec::Session memoizes the compile pass
  //    (classification + dummy intervals) and dispatches to the backend
  //    named in the RunSpec -- here the pooled scheduler, with the
  //    Propagation Algorithm wrappers.
  exec::Session session(g, kernels);
  exec::RunSpec spec;
  spec.backend = exec::Backend::Pooled;
  spec.mode = runtime::DummyMode::Propagation;
  spec.num_inputs = 10'000;
  const auto [compiled, run] = session.compile_and_run(spec);

  std::printf("%s\n", core::describe(g, *compiled).c_str());
  if (!compiled->ok) return 1;
  std::printf("completed=%d deadlocked=%d\n", run.completed, run.deadlocked);
  std::printf("join consumed %llu data messages; %llu dummies were sent\n",
              static_cast<unsigned long long>(run.sink_data[join]),
              static_cast<unsigned long long>(run.total_dummies()));
  return run.completed ? 0 : 1;
}
