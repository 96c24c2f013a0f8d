// Fig. 2 live: the same triangle topology and the same adversarial
// filtering pattern, run twice through exec::Session -- once bare
// (deadlocks, certified exactly by the pooled scheduler's quiescence check,
// with a post-mortem state dump) and once compiled with dummy intervals
// (completes).
//
//   $ ./deadlock_demo
#include <cstdio>

#include "src/core/report.h"
#include "src/exec/session.h"
#include "src/workloads/filters.h"
#include "src/workloads/topologies.h"

using namespace sdaf;

namespace {

std::vector<std::shared_ptr<runtime::Kernel>> make_kernels() {
  // A passes everything to B but filters the direct A->C channel for a long
  // stretch -- the pattern of Fig. 2: A->B and B->C fill while A->C stays
  // empty and C starves.
  std::vector<std::shared_ptr<runtime::Kernel>> kernels;
  kernels.push_back(std::make_shared<runtime::RelayKernel>(
      workloads::adversarial_prefix_filter(/*blocked_slot=*/1,
                                           /*filtered_prefix=*/400)));
  kernels.push_back(runtime::pass_through_kernel());
  kernels.push_back(runtime::pass_through_kernel());
  return kernels;
}

}  // namespace

int main() {
  const StreamGraph g = workloads::fig2_triangle(2, 2, 2);
  exec::Session session(g, make_kernels());
  exec::RunSpec spec;
  spec.backend = exec::Backend::Pooled;
  spec.num_inputs = 500;

  {
    std::printf("--- run 1: no deadlock avoidance ---\n");
    spec.mode = runtime::DummyMode::None;
    const auto run = session.run(spec);
    std::printf("completed=%d deadlocked=%d (C consumed %llu messages)\n",
                run.completed, run.deadlocked,
                static_cast<unsigned long long>(run.sink_data[2]));
    std::printf("wedged state:\n%s\n", run.state_dump.c_str());
  }
  {
    std::printf("--- run 2: Propagation Algorithm wrappers ---\n");
    spec.mode = runtime::DummyMode::Propagation;
    const auto [compiled, run] = session.compile_and_run(spec);
    std::printf("%s\n", core::describe(g, *compiled).c_str());
    std::printf("completed=%d deadlocked=%d (C consumed %llu messages, "
                "%llu dummies on A->C)\n",
                run.completed, run.deadlocked,
                static_cast<unsigned long long>(run.sink_data[2]),
                static_cast<unsigned long long>(run.edges[2].dummies));
    return run.completed ? 0 : 1;
  }
}
