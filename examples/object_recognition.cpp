// The paper's Section I motivating application: an object-recognition
// system. A segmentation node receives video frames and forwards each frame
// to the subset of dedicated recognizers whose coarse features match; each
// recognizer reports to a collector only on success. Both hops filter, so
// with finite channels the pipeline can deadlock -- unless compiled with
// dummy intervals.
//
//   $ ./object_recognition [frames]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/core/report.h"
#include "src/exec/session.h"
#include "src/support/prng.h"
#include "src/workloads/filters.h"

using namespace sdaf;

namespace {

struct Frame {
  std::uint64_t id;
  std::uint32_t features;  // bitmask of coarse feature detectors that fired
};

constexpr std::size_t kRecognizers = 4;
const char* kLabels[kRecognizers] = {"faces", "vehicles", "text", "animals"};

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t frames =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 20'000;

  StreamGraph g;
  const NodeId camera = g.add_node("camera");
  const NodeId segment = g.add_node("segment");
  std::vector<NodeId> recognizers;
  for (const char* label : kLabels) recognizers.push_back(g.add_node(label));
  const NodeId collect = g.add_node("collect");
  const NodeId archive = g.add_node("archive");

  g.add_edge(camera, segment, 8);
  for (const NodeId r : recognizers) {
    g.add_edge(segment, r, 4);   // frames routed per coarse features
    g.add_edge(r, collect, 4);   // success reports only
  }
  g.add_edge(collect, archive, 8);

  // Kernels. The camera synthesizes frames with pseudo-random features;
  // segment routes on feature bits; recognizers succeed data-dependently.
  std::vector<std::shared_ptr<runtime::Kernel>> kernels(g.node_count());
  kernels[camera] = std::make_shared<runtime::LambdaKernel>(
      [](std::uint64_t seq, const auto&, runtime::Emitter& out) {
        std::uint64_t state = seq ^ 0x5eedULL;
        const auto features = static_cast<std::uint32_t>(
            splitmix64(state) & ((1u << kRecognizers) - 1));
        out.emit(0, runtime::Value(Frame{seq, features}));
      });
  kernels[segment] = std::make_shared<runtime::LambdaKernel>(
      [](std::uint64_t, const auto& inputs, runtime::Emitter& out) {
        const auto& frame = inputs[0]->template as<Frame>();
        for (std::size_t r = 0; r < kRecognizers; ++r)
          if ((frame.features >> r) & 1u)
            out.emit(r, runtime::Value(frame));  // route; otherwise filter
      });
  for (std::size_t r = 0; r < kRecognizers; ++r) {
    kernels[recognizers[r]] = std::make_shared<runtime::LambdaKernel>(
        [r](std::uint64_t, const auto& inputs, runtime::Emitter& out) {
          const auto& frame = inputs[0]->template as<Frame>();
          // "Recognition" succeeds when a second pseudo-random draw agrees:
          // a data-dependent filter, opaque to the compiler.
          std::uint64_t state = frame.id * 31 + r;
          if ((splitmix64(state) & 7u) != 0) return;  // filtered
          out.emit(0, runtime::Value(frame.id));
        });
  }
  kernels[collect] = std::make_shared<runtime::LambdaKernel>(
      [](std::uint64_t, const auto& inputs, runtime::Emitter& out) {
        // Merge whatever successes arrived for this frame downstream.
        for (const auto& in : inputs)
          if (in.has_value()) {
            out.emit(0, *in);
            return;
          }
      });
  kernels[archive] = runtime::pass_through_kernel();

  exec::Session session(g, kernels);
  exec::RunSpec spec;
  spec.backend = exec::Backend::Pooled;
  spec.mode = runtime::DummyMode::Propagation;
  spec.num_inputs = frames;
  const auto [compiled, run] = session.compile_and_run(spec);
  std::printf("%s\n", core::describe(g, *compiled).c_str());
  if (!compiled->ok) return 1;

  std::printf("frames=%llu completed=%d deadlocked=%d wall=%.3fs\n",
              static_cast<unsigned long long>(frames), run.completed,
              run.deadlocked, run.wall_seconds);
  std::printf("archived detections: %llu; dummy messages: %llu (%.2f%% of "
              "data traffic)\n",
              static_cast<unsigned long long>(run.sink_data[archive]),
              static_cast<unsigned long long>(run.total_dummies()),
              100.0 * static_cast<double>(run.total_dummies()) /
                  static_cast<double>(run.total_data()));
  return run.completed ? 0 : 1;
}
