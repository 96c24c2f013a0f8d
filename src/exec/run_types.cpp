#include "src/exec/run_types.h"

namespace sdaf::exec {

const char* to_string(Backend b) {
  switch (b) {
    case Backend::Sim:
      return "sim";
    case Backend::Pooled:
      return "pooled";
  }
  return "?";
}

std::optional<Backend> backend_from_string(std::string_view s) {
  if (s == "sim") return Backend::Sim;
  if (s == "pooled") return Backend::Pooled;
  return std::nullopt;
}

runtime::BoundedChannel* PortBinding::feed_for(NodeId n) const {
  for (std::size_t i = 0; i < source_nodes.size(); ++i)
    if (source_nodes[i] == n) return feeds[i];
  return nullptr;
}

runtime::BoundedChannel* PortBinding::egress_for(NodeId n) const {
  for (std::size_t i = 0; i < sink_nodes.size(); ++i)
    if (sink_nodes[i] == n) return egress[i];
  return nullptr;
}

void RunSpec::apply(const core::CompileResult& compiled,
                    core::Rounding rounding) {
  intervals = compiled.integer_intervals(rounding);
  forward_on_filter = mode == runtime::DummyMode::Propagation
                          ? compiled.forward_on_filter()
                          : std::vector<std::uint8_t>{};
}

std::uint64_t RunReport::total_dummies() const {
  std::uint64_t total = 0;
  for (const auto& e : edges) total += e.dummies;
  return total;
}

std::uint64_t RunReport::total_data() const {
  std::uint64_t total = 0;
  for (const auto& e : edges) total += e.data;
  return total;
}

}  // namespace sdaf::exec
