// Filtering-behaviour models: deterministic functions from (sequence
// number, output slot) to pass/filter decisions. Determinism (counter-based
// hashing rather than stream draws) makes the pooled runtime and the
// simulator produce identical message sequences for the same seed.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "src/graph/stream_graph.h"
#include "src/runtime/kernel.h"

namespace sdaf::workloads {

using FilterFn = std::function<bool(std::uint64_t seq, std::size_t slot)>;

// Passes with probability `p`, independently per (seq, slot), derived from
// a stateless hash of (seed, seq, slot).
[[nodiscard]] FilterFn bernoulli_filter(double p, std::uint64_t seed);

// Passes exactly when seq % period == phase (heavy regular filtering).
[[nodiscard]] FilterFn periodic_filter(std::uint64_t period,
                                       std::uint64_t phase = 0);

// Never filters.
[[nodiscard]] FilterFn pass_all();

// Filters everything on `blocked_slot` for the first `filtered_prefix`
// sequence numbers, then passes: the adversarial pattern that drives
// Fig. 2's triangle into deadlock when buffers fill.
[[nodiscard]] FilterFn adversarial_prefix_filter(std::size_t blocked_slot,
                                                 std::uint64_t filtered_prefix);

// One relay kernel per node, all using `filter` with per-node decorrelation
// via the seed.
[[nodiscard]] std::vector<std::shared_ptr<runtime::Kernel>> relay_kernels(
    const StreamGraph& g, double pass_probability, std::uint64_t seed);

// All-pass kernels (no filtering anywhere).
[[nodiscard]] std::vector<std::shared_ptr<runtime::Kernel>> passthrough_kernels(
    const StreamGraph& g);

}  // namespace sdaf::workloads
