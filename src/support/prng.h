// Deterministic pseudo-random number generation for workload generators,
// filter models, and property tests. Reproducibility across the pooled
// runtime and the simulator requires a PRNG we own; std::mt19937 output is
// standardized but distribution implementations are not, so distributions
// here are implemented explicitly.
#pragma once

#include <cstdint>
#include <vector>

namespace sdaf {

// SplitMix64: used for seeding and as a cheap stateless mixer.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state);

// xoshiro256**: the library's workhorse generator.
class Prng {
 public:
  explicit Prng(std::uint64_t seed);

  std::uint64_t next_u64();

  // Uniform in [0, bound), bias-free (rejection).
  std::uint64_t next_below(std::uint64_t bound);

  // Uniform in [lo, hi] inclusive.
  std::int64_t next_in(std::int64_t lo, std::int64_t hi);

  // Uniform in [0, 1).
  double next_double();

  // True with probability p.
  bool next_bool(double p);

  // Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  // Derives an independent generator (for per-node streams).
  [[nodiscard]] Prng split();

 private:
  std::uint64_t s_[4];
};

}  // namespace sdaf
