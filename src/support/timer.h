// Monotonic wall-clock stopwatch for benchmark harnesses and run reports.
#pragma once

#include <chrono>

namespace sdaf {

class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  [[nodiscard]] double elapsed_seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  [[nodiscard]] std::int64_t elapsed_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace sdaf
