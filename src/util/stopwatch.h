// Wall-clock stopwatch for the running-time experiments (Fig. 8).
#pragma once

#include <chrono>

namespace ccdn {

class Stopwatch {
 public:
  // ccdn-lint: allow(nondet-clock) -- timing telemetry only (Fig. 8 running
  // time); elapsed values are reported, never fed into a scheduling decision
  Stopwatch() noexcept : start_(Clock::now()) {}

  // ccdn-lint: allow(nondet-clock) -- timing telemetry only, see ctor
  void reset() noexcept { start_ = Clock::now(); }

  [[nodiscard]] double elapsed_seconds() const noexcept {
    // ccdn-lint: allow(nondet-clock) -- timing telemetry only, see ctor
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  [[nodiscard]] double elapsed_millis() const noexcept {
    return elapsed_seconds() * 1e3;
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace ccdn
