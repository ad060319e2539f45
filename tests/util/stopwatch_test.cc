#include "util/stopwatch.h"

#include <gtest/gtest.h>

#include <thread>

namespace ccdn {
namespace {

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch stopwatch;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double elapsed = stopwatch.elapsed_seconds();
  EXPECT_GE(elapsed, 0.015);
  EXPECT_LT(elapsed, 5.0);  // generous bound for loaded CI machines
  EXPECT_NEAR(stopwatch.elapsed_millis(), elapsed * 1e3,
              stopwatch.elapsed_millis());
}

TEST(Stopwatch, ResetRestarts) {
  Stopwatch stopwatch;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stopwatch.reset();
  EXPECT_LT(stopwatch.elapsed_seconds(), 0.015);
}

TEST(Stopwatch, MonotoneNonDecreasing) {
  Stopwatch stopwatch;
  double previous = 0.0;
  for (int i = 0; i < 100; ++i) {
    const double now = stopwatch.elapsed_seconds();
    EXPECT_GE(now, previous);
    previous = now;
  }
}

}  // namespace
}  // namespace ccdn
