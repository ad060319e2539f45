#include "util/cpu_features.h"

#include <gtest/gtest.h>

namespace ccdn {
namespace {

TEST(CpuFeatures, ProbeIsMemoizedAndStable) {
  // The cpuid probe must return the same answer for the process lifetime
  // (SimdMode::kAuto dispatch relies on it being deterministic).
  const bool first = cpu_has_avx2();
  for (int i = 0; i < 3; ++i) EXPECT_EQ(cpu_has_avx2(), first);
}

}  // namespace
}  // namespace ccdn
