#include "util/fork_run.h"

#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace ccdn {
namespace {

TEST(ForkRun, RoundTripsPayload) {
  const ForkResult result = fork_run([] {
    return std::vector<std::uint8_t>{1, 2, 3, 4, 5};
  });
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_EQ(result.payload, (std::vector<std::uint8_t>{1, 2, 3, 4, 5}));
}

TEST(ForkRun, RoundTripsEmptyPayload) {
  const ForkResult result = fork_run([] {
    return std::vector<std::uint8_t>{};
  });
  EXPECT_TRUE(result.complete);
  EXPECT_TRUE(result.payload.empty());
}

// A payload well past the 64 KiB pipe capacity: the child blocks mid-write
// until the parent drains the pipe, which it must do before reaping.
TEST(ForkRun, PayloadLargerThanPipeCapacity) {
  constexpr std::size_t kSize = 1 << 20;
  const ForkResult result = fork_run([] {
    std::vector<std::uint8_t> payload(kSize);
    for (std::size_t i = 0; i < payload.size(); ++i) {
      payload[i] = static_cast<std::uint8_t>(i);
    }
    return payload;
  });
  EXPECT_TRUE(result.complete);
  ASSERT_EQ(result.payload.size(), kSize);
  EXPECT_EQ(result.payload[12345], static_cast<std::uint8_t>(12345));
}

// Exit-status propagation: a child that _exit()s nonzero must surface that
// exact code, not a raw wait status, and must not read as complete.
TEST(ForkRun, PropagatesChildExitCode) {
  const ForkResult result = fork_run([]() -> std::vector<std::uint8_t> {
    ::_exit(7);
  });
  EXPECT_FALSE(result.complete);
  EXPECT_EQ(result.exit_code, 7);
}

TEST(ForkRun, ThrowingTaskExitsWithExceptionCode) {
  const ForkResult result = fork_run([]() -> std::vector<std::uint8_t> {
    throw std::runtime_error("boom");
  });
  EXPECT_FALSE(result.complete);
  EXPECT_EQ(result.exit_code, kForkExceptionExit);
}

TEST(ForkRun, SignalDeathReportsAs128PlusSignal) {
  const ForkResult result = fork_run([]() -> std::vector<std::uint8_t> {
    ::raise(SIGKILL);
    return {};
  });
  EXPECT_FALSE(result.complete);
  EXPECT_EQ(result.exit_code, 128 + SIGKILL);
}

}  // namespace
}  // namespace ccdn
