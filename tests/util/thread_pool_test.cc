// ThreadPool contract: FIFO execution with futures, exception capture, and
// clean shutdown. The concurrency tests double as TSan targets — the CI
// thread-sanitizer job runs this suite to back the "thread-safe" claims.
#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

namespace ccdn {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasksAndReturnsResults) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
  }
}

TEST(ThreadPoolTest, AtLeastOneWorker) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
  EXPECT_GE(ThreadPool::default_threads(), 1u);
}

TEST(ThreadPoolTest, TaskExceptionsSurfaceThroughTheFuture) {
  ThreadPool pool(2);
  auto future = pool.submit(
      []() -> int { throw std::runtime_error("task failed"); });
  EXPECT_THROW((void)future.get(), std::runtime_error);
  // The worker that ran the throwing task must still be alive.
  EXPECT_EQ(pool.submit([] { return 1; }).get(), 1);
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> executed{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      (void)pool.submit([&executed] { ++executed; });
    }
  }  // destructor joins after the queue drains
  EXPECT_EQ(executed.load(), 64);
}

TEST(ThreadPoolTest, ConcurrentSubmittersShareOnePool) {
  // Several producer threads race submit() against the workers; every task
  // must run exactly once. Run under TSan this exercises the queue lock
  // from both sides.
  ThreadPool pool(3);
  std::atomic<int> executed{0};
  std::vector<std::thread> producers;
  std::vector<std::vector<std::future<void>>> futures(4);
  for (std::size_t p = 0; p < 4; ++p) {
    producers.emplace_back([&pool, &executed, &futures, p] {
      for (int i = 0; i < 50; ++i) {
        futures[p].push_back(pool.submit([&executed] { ++executed; }));
      }
    });
  }
  for (auto& producer : producers) producer.join();
  for (auto& batch : futures) {
    for (auto& future : batch) future.get();
  }
  EXPECT_EQ(executed.load(), 200);
}

TEST(ThreadPoolTest, LendsToTheLendingThreadOnly) {
  ThreadPool pool(2);
  EXPECT_EQ(ThreadPool::lent(), nullptr);
  {
    const ThreadPool::Lend lend(pool);
    EXPECT_EQ(ThreadPool::lent(), &pool);
    // Not to the pool's workers, nor to any other thread.
    EXPECT_EQ(pool.submit([] { return ThreadPool::lent(); }).get(), nullptr);
    ThreadPool* elsewhere = &pool;
    std::thread([&elsewhere] { elsewhere = ThreadPool::lent(); }).join();
    EXPECT_EQ(elsewhere, nullptr);
  }
  EXPECT_EQ(ThreadPool::lent(), nullptr);
}

TEST(ThreadPoolTest, NestedLendRestoresTheOuterPool) {
  ThreadPool outer(1);
  ThreadPool inner(1);
  const ThreadPool::Lend outer_lend(outer);
  {
    const ThreadPool::Lend inner_lend(inner);
    EXPECT_EQ(ThreadPool::lent(), &inner);
  }
  EXPECT_EQ(ThreadPool::lent(), &outer);
}

}  // namespace
}  // namespace ccdn
