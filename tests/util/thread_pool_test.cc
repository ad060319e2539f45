// ThreadPool contract: two FIFO task classes, slot tasks taken first, with
// futures, exception capture, and clean shutdown. The concurrency tests
// double as TSan targets — the CI thread-sanitizer job runs this suite to
// back the "thread-safe" claims.
#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <optional>
#include <stdexcept>
#include <string>
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

using TaskClass = ThreadPool::TaskClass;

/// Occupies every worker of `pool` with a slot task until destroyed, so
/// the tasks submitted meanwhile wait in their queues.
class HeldWorkers {
 public:
  explicit HeldWorkers(ThreadPool& pool)
      : gate_(open_.get_future().share()), started_(pool.size()) {
    std::vector<std::future<void>> running;
    for (std::promise<void>& started : started_) {
      running.push_back(started.get_future());
      held_.push_back(pool.submit([gate = gate_, &started] {
        started.set_value();
        gate.wait();
      }));
    }
    for (std::future<void>& worker : running) worker.wait();
  }
  ~HeldWorkers() {
    open_.set_value();
    for (std::future<void>& task : held_) task.wait();
  }
  HeldWorkers(const HeldWorkers&) = delete;
  HeldWorkers& operator=(const HeldWorkers&) = delete;

 private:
  std::promise<void> open_;
  std::shared_future<void> gate_;
  std::vector<std::promise<void>> started_;
  std::vector<std::future<void>> held_;
};

TEST(ThreadPoolTest, SlotTaskRunsBeforeAnEarlierParseTask) {
  ThreadPool pool(1);
  std::vector<std::string> order;  // written by the one worker only
  std::future<void> parse;
  std::future<void> slot;
  {
    const HeldWorkers held(pool);
    parse = pool.submit([&order] { order.emplace_back("parse"); },
                        TaskClass::kParse);
    slot = pool.submit([&order] { order.emplace_back("slot"); });
  }
  parse.get();
  slot.get();
  EXPECT_EQ(order, (std::vector<std::string>{"slot", "parse"}));
}

TEST(ThreadPoolTest, EachClassRunsFifo) {
  ThreadPool pool(1);
  std::vector<std::string> order;
  std::vector<std::future<void>> tasks;
  {
    const HeldWorkers held(pool);
    for (int i = 0; i < 4; ++i) {
      for (const TaskClass task_class : {TaskClass::kParse, TaskClass::kSlot}) {
        const std::string name =
            (task_class == TaskClass::kSlot ? "slot " : "parse ") +
            std::to_string(i);
        tasks.push_back(
            pool.submit([&order, name] { order.push_back(name); }, task_class));
      }
    }
  }
  for (std::future<void>& task : tasks) task.get();
  EXPECT_EQ(order, (std::vector<std::string>{"slot 0", "slot 1", "slot 2",
                                             "slot 3", "parse 0", "parse 1",
                                             "parse 2", "parse 3"}));
}

TEST(ThreadPoolTest, DestructorDrainsBothQueues) {
  std::atomic<int> slots{0};
  std::atomic<int> parses{0};
  {
    std::optional<ThreadPool> pool(std::in_place, 2);
    std::optional<HeldWorkers> held(std::in_place, *pool);
    for (int i = 0; i < 32; ++i) {
      (void)pool->submit([&slots] { ++slots; });
      (void)pool->submit([&parses] { ++parses; }, TaskClass::kParse);
    }
    // The destructor starts while both queues are full; the workers are
    // let go only once it has had time to set its stop flag.
    std::thread destroy([&pool] { pool.reset(); });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    held.reset();
    destroy.join();
  }
  EXPECT_EQ(slots.load(), 32);
  EXPECT_EQ(parses.load(), 32);
}

TEST(ThreadPoolTest, ExceptionsSurfaceFromEitherClass) {
  ThreadPool pool(2);
  for (const TaskClass task_class : {TaskClass::kSlot, TaskClass::kParse}) {
    auto future = pool.submit(
        []() -> int { throw std::runtime_error("task failed"); }, task_class);
    EXPECT_THROW((void)future.get(), std::runtime_error);
    EXPECT_EQ(pool.submit([] { return 1; }, task_class).get(), 1);
  }
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
