#include "util/thread_pool.h"

#include <algorithm>

namespace ccdn {

namespace {
thread_local ThreadPool* lent_pool = nullptr;
}  // namespace

ThreadPool::Lend::Lend(ThreadPool& pool) noexcept : previous_(lent_pool) {
  lent_pool = &pool;
}

ThreadPool::Lend::~Lend() { lent_pool = previous_; }

ThreadPool* ThreadPool::lent() noexcept { return lent_pool; }

ThreadPool::ThreadPool(std::size_t num_threads) {
  num_threads = std::max<std::size_t>(1, num_threads);
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const MutexLock lock(mutex_);
    stop_ = true;
  }
  ready_.notify_all();
  for (auto& worker : workers_) worker.join();
}

std::size_t ThreadPool::default_threads() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

void ThreadPool::enqueue(std::function<void()> task, TaskClass task_class) {
  {
    const MutexLock lock(mutex_);
    queues_[static_cast<std::size_t>(task_class)].push_back(std::move(task));
  }
  ready_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      // Explicit wait loop (not the predicate overload) so the guarded
      // reads of stop_/queues_ stay visible to the thread-safety analysis.
      while (!stop_ && queues_[0].empty() && queues_[1].empty()) {
        ready_.wait(mutex_);
      }
      // Slot tasks first; with stop_ set, both queues drain before return.
      std::deque<std::function<void()>>& queue =
          queues_[0].empty() ? queues_[1] : queues_[0];
      if (queue.empty()) return;
      task = std::move(queue.front());
      queue.pop_front();
    }
    task();
  }
}

}  // namespace ccdn
