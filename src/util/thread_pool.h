// Small fixed-size thread pool for the parallel slot-scheduling pipeline.
//
// Tasks are type-erased closures executed FIFO by a fixed set of worker
// threads; `submit` returns a std::future for the task's result. The pool
// is intentionally minimal (no work stealing, no priorities): the simulator
// fans out whole timeslots, which are coarse enough that a single mutex-
// guarded queue is nowhere near the bottleneck.
//
// A pool can also be *lent* to the thread that owns it for a scope
// (ThreadPool::Lend), so code that is handed no pool, such as
// CsvSlotSource's piece parser, runs its tasks on the lanes of the run that
// calls it instead of starting threads of its own (DESIGN.md §3.9).
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace ccdn {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Number of threads to use when the caller asks for "all of them":
  /// hardware concurrency, or 1 when the runtime cannot report it.
  [[nodiscard]] static std::size_t default_threads() noexcept;

  /// Lends `pool` to the constructing thread until destruction, when the
  /// pool lent before it (or none) is lent again. Scope it inside the
  /// pool's lifetime.
  class Lend {
   public:
    explicit Lend(ThreadPool& pool) noexcept;
    ~Lend();
    Lend(const Lend&) = delete;
    Lend& operator=(const Lend&) = delete;

   private:
    ThreadPool* previous_;
  };

  /// The pool lent to the calling thread, or nullptr outside every Lend's
  /// scope. A pool's workers start with none.
  [[nodiscard]] static ThreadPool* lent() noexcept;

  /// Enqueue a callable; returns a future for its result. Exceptions thrown
  /// by the task are captured in the future.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> future = task->get_future();
    enqueue([task]() { (*task)(); });
    return future;
  }

 private:
  void enqueue(std::function<void()> task) CCDN_EXCLUDES(mutex_);
  void worker_loop() CCDN_EXCLUDES(mutex_);

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_ CCDN_GUARDED_BY(mutex_);
  Mutex mutex_;
  CondVar ready_;
  bool stop_ CCDN_GUARDED_BY(mutex_) = false;
};

}  // namespace ccdn
