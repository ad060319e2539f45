// Small fixed-size thread pool for the parallel slot-scheduling pipeline.
//
// Tasks are type-erased closures run by a fixed set of worker threads;
// `submit` returns a std::future for the task's result. A task joins one of
// two FIFO queues by its class: a worker takes every queued slot task
// before any parse task. The pool is otherwise minimal (no work stealing):
// the simulator fans out whole timeslots, which are coarse enough that one
// mutex-guarded pair of queues is nowhere near the bottleneck.
//
// A pool can also be *lent* to the thread that owns it for a scope
// (ThreadPool::Lend), so code that is handed no pool, such as
// CsvSlotSource's piece parser, runs its tasks on the lanes of the run that
// calls it instead of starting threads of its own. Its read-ahead goes in
// as parse tasks, so it fills lanes that no slot wants and never delays a
// slot (DESIGN.md §3.5, §3.9).
#pragma once

#include <array>
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

  /// The queue a task joins. A worker takes a parse task only when no slot
  /// task is queued, so a slot task must never wait on a parse task: with
  /// every worker in such a wait, no parse task would ever run.
  enum class TaskClass { kSlot = 0, kParse = 1 };

  /// Enqueue a callable; returns a future for its result. Exceptions thrown
  /// by the task are captured in the future.
  template <typename F>
  auto submit(F&& f, TaskClass task_class = TaskClass::kSlot)
      -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> future = task->get_future();
    enqueue([task]() { (*task)(); }, task_class);
    return future;
  }

 private:
  void enqueue(std::function<void()> task, TaskClass task_class)
      CCDN_EXCLUDES(mutex_);
  void worker_loop() CCDN_EXCLUDES(mutex_);

  std::vector<std::thread> workers_;
  /// One FIFO queue per TaskClass, indexed by its value.
  std::array<std::deque<std::function<void()>>, 2> queues_
      CCDN_GUARDED_BY(mutex_);
  Mutex mutex_;
  CondVar ready_;
  bool stop_ CCDN_GUARDED_BY(mutex_) = false;
};

}  // namespace ccdn
