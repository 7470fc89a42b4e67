// Minimal fixed-size thread pool (tasks, not threads -- CP.4).
//
// The library's one pool: the experiment engine (src/experiments) fans
// Monte-Carlo trial chunks out over it, the par:* partitioners finish
// their frontier frames on it (both through parallel_for_chunks), and the
// examples run a partition's subproblems on it to measure the realized
// balance.  RAII: the destructor drains the queue and joins all workers.
//
// Two submission styles:
//   * submit(fn)       -- fire-and-forget; exceptions are captured by the
//                         pool and rethrown from wait_idle() (see below).
//   * submit_task(fn)  -- returns a std::future<R>; the result (or the
//                         exception) travels through the future and never
//                         touches the pool's error state.
//
// Lock discipline (enforced by clang -Wthread-safety via the annotations;
// see core/thread_annotations.hpp): every piece of mutable pool state is
// guarded by `mutex_`; the condition variables pair with it.  Workers hold
// the lock only around queue/bookkeeping transitions, never while a task
// runs.
//
// The queue is a growth-only ring of UniqueFunction: once it has grown to
// the deepest backlog a caller produces, submit() and the workers' pops
// allocate nothing (the par:* and parallel_for_chunks allocation gates
// rely on this; a std::deque would allocate a node every few pushes).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <future>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/sync.hpp"
#include "runtime/unique_function.hpp"

namespace lbb::runtime {

/// Fixed pool of worker threads executing submitted tasks FIFO.
class ThreadPool {
 public:
  /// Spawns `threads` workers (>= 1).
  explicit ThreadPool(unsigned threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains outstanding tasks, then joins all workers.
  ~ThreadPool();

  /// Enqueues a task (any void() callable, move-only included).
  /// Thread-safe.
  void submit(UniqueFunction task) LBB_EXCLUDES(mutex_);

  /// Enqueues a callable and returns a future for its result.  Exceptions
  /// thrown by `fn` are delivered through the future (std::future::get
  /// rethrows them); they do NOT count as pool errors and are never
  /// rethrown from wait_idle().  `fn` may be move-only; the task is stored
  /// once (UniqueFunction), with no shared_ptr/packaged_task indirection.
  template <typename F>
  [[nodiscard]] auto submit_task(F fn)
      -> std::future<std::invoke_result_t<F&>> {
    using R = std::invoke_result_t<F&>;
    std::promise<R> promise;
    std::future<R> result = promise.get_future();
    submit([fn = std::move(fn), promise = std::move(promise)]() mutable {
      try {
        if constexpr (std::is_void_v<R>) {
          fn();
          promise.set_value();
        } else {
          promise.set_value(fn());
        }
      } catch (...) {
        promise.set_exception(std::current_exception());
      }
    });
    return result;
  }

  /// Blocks until the queue is empty and all workers are idle.
  ///
  /// Error semantics for submit() (fire-and-forget) tasks: the pool stores
  /// the FIRST exception raised since the last wait_idle() and rethrows it
  /// here; any FURTHER exceptions in that window are suppressed (the tasks
  /// still complete) and only counted -- see suppressed_exception_count().
  /// Tasks submitted via submit_task() report through their future instead
  /// and never appear here.
  void wait_idle() LBB_EXCLUDES(mutex_);

  /// Total number of fire-and-forget task exceptions that were swallowed
  /// because another exception was already pending (cumulative over the
  /// pool's lifetime; never reset).  Thread-safe.
  [[nodiscard]] std::size_t suppressed_exception_count() const
      LBB_EXCLUDES(mutex_);

  [[nodiscard]] unsigned size() const noexcept { return threads_; }

  /// True when the calling thread is one of this pool's workers.  A task
  /// that blocks on other tasks of its own pool can deadlock it;
  /// parallel_for_chunks refuses such calls through this.
  [[nodiscard]] bool on_worker() const noexcept;

 private:
  void worker_loop() LBB_EXCLUDES(mutex_);
  void push_locked(UniqueFunction task) LBB_REQUIRES(mutex_);
  [[nodiscard]] UniqueFunction pop_locked() LBB_REQUIRES(mutex_);

  unsigned threads_;
  mutable core::Mutex mutex_;
  std::condition_variable work_available_;  ///< paired with mutex_
  std::condition_variable idle_;            ///< paired with mutex_
  /// The queue: `queued_` tasks from ring_[head_] on, wrapping; the size
  /// is zero or a power of two.
  std::vector<UniqueFunction> ring_ LBB_GUARDED_BY(mutex_);
  std::size_t head_ LBB_GUARDED_BY(mutex_) = 0;
  std::size_t queued_ LBB_GUARDED_BY(mutex_) = 0;
  std::size_t active_ LBB_GUARDED_BY(mutex_) = 0;
  bool stopping_ LBB_GUARDED_BY(mutex_) = false;
  std::exception_ptr first_error_ LBB_GUARDED_BY(mutex_);
  std::size_t suppressed_errors_ LBB_GUARDED_BY(mutex_) = 0;
  std::vector<std::thread> workers_;  ///< written in ctor, joined in dtor
};

}  // namespace lbb::runtime
