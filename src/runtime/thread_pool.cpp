#include "runtime/thread_pool.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace lbb::runtime {

namespace {

/// The pool whose worker the calling thread is (nullptr off every pool).
/// A thread belongs to at most one pool, and dies with it.
thread_local const ThreadPool* tls_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(unsigned threads) : threads_(threads) {
  if (threads == 0) {
    throw std::invalid_argument("ThreadPool: need at least one thread");
  }
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    core::MutexLock lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (std::thread& t : workers_) {
    t.join();
  }
}

void ThreadPool::submit(UniqueFunction task) {
  if (!task) throw std::invalid_argument("ThreadPool::submit: empty task");
  {
    core::MutexLock lock(mutex_);
    if (stopping_) {
      throw std::logic_error("ThreadPool::submit: pool is shutting down");
    }
    push_locked(std::move(task));
  }
  work_available_.notify_one();
}

bool ThreadPool::on_worker() const noexcept { return tls_pool == this; }

void ThreadPool::push_locked(UniqueFunction task) {
  if (queued_ == ring_.size()) {
    // Full: move the queue, oldest first, to the front of a ring twice as
    // large.  Growth-only, so a warm pool never comes back here.
    std::vector<UniqueFunction> grown(std::max<std::size_t>(16, 2 * queued_));
    for (std::size_t i = 0; i < queued_; ++i) {
      grown[i] = std::move(ring_[(head_ + i) & (ring_.size() - 1)]);
    }
    ring_.swap(grown);
    head_ = 0;
  }
  ring_[(head_ + queued_) & (ring_.size() - 1)] = std::move(task);
  ++queued_;
}

UniqueFunction ThreadPool::pop_locked() {
  UniqueFunction task = std::move(ring_[head_]);
  head_ = (head_ + 1) & (ring_.size() - 1);
  --queued_;
  return task;
}

void ThreadPool::wait_idle() {
  core::CvLock lock(mutex_);
  lock.wait(idle_, [this]() LBB_REQUIRES(mutex_) {
    return queued_ == 0 && active_ == 0;
  });
  if (first_error_) {
    std::exception_ptr err = std::exchange(first_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(err);
  }
}

std::size_t ThreadPool::suppressed_exception_count() const {
  core::MutexLock lock(mutex_);
  return suppressed_errors_;
}

void ThreadPool::worker_loop() {
  tls_pool = this;
  for (;;) {
    UniqueFunction task;
    {
      core::CvLock lock(mutex_);
      lock.wait(work_available_, [this]() LBB_REQUIRES(mutex_) {
        return stopping_ || queued_ > 0;
      });
      if (queued_ == 0) {
        return;  // stopping_ and drained
      }
      task = pop_locked();
      ++active_;
    }
    try {
      task();
    } catch (...) {
      core::MutexLock lock(mutex_);
      if (!first_error_) {
        first_error_ = std::current_exception();
      } else {
        ++suppressed_errors_;
      }
    }
    {
      core::MutexLock lock(mutex_);
      --active_;
      if (queued_ == 0 && active_ == 0) {
        idle_.notify_all();
      }
    }
  }
}

}  // namespace lbb::runtime
