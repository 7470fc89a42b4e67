// Chunked parallel loops on a ThreadPool.
//
// parallel_for_chunks splits an index range into fixed-size chunks and runs
// them on the pool, blocking until all chunks finish.  The chunk boundaries
// depend only on (begin, end, chunk) -- NOT on the pool's thread count --
// so callers that reduce per-chunk results in chunk order obtain results
// that are bit-identical for every thread count (the experiment engine and
// the par:* partitioners rely on this; see src/experiments/trial_engine.hpp
// and runtime/par_partition.hpp).
//
// Dispatch is one allocation-free fork-join: min(chunks, pool.size())
// runner tasks claim chunk indices in ascending order from one atomic
// counter, and the caller sleeps on a mutex/condition variable in its own
// frame until the last runner leaves.  Nothing is allocated per chunk or
// per call once the pool's queue is warm.
//
// Exception semantics: every chunk runs to completion or failure; if any
// chunk throws, the exception of the LOWEST-indexed failing chunk is
// rethrown on the calling thread after all chunks have finished
// (deterministic choice, unlike first-to-fail timing races).
//
// Calling parallel_for_chunks from one of the pool's own workers throws
// std::logic_error: the caller would hold a worker its runners may need.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <stdexcept>

#include "core/sync.hpp"
#include "runtime/thread_pool.hpp"

namespace lbb::runtime {

namespace detail {

/// One parallel_for_chunks call: lives in the caller's frame, and runners
/// reach it by reference until they leave().
template <typename ChunkFn>
class ChunkJob {
 public:
  ChunkJob(const ChunkFn& fn, std::int64_t begin, std::int64_t end,
           std::int64_t chunk, std::int64_t chunks, unsigned runners)
      : fn_(fn),
        begin_(begin),
        end_(end),
        chunk_(chunk),
        chunks_(chunks),
        live_(runners) {}

  ChunkJob(const ChunkJob&) = delete;
  ChunkJob& operator=(const ChunkJob&) = delete;

  /// A runner: claims and runs chunks in ascending order until none is
  /// left, then leaves.
  void run() noexcept {
    for (std::int64_t index = next_.fetch_add(1); index < chunks_;
         index = next_.fetch_add(1)) {
      const std::int64_t lo = begin_ + index * chunk_;
      try {
        fn_(index, lo, lo + std::min(chunk_, end_ - lo));
      } catch (...) {
        core::MutexLock lock(mu_);
        if (!error_ || index < error_index_) {
          error_ = std::current_exception();
          error_index_ = index;
        }
      }
    }
    leave(1);
  }

  /// Withdraws `runners` runners that will never start, and stops the
  /// started ones at their next claim.
  void abandon(unsigned runners) noexcept {
    next_.store(chunks_);
    leave(runners);
  }

  /// Blocks until every runner has left; returns the lowest failing
  /// chunk's exception, if any.
  [[nodiscard]] std::exception_ptr join() {
    core::CvLock lock(mu_);
    lock.wait(finished_, [this]() LBB_REQUIRES(mu_) { return live_ == 0; });
    return error_;
  }

 private:
  void leave(unsigned runners) noexcept {
    // Notify under the mutex: the caller may destroy this job the moment
    // join() sees live_ == 0, which cannot happen before we release mu_.
    core::MutexLock lock(mu_);
    live_ -= runners;
    if (live_ == 0) finished_.notify_all();
  }

  const ChunkFn& fn_;
  const std::int64_t begin_;
  const std::int64_t end_;
  const std::int64_t chunk_;
  const std::int64_t chunks_;
  std::atomic<std::int64_t> next_{0};  ///< next unclaimed chunk index
  core::Mutex mu_;
  std::condition_variable finished_;  ///< paired with mu_
  unsigned live_ LBB_GUARDED_BY(mu_);  ///< runners that have not left
  std::exception_ptr error_ LBB_GUARDED_BY(mu_);
  std::int64_t error_index_ LBB_GUARDED_BY(mu_) = 0;
};

}  // namespace detail

/// Calls fn(chunk_index, lo, hi) for every chunk [lo, hi) of the index
/// range [begin, end), chunked by `chunk`, concurrently on `pool`.
/// Blocks until all chunks are done.  `fn` is called from several threads
/// at once through a const reference.
template <typename ChunkFn>
void parallel_for_chunks(ThreadPool& pool, std::int64_t begin,
                         std::int64_t end, std::int64_t chunk, ChunkFn fn) {
  if (chunk <= 0) {
    throw std::invalid_argument("parallel_for: chunk must be >= 1");
  }
  if (pool.on_worker()) {
    throw std::logic_error(
        "parallel_for_chunks: a blocking call from one of the pool's own "
        "workers would deadlock its join");
  }
  if (begin >= end) return;
  const std::int64_t chunks = (end - begin - 1) / chunk + 1;
  const auto runners =
      static_cast<unsigned>(std::min<std::int64_t>(chunks, pool.size()));
  detail::ChunkJob<ChunkFn> job(fn, begin, end, chunk, chunks, runners);
  for (unsigned r = 0; r < runners; ++r) {
    try {
      pool.submit([&job] { job.run(); });
    } catch (...) {
      // Runners already queued still hold &job: wait them out.
      job.abandon(runners - r);
      (void)job.join();
      throw;
    }
  }
  if (std::exception_ptr error = job.join()) std::rethrow_exception(error);
}

/// Calls fn(i) for every i in [begin, end), chunked by `chunk`, concurrently
/// on `pool`.  Blocks until done; see parallel_for_chunks for exception and
/// determinism guarantees.
template <typename Fn>
void parallel_for(ThreadPool& pool, std::int64_t begin, std::int64_t end,
                  std::int64_t chunk, Fn fn) {
  parallel_for_chunks(pool, begin, end, chunk,
                      [fn](std::int64_t /*chunk_index*/, std::int64_t lo,
                           std::int64_t hi) {
                        for (std::int64_t i = lo; i < hi; ++i) fn(i);
                      });
}

}  // namespace lbb::runtime
