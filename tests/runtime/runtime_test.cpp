// Tests for the thread pool and the real-thread partition executor.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "core/hf.hpp"
#include "problems/alpha_dist.hpp"
#include "problems/synthetic.hpp"
#include "runtime/executor.hpp"
#include "runtime/thread_pool.hpp"

namespace lbb::runtime {
namespace {

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPool) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, PropagatesTaskException) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // The pool stays usable afterwards.
  std::atomic<int> counter{0};
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, RejectsEmptyTask) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.submit(nullptr), std::invalid_argument);
}

TEST(ThreadPool, RejectsZeroThreads) {
  EXPECT_THROW(ThreadPool(0), std::invalid_argument);
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&counter] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        counter.fetch_add(1);
      });
    }
  }  // destructor joins after draining
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, ConcurrentSubmitters) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  std::vector<std::thread> submitters;
  for (int s = 0; s < 4; ++s) {
    submitters.emplace_back([&pool, &counter] {
      for (int i = 0; i < 200; ++i) {
        pool.submit([&counter] { counter.fetch_add(1); });
      }
    });
  }
  for (auto& t : submitters) t.join();
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 800);
}

TEST(Executor, BusyTimesTrackWeights) {
  using lbb::problems::AlphaDistribution;
  using lbb::problems::SyntheticProblem;
  SyntheticProblem p(3, AlphaDistribution::uniform(0.2, 0.5));
  const auto part = lbb::core::hf_partition(p, 8);
  // One worker: serial execution removes same-pool contention; external
  // load can still stretch individual busy-waits, so tolerances are loose
  // (this is a smoke test of the attribution, not a timing benchmark).
  ThreadPool pool(1);
  const auto report = execute_partition(
      part, pool, [](const SyntheticProblem& piece) {
        // Busy-wait proportional to weight (weights sum to 1).
        const auto duration =
            std::chrono::duration<double>(piece.weight() * 0.2);
        const auto end = std::chrono::steady_clock::now() + duration;
        while (std::chrono::steady_clock::now() < end) {
        }
      });
  ASSERT_EQ(report.processor_busy.size(), 8u);
  double total_busy = 0.0;
  for (double b : report.processor_busy) {
    EXPECT_GT(b, 0.0);
    total_busy += b;
  }
  EXPECT_GE(total_busy, 0.19);
  EXPECT_LE(total_busy, 1.0);
  // Measured imbalance approximates the partition's ratio.
  EXPECT_NEAR(report.imbalance(), part.ratio(), 0.6 * part.ratio());
  EXPECT_GT(report.wall_seconds, 0.0);
}

TEST(Executor, RejectsEmptyPartition) {
  lbb::core::Partition<lbb::problems::SyntheticProblem> empty;
  empty.processors = 4;
  ThreadPool pool(1);
  EXPECT_THROW(execute_partition(empty, pool,
                                 [](const auto&) {}),
               std::invalid_argument);
}

TEST(ExecutionReport, ImbalanceComputation) {
  ExecutionReport r;
  r.processor_busy = {1.0, 1.0, 2.0};
  EXPECT_NEAR(r.imbalance(), 2.0 / (4.0 / 3.0), 1e-12);
  ExecutionReport zero;
  zero.processor_busy = {0.0, 0.0};
  EXPECT_DOUBLE_EQ(zero.imbalance(), 1.0);
  ExecutionReport empty;
  EXPECT_THROW(static_cast<void>(empty.imbalance()), std::logic_error);
}

}  // namespace
}  // namespace lbb::runtime

// Appended: tests for the real-thread BA partitioner (par_ba_partition on
// the shared pool of a given thread count).
#include "core/ba.hpp"
#include "runtime/par_partition.hpp"
#include "runtime/par_partitioners.hpp"

namespace lbb::runtime {
namespace {

using lbb::problems::AlphaDistribution;
using lbb::problems::SyntheticProblem;

TEST(ParallelBa, MatchesSequentialBaExactly) {
  ThreadPool& pool = shared_pool(4);
  for (std::uint64_t seed : {1ULL, 7ULL}) {
    SyntheticProblem p(seed, AlphaDistribution::uniform(0.1, 0.5));
    for (int n : {1, 2, 16, 128, 500}) {
      const auto par = par_ba_partition(pool, p, n);
      const auto seq = lbb::core::ba_partition(p, n);
      ASSERT_EQ(par.pieces.size(), seq.pieces.size()) << "n=" << n;
      for (std::size_t i = 0; i < par.pieces.size(); ++i) {
        EXPECT_EQ(par.pieces[i].processor, seq.pieces[i].processor);
        EXPECT_DOUBLE_EQ(par.pieces[i].weight, seq.pieces[i].weight);
      }
      EXPECT_EQ(par.bisections, seq.bisections);
      EXPECT_EQ(par.max_depth, seq.max_depth);
    }
  }
}

TEST(ParallelBa, ValidatesAndConserves) {
  SyntheticProblem p(9, AlphaDistribution::uniform(0.05, 0.5));
  const auto part = par_ba_partition(shared_pool(3), p, 200);
  EXPECT_TRUE(part.validate());
  EXPECT_DOUBLE_EQ(part.ratio(),
                   lbb::core::ba_partition(p, 200).ratio());
}

TEST(ParallelBa, RepeatedRunsAreDeterministic) {
  ThreadPool& pool = shared_pool(8);
  SyntheticProblem p(11, AlphaDistribution::uniform(0.2, 0.5));
  const auto a = par_ba_partition(pool, p, 64);
  const auto b = par_ba_partition(pool, p, 64);
  EXPECT_EQ(a.sorted_weights(), b.sorted_weights());
}

}  // namespace
}  // namespace lbb::runtime

// Appended: result-returning submission and the chunked parallel-for that
// back the parallel experiment engine.
#include <algorithm>
#include <array>
#include <future>
#include <mutex>
#include <string>

#include "runtime/parallel_for.hpp"

namespace lbb::runtime {
namespace {

TEST(SubmitTask, ReturnsValueThroughFuture) {
  ThreadPool pool(2);
  auto f = pool.submit_task([] { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
  auto g = pool.submit_task([] { return std::string("ok"); });
  EXPECT_EQ(g.get(), "ok");
}

TEST(SubmitTask, ExceptionGoesToFutureNotPool) {
  ThreadPool pool(2);
  auto f = pool.submit_task([]() -> int {
    throw std::runtime_error("through the future");
  });
  EXPECT_THROW(f.get(), std::runtime_error);
  // The pool's own error channel must stay clean: a submit_task failure is
  // owned by whoever holds the future.
  pool.wait_idle();
  EXPECT_EQ(pool.suppressed_exception_count(), 0u);
}

TEST(SubmitTask, ManyFuturesAllResolve) {
  ThreadPool pool(4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.submit_task([i] { return i * i; }));
  }
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
  }
}

TEST(ThreadPool, SuppressedExceptionCountAccumulates) {
  ThreadPool pool(1);  // single worker: deterministic execution order
  for (int i = 0; i < 3; ++i) {
    pool.submit([] { throw std::runtime_error("boom"); });
  }
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);  // first rethrown...
  EXPECT_EQ(pool.suppressed_exception_count(), 2u);    // ...rest counted
  pool.submit([] { throw std::runtime_error("later"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  EXPECT_EQ(pool.suppressed_exception_count(), 2u);  // cumulative, not reset
}

TEST(ParallelFor, VisitsEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(103);
  parallel_for(pool, 0, 103, 7,
               [&hits](std::int64_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForChunks, ChunkBoundariesAreFixed) {
  ThreadPool pool(3);
  std::mutex mu;
  std::vector<std::array<std::int64_t, 3>> seen;
  parallel_for_chunks(pool, 0, 10, 4,
                      [&](std::int64_t chunk, std::int64_t lo,
                          std::int64_t hi) {
                        std::scoped_lock lock(mu);
                        seen.push_back({chunk, lo, hi});
                      });
  std::sort(seen.begin(), seen.end());
  const std::vector<std::array<std::int64_t, 3>> want = {
      {0, 0, 4}, {1, 4, 8}, {2, 8, 10}};
  EXPECT_EQ(seen, want);
}

TEST(ParallelForChunks, PropagatesLowestChunkException) {
  ThreadPool pool(4);
  // Chunks 2 and 5 fail; the join keeps the lowest failing chunk's
  // exception, so the caller must observe chunk 2's deterministically.
  try {
    parallel_for_chunks(pool, 0, 80, 10,
                        [](std::int64_t chunk, std::int64_t, std::int64_t) {
                          if (chunk == 2 || chunk == 5) {
                            throw std::runtime_error(
                                "chunk " + std::to_string(chunk));
                          }
                        });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk 2");
  }
  // The pool survives for further use.
  std::atomic<int> counter{0};
  parallel_for(pool, 0, 5, 2, [&counter](std::int64_t) { counter++; });
  EXPECT_EQ(counter.load(), 5);
}

TEST(ParallelForChunks, CallFromOwnWorkerThrows) {
  // The nested call's runners would queue behind the worker that waits
  // for them.
  ThreadPool pool(1);
  auto nested = pool.submit_task([&pool] {
    parallel_for_chunks(pool, 0, 4, 1,
                        [](std::int64_t, std::int64_t, std::int64_t) {});
  });
  EXPECT_THROW(nested.get(), std::logic_error);
  // The pool still serves calls from outside.
  std::atomic<int> counter{0};
  parallel_for(pool, 0, 4, 1, [&counter](std::int64_t) { counter++; });
  EXPECT_EQ(counter.load(), 4);
}

TEST(ParallelForChunks, EmptyAndBadRanges) {
  ThreadPool pool(2);
  int calls = 0;
  parallel_for_chunks(pool, 5, 5, 4,
                      [&calls](std::int64_t, std::int64_t, std::int64_t) {
                        ++calls;
                      });
  parallel_for_chunks(pool, 9, 2, 4,
                      [&calls](std::int64_t, std::int64_t, std::int64_t) {
                        ++calls;
                      });
  EXPECT_EQ(calls, 0);
  EXPECT_THROW(
      parallel_for_chunks(pool, 0, 10, 0,
                          [](std::int64_t, std::int64_t, std::int64_t) {}),
      std::invalid_argument);
}

}  // namespace
}  // namespace lbb::runtime
