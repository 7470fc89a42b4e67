// Shared chunked-trial scheduler of the experiment engines.
//
// ratio_experiment, timing_experiment and tail_study all fan independent
// Monte-Carlo trials out in FIXED chunks of kTrialChunk trials and reduce
// per-chunk statistics in ascending chunk order, which is what makes every
// reported number byte-identical for any --threads setting.  TrialEngine
// owns the shared mechanics -- worker-count resolution, the optional thread
// pool, the optional wall-clock deadline, the chunk dispatch loop, and the
// cells of synthetic ratio trials (run_cell) -- so the engines only supply
// the per-chunk body.
//
// The body runs concurrently on worker threads; it must write its results
// into chunk-indexed slots (or merge into order-independent integer
// accumulators) and use ensure_alive() between trials for cancellation.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/partitioner.hpp"
#include "core/run_context.hpp"
#include "experiments/batch_trials.hpp"
#include "experiments/ratio_experiment.hpp"
#include "problems/alpha_dist.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/thread_pool.hpp"
#include "stats/summary.hpp"

namespace lbb::experiments::detail {

class TrialEngine {
 public:
  /// `threads` follows resolve_threads (1 = sequential, 0 = hardware);
  /// `time_limit_seconds` <= 0 disables the deadline.
  TrialEngine(std::int32_t threads, double time_limit_seconds) {
    if (time_limit_seconds > 0.0) {
      deadline_ =
          std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(time_limit_seconds));
    }
    const unsigned workers = resolve_threads(threads);
    if (workers > 1) pool_.emplace(workers);
  }

  /// Throws core::OperationCancelled when the token fired or the deadline
  /// passed.  Call between trials inside the chunk body.
  void ensure_alive(const lbb::core::CancelToken* cancel,
                    const char* what) const {
    if (cancel != nullptr && cancel->cancelled()) {
      throw lbb::core::OperationCancelled(what);
    }
    if (deadline_ && std::chrono::steady_clock::now() >= *deadline_) {
      throw lbb::core::OperationCancelled(what);
    }
  }

  /// Invokes run_chunk(chunk_index, lo, hi) for every kTrialChunk-sized
  /// slice of [0, trials) -- on the pool when one exists, else inline in
  /// ascending order.  Chunk boundaries depend only on `trials`.
  template <typename Fn>
  void run_chunks(std::int64_t trials, Fn&& run_chunk) {
    if (pool_) {
      lbb::runtime::parallel_for_chunks(*pool_, 0, trials, kTrialChunk,
                                        std::forward<Fn>(run_chunk));
      return;
    }
    std::int64_t chunk = 0;
    for (std::int64_t lo = 0; lo < trials; lo += kTrialChunk, ++chunk) {
      run_chunk(chunk, lo, std::min<std::int64_t>(lo + kTrialChunk, trials));
    }
  }

  /// Writes the ratio and bisection count of trials [lo, hi) (at most
  /// kTrialChunk; trial t partitions instance mix64(seed, t) of `dist` into
  /// n pieces with `part`) to out[t - lo]: under the max sink for builtin
  /// piece-free configurations, as full partitions otherwise -- the same
  /// bits either way.  Checks `cancel` and the deadline (message `what`)
  /// before the range and, for full partitions, before every trial.
  void run_trials(const lbb::core::Partitioner& part,
                  const lbb::problems::AlphaDistribution& dist,
                  std::uint64_t seed, std::int32_t n,
                  const lbb::core::CancelToken* cancel, const char* what,
                  std::int64_t lo, std::int64_t hi,
                  BatchTrialOutcome* out) const;

  /// Runs `trials` trials of one cell with run_trials, chunk by chunk,
  /// adding their ratios to `ratio` and their bisections to `bisections`
  /// in ascending chunk order.  `on_chunk(outcomes, count)` also sees each
  /// chunk's outcomes, on the thread that ran it.
  template <typename OnChunk>
  void run_cell(const lbb::core::Partitioner& part,
                const lbb::problems::AlphaDistribution& dist,
                std::uint64_t seed, std::int32_t n, std::int64_t trials,
                const lbb::core::CancelToken* cancel, const char* what,
                lbb::stats::RunningStats& ratio, std::int64_t& bisections,
                OnChunk&& on_chunk) {
    const auto chunks = static_cast<std::size_t>(chunk_count(trials));
    std::vector<lbb::stats::RunningStats> chunk_ratio(chunks);
    std::vector<std::int64_t> chunk_bisections(chunks, 0);
    run_chunks(trials, [&](std::int64_t chunk, std::int64_t lo,
                           std::int64_t hi) {
      BatchTrialOutcome out[kTrialChunk];
      run_trials(part, dist, seed, n, cancel, what, lo, hi, out);
      const auto c = static_cast<std::size_t>(chunk);
      for (std::int64_t i = 0; i < hi - lo; ++i) {
        chunk_ratio[c].add(out[i].ratio);
        chunk_bisections[c] += out[i].bisections;
      }
      on_chunk(out, hi - lo);
    });
    for (std::size_t c = 0; c < chunks; ++c) {
      ratio.merge(chunk_ratio[c]);
      bisections += chunk_bisections[c];
    }
  }

  /// Number of fixed-size chunks a `trials`-trial run dispatches.
  [[nodiscard]] static std::int64_t chunk_count(std::int64_t trials) {
    return (trials + kTrialChunk - 1) / kTrialChunk;
  }

 private:
  std::optional<std::chrono::steady_clock::time_point> deadline_;
  std::optional<lbb::runtime::ThreadPool> pool_;
};

}  // namespace lbb::experiments::detail
