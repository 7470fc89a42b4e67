// The paper's Section-4 simulation protocol, reusable by benches and tests.
//
// Stochastic model: every bisection's alpha-hat is i.i.d. from a given
// distribution (the paper uses U[alpha_lo, alpha_hi]); for each processor
// count N = 2^k and each algorithm, `trials` independent instances are
// partitioned and the performance ratio max_i w(p_i) / (w(p)/N) is
// recorded (min / mean / max / variance), next to the worst-case upper
// bound computed from the theorems.
//
// All algorithms see the *same* instances (path-hashed randomness), so the
// comparisons are paired exactly as in the paper.
//
// Algorithm selection goes through the core PartitionerRegistry: an
// experiment names its algorithms by registry key ("hf", "ba", "ba_star",
// "ba_hf", "oblivious:random", ...) and the engine instantiates each once
// per configuration.  Trials run through the registry's *typed escape
// hatch* (core::try_typed_partition on SyntheticProblem), so the builtin
// families keep the monomorphized hot paths; custom registered algorithms
// automatically fall back to the type-erased interface.  The registry is
// the one place that names a family: a cell carries its key and the
// registry's display label.
//
// Parallel execution: trials are independent by construction (instance
// seeds are path-hashed from (config.seed, trial index)), so the engine
// fans them out over a thread pool in FIXED chunks of kTrialChunk trials
// and combines per-chunk statistics with RunningStats::merge in ascending
// chunk order.  Chunk boundaries and reduction order depend only on the
// trial count -- never on the thread count -- so the resulting cells (and
// any CSV written from them) are BYTE-IDENTICAL for every `threads`
// setting, including the sequential threads = 1 path.
//
// Cancellation: attach a core::CancelToken and/or a time limit; the engine
// checkpoints between trials and aborts the whole run with
// core::OperationCancelled (no partial results, so a run that completes is
// bit-identical whether or not a token was attached).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/run_context.hpp"
#include "problems/alpha_dist.hpp"
#include "stats/summary.hpp"

namespace lbb::experiments {

namespace detail {
/// Maps a config's `threads` knob to a worker count: 1 = sequential,
/// 0 = one per hardware thread, k = exactly k.  Throws on negatives.
[[nodiscard]] unsigned resolve_threads(std::int32_t threads);
}  // namespace detail

/// Trials per work unit of the parallel engine.  Fixed (independent of the
/// thread count) so that the chunk-order statistics reduction -- and hence
/// every reported number -- is bit-stable across thread counts.
inline constexpr std::int32_t kTrialChunk = 32;

/// Configuration of one ratio experiment.
struct RatioExperimentConfig {
  lbb::problems::AlphaDistribution dist =
      lbb::problems::AlphaDistribution::uniform(0.01, 0.5);
  double beta = 1.0;              ///< BA-HF threshold parameter
  std::vector<std::int32_t> log2_n = {5, 10, 15, 20};
  std::int32_t trials = 1000;
  std::uint64_t seed = 1;
  /// Partitioner registry keys to compare (default: the paper's set).
  std::vector<std::string> algos = {"ba", "ba_star", "ba_hf", "hf"};
  /// If > 0, trials for large N are reduced so that trials * N does not
  /// exceed this budget (per algorithm and cell); sample variance in this
  /// model is tiny (the paper makes the same observation), so the means
  /// remain stable.  Set 0 for the paper-faithful fixed trial count.
  std::int64_t bisection_budget = 0;
  /// Floor for the reduced trial count when bisection_budget is active.
  std::int32_t min_trials = 25;
  /// Worker threads for trial execution: 1 = sequential (default),
  /// 0 = one per hardware thread, k = exactly k.  Results are identical
  /// for every value -- see the determinism note at the top of this file.
  std::int32_t threads = 1;
  /// Optional cooperative cancellation (not owned; may be nullptr).
  const lbb::core::CancelToken* cancel = nullptr;
  /// Optional wall-clock limit in seconds (<= 0: none).  On expiry the
  /// run throws core::OperationCancelled.
  double time_limit_seconds = 0.0;
};

/// Observed statistics of one (algorithm, N) cell.
struct RatioCell {
  std::string algo;          ///< registry key, e.g. "ba_hf"
  std::string display;       ///< table/CSV label, e.g. "BA-HF"
  std::int32_t log2_n = 0;
  std::int32_t trials = 0;
  double upper_bound = 0.0;  ///< worst-case ratio bound (0 if unknown)
  lbb::stats::RunningStats ratio;
  std::int64_t bisections = 0;  ///< total bisections over all trials
};

/// Result of a full experiment (cells in algos-major, log2_n-minor order).
struct RatioExperimentResult {
  RatioExperimentConfig config;
  std::vector<RatioCell> cells;

  /// The cell for (algo key, log2_n), by linear scan (a grid holds a few
  /// dozen cells); throws std::out_of_range if absent.
  [[nodiscard]] const RatioCell& cell(std::string_view algo,
                                      std::int32_t log2_n) const;
};

/// Runs the experiment.  Deterministic in `config.seed`: for any
/// `config.threads` the result (and CSV serialization) is byte-identical.
/// Unknown algo keys raise core::UnknownPartitionerError before any trial
/// runs.
[[nodiscard]] RatioExperimentResult run_ratio_experiment(
    const RatioExperimentConfig& config);

/// Writes one row per (algorithm, log2_n) cell -- columns: algo, log2_n,
/// trials, upper_bound, min, mean, max, stddev -- to a CSV file.
void write_ratio_csv(const RatioExperimentResult& result,
                     const std::string& path);

}  // namespace lbb::experiments
