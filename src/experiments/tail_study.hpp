// Million-trial max-ratio TAIL study (experiment E17).
//
// The ratio experiment reports per-cell means; the paper's theorems,
// though, are worst-case statements, so the interesting empirical object
// at scale is the upper tail of the performance-ratio distribution: how
// close do p99 / p99.9 / the observed maximum get to the theoretical
// bound as the trial count grows?  This engine runs the same chunked
// deterministic trial loop as run_ratio_experiment -- the max-sink kernels
// for the builtin families, per-trial seeds mix64(seed, t), RunningStats
// merged in ascending chunk order -- and additionally streams every
// trial's ratio into a stats::TailAccumulator (preallocated bins, zero
// steady-state alloc).
//
// Determinism: the RunningStats reduction is fixed-order as always; the
// tail bins are integers, so per-chunk scratch accumulators merge into the
// cell under a mutex in completion order WITHOUT affecting any reported
// number.  Cells are therefore byte-identical for any --threads, and equal
// to cells built from full partitions (tail_study --smoke and the ctest
// gate assert both).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/run_context.hpp"
#include "problems/alpha_dist.hpp"
#include "stats/summary.hpp"
#include "stats/tail_accumulator.hpp"

namespace lbb::experiments {

/// Configuration of one tail study.
struct TailStudyConfig {
  lbb::problems::AlphaDistribution dist =
      lbb::problems::AlphaDistribution::uniform(0.01, 0.5);
  double beta = 1.0;  ///< BA-HF threshold parameter
  std::vector<std::int32_t> log2_n = {10, 14};
  /// Trials per cell before the bisection budget caps it.  Tail studies
  /// want as many as the budget affords -- the default targets ~10^5+
  /// trials at small N within seconds.
  std::int64_t trials = 1 << 20;
  std::uint64_t seed = 1;
  std::vector<std::string> algos = {"ba", "ba_star", "ba_hf", "hf"};
  /// Per-cell bisection budget (trials * N <= budget when > 0), with
  /// min_trials as the floor -- same semantics as RatioExperimentConfig.
  std::int64_t bisection_budget = std::int64_t{1} << 26;
  std::int32_t min_trials = 25;
  std::int32_t threads = 1;  ///< same semantics as RatioExperimentConfig
  /// Tail histogram grid: ratios land in [1, hist_max) across hist_bins
  /// equal-width bins (ratio >= 1 by definition; samples past hist_max
  /// clamp into the last bin and are counted by out_of_range()).
  double hist_max = 8.0;
  std::int32_t hist_bins = 1024;
  const lbb::core::CancelToken* cancel = nullptr;
  double time_limit_seconds = 0.0;
};

/// Observed tail statistics of one (algorithm, N) cell.
struct TailStudyCell {
  std::string algo;     ///< registry key
  std::string display;  ///< table label
  std::int32_t log2_n = 0;
  std::int64_t trials = 0;
  double upper_bound = 0.0;  ///< worst-case ratio bound (0 if unknown)
  lbb::stats::RunningStats ratio;
  lbb::stats::TailAccumulator tail;
  std::int64_t bisections = 0;
};

struct TailStudyResult {
  TailStudyConfig config;
  std::vector<TailStudyCell> cells;  ///< algo-major, log2_n-minor order
};

/// Runs the study.  Byte-identical for any config.threads; throws
/// core::OperationCancelled on cancellation.
[[nodiscard]] TailStudyResult run_tail_study(const TailStudyConfig& config);

/// Writes one row per cell -- algo, log2_n, trials, upper_bound, mean,
/// p50/p90/p99/p999, max -- to a CSV file.
void write_tail_csv(const TailStudyResult& result, const std::string& path);

}  // namespace lbb::experiments
