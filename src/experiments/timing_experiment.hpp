// Simulated running-time / communication experiment (Theorems 3, 7, 8 and
// the Section-5 discussion): parallel makespan, message counts, and
// collective-operation counts of PHF / BA / BA-HF versus N, next to the
// Theta(N) time of sequential HF.
//
// Each trial calls the simulators (phf_simulate, ba_simulate,
// ba_hf_simulate) under the experiment's CostModel and reads their
// SimMetrics.  kSeqHF stays an analytic model (no simulation runs; see
// sequential_hf_time).
#pragma once

#include <cstdint>
#include <vector>

#include "core/run_context.hpp"
#include "problems/alpha_dist.hpp"
#include "sim/cost_model.hpp"
#include "sim/metrics.hpp"
#include "sim/phf.hpp"
#include "stats/summary.hpp"

namespace lbb::experiments {

/// Which simulated execution a timing row describes.
enum class ParAlgo {
  kPHFOracle,   ///< PHF, idealized free-processor manager
  kPHFBaPrime,  ///< PHF, BA'-based manager (Section 3.4)
  kPHFProbe,    ///< PHF, randomized-probing manager (work-stealing style)
  kBA,          ///< BA with range-based management
  kBAHF,        ///< BA-HF with sequential-HF second phase
  kSeqHF,       ///< sequential HF on P_1 (analytic model)
};

/// Display name ("PHF(oracle)", ..., "HF(seq)").
[[nodiscard]] const char* par_algo_name(ParAlgo algo);

struct TimingExperimentConfig {
  lbb::problems::AlphaDistribution dist =
      lbb::problems::AlphaDistribution::uniform(0.1, 0.5);
  double beta = 1.0;
  std::vector<std::int32_t> log2_n = {5, 8, 11, 14, 17};
  std::int32_t trials = 20;
  std::uint64_t seed = 7;
  lbb::sim::CostModel cost;
  std::vector<ParAlgo> algos = {ParAlgo::kPHFOracle, ParAlgo::kPHFBaPrime,
                                ParAlgo::kPHFProbe, ParAlgo::kBA,
                                ParAlgo::kBAHF, ParAlgo::kSeqHF};
  /// Worker threads for trial execution: 1 = sequential (default),
  /// 0 = one per hardware thread, k = exactly k.  As in the ratio
  /// experiment, trials run in fixed chunks and their statistics merge in
  /// chunk order, so results are identical for every thread count.
  std::int32_t threads = 1;
  /// Optional cooperative cancellation (not owned; may be nullptr).  The
  /// engine checkpoints between trials and aborts the whole run with
  /// core::OperationCancelled.
  const lbb::core::CancelToken* cancel = nullptr;
  /// Optional wall-clock limit in seconds (<= 0: none); expiry raises
  /// core::OperationCancelled.
  double time_limit_seconds = 0.0;
};

/// Per-(algo, N) aggregated metrics.
struct TimingCell {
  ParAlgo algo{};
  std::int32_t log2_n = 0;
  lbb::stats::RunningStats makespan;
  lbb::stats::RunningStats messages;
  lbb::stats::RunningStats collective_ops;
  lbb::stats::RunningStats phase2_iterations;  ///< PHF only
};

struct TimingExperimentResult {
  TimingExperimentConfig config;
  std::vector<TimingCell> cells;

  /// The cell for (algo, log2_n), by linear scan; throws
  /// std::out_of_range if absent.
  [[nodiscard]] const TimingCell& cell(ParAlgo algo,
                                       std::int32_t log2_n) const;
};

/// Simulated time of sequential HF distributing N pieces from P_1: N-1
/// bisections and N-1 sends, serialized on one processor.
[[nodiscard]] double sequential_hf_time(std::int32_t n,
                                        const lbb::sim::CostModel& cost);

[[nodiscard]] TimingExperimentResult run_timing_experiment(
    const TimingExperimentConfig& config);

}  // namespace lbb::experiments
