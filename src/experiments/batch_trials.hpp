// Batched trial execution for the experiment engines.
//
// BatchTrialRunner routes a contiguous range of synthetic trials through the
// batched kernels (core/batch): lane l of a batch runs trial
// t = lo + l with instance seed mix64(base_seed, t) -- the SAME per-trial
// seed derivation as the scalar engine's chunk loop, so the lane streams are
// independent by construction and every outcome is bitwise equal to the
// scalar path's (the scalar-vs-batched golden gate asserts this for batch
// widths {1, 4, 8, 16} at several thread counts).
//
// Only piece-free builtin configurations are batchable (supports()); the
// engines fall back to the scalar try_typed_partition path for custom
// partitioners, oblivious strategies, and tree-recording runs.  Batch
// widths divide the engine's 32-trial chunk, so batches never straddle a
// chunk boundary and the per-chunk RunningStats accumulate in the scalar
// trial order.
#pragma once

#include <cstdint>

#include "core/batch/batch_workspace.hpp"
#include "core/partitioner.hpp"
#include "problems/alpha_dist.hpp"

namespace lbb::experiments {

/// Default lane width of the batched trial engine.  Divides kTrialChunk.
/// Lanes run one after another, so the width only sets how many trials
/// share one call into the kernels (core/batch/batch_kernels.hpp).
inline constexpr std::int32_t kDefaultTrialBatch = 8;

/// Outcome of one synthetic trial (the two numbers the engines consume).
struct BatchTrialOutcome {
  double ratio = 0.0;
  std::int64_t bisections = 0;
};

class BatchTrialRunner {
 public:
  /// True iff `algo` can run through the batched kernels: a builtin
  /// HF / BA / BA' / BA-HF configuration that does not record trees.
  [[nodiscard]] static bool supports(const core::BuiltinAlgo& algo) noexcept;

  /// Runs trials [lo, hi) of the (base_seed, dist) instance family through
  /// the batched kernels in lanes of at most `width`, writing outcome
  /// i - lo for trial i.  Requires supports(algo); hi - lo may be any
  /// positive count (a final partial batch uses fewer lanes).  Scratch is
  /// retained across calls: once warm, zero heap allocations.
  void run(const core::BuiltinAlgo& algo,
           const problems::AlphaDistribution& dist, std::uint64_t base_seed,
           std::int64_t lo, std::int64_t hi, std::int32_t n,
           std::int32_t width, BatchTrialOutcome* out);

 private:
  core::batch::BatchWorkspace ws_;
  /// Distribution of the previous run (interned).  A new one re-enables
  /// HF's walk in ws_ (see BatchWorkspace::hf_walk).
  const problems::AlphaDistribution* dist_ = nullptr;
};

}  // namespace lbb::experiments
