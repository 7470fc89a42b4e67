// Max-only trial execution for the experiment engines.
//
// BatchTrialRunner runs a range of synthetic trials through the kernels
// (detail::hf_run, ba_run, ba_hf_run) under the max sink, which keeps only
// the heaviest piece and the bisection count, on one retained workspace;
// BA then skips the frames that can neither raise the maximum nor change
// the count.  Trial t's instance seed is mix64(base_seed, t), as on every
// trial path, so each outcome equals the full partition's ratio() and
// bisections bit for bit (DESIGN.md section 10).
#pragma once

#include <cstdint>

#include "core/partitioner.hpp"
#include "core/workspace.hpp"
#include "problems/alpha_dist.hpp"
#include "problems/synthetic.hpp"

namespace lbb::experiments {

/// Outcome of one synthetic trial (the two numbers the engines consume).
struct BatchTrialOutcome {
  double ratio = 0.0;
  std::int64_t bisections = 0;
};

class BatchTrialRunner {
 public:
  /// True iff `algo` can run under the max sink: a builtin HF / BA / BA' /
  /// BA-HF configuration that does not record trees.
  [[nodiscard]] static bool supports(const core::BuiltinAlgo& algo) noexcept;

  /// Runs trials [lo, hi) of the (base_seed, dist) instance family, writing
  /// outcome i - lo for trial i.  Requires supports(algo) and width >= 1;
  /// the width is otherwise unused.  Scratch is retained across calls and
  /// sized for n before the first trial: once warm, zero heap allocations.
  void run(const core::BuiltinAlgo& algo,
           const problems::AlphaDistribution& dist, std::uint64_t base_seed,
           std::int64_t lo, std::int64_t hi, std::int32_t n,
           std::int32_t width, BatchTrialOutcome* out);

 private:
  core::TrialWorkspace<problems::SyntheticProblem> ws_;
  /// Largest n ws_'s HF scratch has been sized for (it only grows).
  std::int32_t hf_reserved_ = 0;
  /// Distribution of the previous run (interned).  A new one re-enables
  /// HF's walk in ws_ and clears its start (see TrialWorkspace::hf_walk
  /// and hf_walk_start).
  const problems::AlphaDistribution* dist_ = nullptr;
};

}  // namespace lbb::experiments
