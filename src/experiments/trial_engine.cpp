#include "experiments/trial_engine.hpp"

#include <utility>

#include "core/lbb.hpp"
#include "core/workspace.hpp"
#include "problems/synthetic.hpp"
#include "stats/rng.hpp"

namespace lbb::experiments::detail {

using lbb::core::RunContext;
using lbb::problems::SyntheticProblem;

void TrialEngine::run_trials(const lbb::core::Partitioner& part,
                             const lbb::problems::AlphaDistribution& dist,
                             std::uint64_t seed, std::int32_t n,
                             const lbb::core::CancelToken* cancel,
                             const char* what, std::int64_t lo,
                             std::int64_t hi, BatchTrialOutcome* out) const {
  // One runner and one workspace per worker thread, so trials never
  // contend for them; their capacity is retained across chunks and cells,
  // so steady-state trials allocate nothing.
  thread_local BatchTrialRunner runner;
  thread_local lbb::core::TrialWorkspace<SyntheticProblem> ws;
  const lbb::core::BuiltinAlgo builtin = part.builtin();
  if (BatchTrialRunner::supports(builtin)) {
    ensure_alive(cancel, what);
    runner.run(builtin, dist, seed, lo, hi, n, /*width=*/1, out);
    return;
  }
  for (std::int64_t t = lo; t < hi; ++t) {
    ensure_alive(cancel, what);
    // Instance seed depends on the trial only: all algorithms and all N
    // share instances where possible (paired comparison).  The context
    // carries it too, so seed-deriving strategies (oblivious:random,
    // phf:probe) stay deterministic per trial.
    const std::uint64_t instance_seed =
        lbb::stats::mix64(seed, static_cast<std::uint64_t>(t));
    RunContext ctx(instance_seed);
    ctx.set_cancel_token(cancel);
    if (auto typed = lbb::core::try_typed_partition(
            part, ctx, ws, SyntheticProblem(instance_seed, dist), n)) {
      out[t - lo] = {typed->ratio(), typed->bisections};
      ws.recycle(std::move(*typed));
    } else {
      const auto erased = part.run(
          ctx, lbb::core::AnyProblem(SyntheticProblem(instance_seed, dist)),
          n);
      out[t - lo] = {erased.ratio(), erased.bisections};
    }
  }
}

}  // namespace lbb::experiments::detail
