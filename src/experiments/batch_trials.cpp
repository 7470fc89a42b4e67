#include "experiments/batch_trials.hpp"

#include <stdexcept>

#include "core/ba.hpp"
#include "core/ba_hf.hpp"
#include "core/bounds.hpp"
#include "core/hf.hpp"
#include "stats/rng.hpp"

namespace lbb::experiments {

using lbb::core::BuiltinAlgo;
using lbb::core::BuiltinKind;
using lbb::core::detail::MaxSink;
using lbb::problems::AlphaDistribution;
using lbb::problems::SyntheticProblem;

// The max sink's records carry only the problem, its weight and its
// processor count (DESIGN.md section 10).
static_assert(sizeof(core::detail::BaFrame<SyntheticProblem, MaxSink>) == 40);
static_assert(sizeof(core::detail::HfSlot<SyntheticProblem, MaxSink>) ==
              sizeof(SyntheticProblem));

bool BatchTrialRunner::supports(const BuiltinAlgo& algo) noexcept {
  if (algo.options.record_tree) return false;
  switch (algo.kind) {
    case BuiltinKind::kHf:
    case BuiltinKind::kBa:
    case BuiltinKind::kBaStar:
    case BuiltinKind::kBaHf:
      return true;
    case BuiltinKind::kCustom:
    case BuiltinKind::kOblivious:
      return false;
  }
  return false;
}

void BatchTrialRunner::run(const BuiltinAlgo& algo,
                           const AlphaDistribution& dist,
                           std::uint64_t base_seed, std::int64_t lo,
                           std::int64_t hi, std::int32_t n, std::int32_t width,
                           BatchTrialOutcome* out) {
  if (width < 1) {
    throw std::invalid_argument("BatchTrialRunner::run: width must be >= 1");
  }
  if (!supports(algo)) {
    throw std::invalid_argument(
        "BatchTrialRunner::run: configuration is not batchable");
  }
  if (dist_ == nullptr || !(*dist_ == dist)) {
    // The walk's give-up is sticky per distribution: a narrow one that
    // overflowed the walk once would do so again on most seeds.  Its start
    // is the last answer, which another distribution does not predict.
    dist_ = dist.interned();
    ws_.hf_walk = true;
    ws_.hf_walk_start = 0.0;
  }
  // Full-partition constants, computed identically: every trial's root
  // weight is 1.0, so the BA' prune threshold and the ratio denominator
  // are shared by all trials.
  constexpr double kRootWeight = 1.0;
  const double prune_below =
      algo.kind == BuiltinKind::kBaStar
          ? core::phf_phase1_threshold(algo.alpha, kRootWeight, n)
          : -1.0;
  const std::int32_t switch_threshold =
      algo.kind == BuiltinKind::kBaHf
          ? core::ba_hf_switch_threshold(algo.alpha, algo.beta)
          : 0;
  if (n > hf_reserved_) {
    // Sized for the trial's n up front, so BA-HF's HF phases, whose sizes
    // vary from seed to seed, never grow the HF scratch.
    core::detail::hf_reserve<MaxSink>(ws_, n);
    hf_reserved_ = n;
  }
  // One trial loop per kind, so the kernel call is the loop's only branch
  // on the algorithm.
  const auto trials = [&](const auto& kernel) {
    for (std::int64_t t = lo; t < hi; ++t) {
      // The per-trial instance seed of every trial path: outcomes are
      // keyed by absolute trial index, nothing else.
      const SyntheticProblem root(
          lbb::stats::mix64(base_seed, static_cast<std::uint64_t>(t)), dist_,
          kRootWeight);
      MaxSink sink;
      kernel(sink, root);
      // Same expression as Partition::ratio() on a full partition.
      out[t - lo] = {sink.max / (kRootWeight / static_cast<double>(n)),
                     sink.bisections};
    }
  };
  switch (algo.kind) {
    case BuiltinKind::kHf:
      trials([&](MaxSink& sink, const SyntheticProblem& root) {
        core::detail::hf_run(sink, ws_, root, n, {});
      });
      break;
    case BuiltinKind::kBa:
    case BuiltinKind::kBaStar:
      trials([&](MaxSink& sink, const SyntheticProblem& root) {
        core::detail::ba_run(sink, ws_, root, n, {}, prune_below);
      });
      break;
    case BuiltinKind::kBaHf:
      trials([&](MaxSink& sink, const SyntheticProblem& root) {
        core::detail::ba_hf_run(sink, ws_, root, n, {}, switch_threshold);
      });
      break;
    case BuiltinKind::kCustom:
    case BuiltinKind::kOblivious:
      break;  // unreachable: supports() rejected these above
  }
}

}  // namespace lbb::experiments
