#include "experiments/batch_trials.hpp"

#include <stdexcept>

#include "core/batch/batch_kernels.hpp"
#include "core/bounds.hpp"
#include "problems/synthetic.hpp"
#include "problems/synthetic_lanes.hpp"
#include "stats/rng.hpp"

namespace lbb::experiments {

using lbb::core::BuiltinAlgo;
using lbb::core::BuiltinKind;
using lbb::problems::AlphaDistribution;
using lbb::problems::SyntheticLaneModel;
using lbb::problems::SyntheticProblem;

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
  const SyntheticLaneModel model(dist);
  // Scalar-path constants, computed identically: every trial's root weight
  // is 1.0, so the BA' prune threshold and the ratio denominator are shared
  // by all lanes.
  constexpr double kRootWeight = 1.0;
  const double prune_below =
      algo.kind == BuiltinKind::kBaStar
          ? core::phf_phase1_threshold(algo.alpha, kRootWeight, n)
          : -1.0;
  const std::int32_t switch_threshold =
      algo.kind == BuiltinKind::kBaHf
          ? core::ba_hf_switch_threshold(algo.alpha, algo.beta)
          : 0;

  ws_.prepare(width, n);
  if (&model.distribution() != dist_) {
    // The walk's give-up is sticky per distribution: a narrow one that
    // overflowed the walk once would do so again on most seeds.
    dist_ = &model.distribution();
    ws_.hf_walk = true;
  }
  for (std::int64_t t = lo; t < hi; t += width) {
    const auto lanes = static_cast<std::int32_t>(
        hi - t < static_cast<std::int64_t>(width) ? hi - t : width);
    for (std::int32_t l = 0; l < lanes; ++l) {
      // Identical to the scalar engine's per-trial instance seed: lane
      // streams are keyed by absolute trial index, nothing else.
      const std::uint64_t instance_seed = lbb::stats::mix64(
          base_seed, static_cast<std::uint64_t>(t + l));
      ws_.root_hash[l] = SyntheticLaneModel::root_hash(instance_seed);
      ws_.root_weight[l] = kRootWeight;
    }
    switch (algo.kind) {
      case BuiltinKind::kHf:
        core::batch::hf_batch_run(ws_, model, lanes, n);
        break;
      case BuiltinKind::kBa:
        core::batch::ba_batch_run(ws_, model, lanes, n, /*prune_below=*/-1.0);
        break;
      case BuiltinKind::kBaStar:
        core::batch::ba_batch_run(ws_, model, lanes, n, prune_below);
        break;
      case BuiltinKind::kBaHf:
        core::batch::ba_hf_batch_run(ws_, model, lanes, n, switch_threshold);
        break;
      case BuiltinKind::kCustom:
      case BuiltinKind::kOblivious:
        break;  // unreachable: supports() rejected these above
    }
    for (std::int32_t l = 0; l < lanes; ++l) {
      // Same expression as Partition::ratio() on the scalar path.
      out[(t - lo) + l].ratio =
          ws_.lane_max[l] / (kRootWeight / static_cast<double>(n));
      out[(t - lo) + l].bisections = ws_.lane_bisections[l];
    }
  }
}

}  // namespace lbb::experiments
