// SyntheticProblem expressed as a batch LaneModel (core/batch).
//
// The synthetic stochastic model's draws are path-hashed -- a node's
// alpha-hat is a pure function of its node hash, not of a consumed RNG
// stream -- so the whole problem class collapses to one pure function over
// (node_hash, weight) pairs, the bisect() the batched kernels call.
//
// Bit-exactness contract: the expression below is SyntheticProblem::bisect's
// (single-rounding per operation, no reassociation), so for any node the
// produced child hashes and weights are bitwise equal to the scalar
// problem's.  Layer 1 of tests/experiments/batch_identity_test.cpp pins this
// against SyntheticProblem across all distribution kinds; its other layers
// pin it end to end.
#pragma once

#include <cstdint>

#include "core/thread_annotations.hpp"
#include "problems/alpha_dist.hpp"
#include "problems/synthetic.hpp"
#include "stats/rng.hpp"

namespace lbb::problems {

class SyntheticLaneModel {
 public:
  explicit SyntheticLaneModel(const AlphaDistribution& dist)
      : dist_(dist.interned()) {}

  /// Root node hash of the instance seeded by `seed` (identical to
  /// SyntheticProblem's root).
  [[nodiscard]] static constexpr std::uint64_t root_hash(
      std::uint64_t seed) noexcept {
    return SyntheticProblem::root_node_hash(seed);
  }

  /// Children of one node; heavy first, bit-identical to
  /// SyntheticProblem::bisect on the same (hash, weight).
  LBB_HOT void bisect(std::uint64_t hash, double w, std::uint64_t& heavy_hash,
                      double& heavy_w, std::uint64_t& light_hash,
                      double& light_w) const noexcept {
    const double u = lbb::stats::hash_to_unit(lbb::stats::splitmix64(hash));
    const double alpha_hat = dist_->sample(u);
    heavy_hash = lbb::stats::mix64(hash, 1);
    light_hash = lbb::stats::mix64(hash, 2);
    heavy_w = (1.0 - alpha_hat) * w;
    light_w = alpha_hat * w;
  }

  [[nodiscard]] const AlphaDistribution& distribution() const noexcept {
    return *dist_;
  }

 private:
  const AlphaDistribution* dist_;  ///< interned; never dangles
};

}  // namespace lbb::problems
