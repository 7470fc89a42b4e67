// The paper's stochastic problem model (Section 4), as a Bisectable class.
//
// A SyntheticProblem is a node of a virtual infinite bisection tree.
// Bisecting a node of weight w draws alpha-hat from the configured
// AlphaDistribution and yields children of weight (1-alpha_hat)*w and
// alpha_hat*w.  The draw for each node is a *pure function of the node's
// position in the tree* (a path hash), not of the order in which algorithms
// visit nodes.  Consequences:
//   - all N-1 bisection draws are i.i.d. as required by the paper's model;
//   - two different algorithms run on the same (seed, distribution) explore
//     the *same* underlying problem instance, making paired comparisons
//     (HF vs BA vs BA-HF, PHF == HF) exact rather than merely statistical.
#pragma once

#include <cstdint>
#include <utility>

#include "core/problem.hpp"
#include "problems/alpha_dist.hpp"
#include "stats/rng.hpp"

namespace lbb::problems {

/// One subproblem of the synthetic stochastic model.  Cheap, trivially
/// copyable value type (24 bytes): the distribution lives once in a
/// process-lifetime intern pool (AlphaDistribution::interned) and every
/// node of the virtual tree shares it by pointer, so bisecting does not
/// copy distribution state into each child.
class SyntheticProblem {
 public:
  /// Salt folded into the instance seed before hashing so the root draw is
  /// decorrelated from other uses of the same seed value.
  static constexpr std::uint64_t kRootSalt = 0x5bf03635d1d4f7a1ULL;

  /// Node hash of the root of the instance seeded by `seed`.
  [[nodiscard]] static constexpr std::uint64_t root_node_hash(
      std::uint64_t seed) noexcept {
    return lbb::stats::splitmix64(seed ^ kRootSalt);
  }

  /// Root problem of a fresh instance.
  SyntheticProblem(std::uint64_t seed, const AlphaDistribution& dist,
                   double weight = 1.0)
      : dist_(dist.interned()),
        node_hash_(root_node_hash(seed)),
        weight_(weight) {}

  /// The same root on an already interned distribution, without the
  /// intern pool's lock (for loops that create a root per trial).
  SyntheticProblem(std::uint64_t seed, const AlphaDistribution* interned,
                   double weight = 1.0)
      : dist_(interned), node_hash_(root_node_hash(seed)), weight_(weight) {}

  [[nodiscard]] double weight() const noexcept { return weight_; }

  /// Splits this problem; first element is the heavier child.
  [[nodiscard]] std::pair<SyntheticProblem, SyntheticProblem> bisect() const {
    const double u =
        lbb::stats::hash_to_unit(lbb::stats::splitmix64(node_hash_));
    const double alpha_hat = dist_->sample(u);
    SyntheticProblem heavy(dist_, lbb::stats::mix64(node_hash_, 1),
                           (1.0 - alpha_hat) * weight_);
    SyntheticProblem light(dist_, lbb::stats::mix64(node_hash_, 2),
                           alpha_hat * weight_);
    return {heavy, light};
  }

  /// The alpha-hat this node will use when bisected (deterministic).
  [[nodiscard]] double peek_alpha_hat() const {
    return dist_->sample(
        lbb::stats::hash_to_unit(lbb::stats::splitmix64(node_hash_)));
  }

  /// Identifies the node within the virtual tree (for tests).
  [[nodiscard]] std::uint64_t node_hash() const noexcept { return node_hash_; }

  [[nodiscard]] const AlphaDistribution& distribution() const noexcept {
    return *dist_;
  }

 private:
  SyntheticProblem(const AlphaDistribution* dist, std::uint64_t node_hash,
                   double weight)
      : dist_(dist), node_hash_(node_hash), weight_(weight) {}

  const AlphaDistribution* dist_;  ///< interned; never dangles
  std::uint64_t node_hash_;
  double weight_;
};

static_assert(sizeof(SyntheticProblem) == 24,
              "SyntheticProblem should stay a 3-word value type");
static_assert(lbb::core::AnyProblem::fits_inline_v<SyntheticProblem>,
              "SyntheticProblem must fit AnyProblem's inline buffer: the "
              "erased hot path relies on allocation-free wrap and bisect");

}  // namespace lbb::problems

/// A node's children are a pure function of its hash and weight.
template <>
inline constexpr bool lbb::core::pure_bisect_v<lbb::problems::SyntheticProblem> =
    true;

/// (1 - alpha_hat) * w and alpha_hat * w round to at most w for alpha_hat in
/// (0, 1/2].
template <>
inline constexpr bool
    lbb::core::monotone_bisect_v<lbb::problems::SyntheticProblem> = true;
