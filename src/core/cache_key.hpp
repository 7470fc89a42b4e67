// Cache-key derivation for memoized partition serving.
//
// The BA/BA'/BA-HF/HF families (and the ctx-seeded oblivious baselines) are
// deterministic functions of (problem class, N, partitioner, parameters):
// two runs with the same key produce byte-identical partitions.  That makes
// a resident serving process (src/service/) able to memoize answers, but
// only if the key is *canonical* -- floating-point parameters that differ
// below the quantization step must map to the same key AND the compute must
// use the dequantized values, so a cache hit is byte-identical to the miss
// that filled it.
//
// The key therefore stores quantized fixed-point fields; `alpha_lo()` & co.
// return the canonical values the service computes from.  The RNG seed of a
// keyed run is also derived here (`run_seed()`), so even the ctx-seeded
// randomized strategies (oblivious:random) are deterministic per key.
//
// This header is core-layer on purpose: the service, the bench harness and
// the tests must all derive keys the same way, and the registry names being
// keyed live in core/partitioner.hpp.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string_view>

#include "stats/rng.hpp"

namespace lbb::core {

/// Identity of one memoizable partition request.  Trivially copyable and
/// comparable byte-wise; construction canonicalizes every field.
struct PartitionCacheKey {
  /// Registry keys are short machine names ("par:ba_hf"); the longest
  /// shipped name is "oblivious:random" (16).  Fixed storage keeps the key
  /// a flat POD -- no heap, hashable by field walk.
  static constexpr std::size_t kAlgoBytes = 24;

  /// Fixed-point denominator for the alpha/beta fields: 2^20 steps per
  /// unit (~1e-6 resolution).  Parameters closer than one step fall into
  /// the same alpha-band and share one cache entry, computed from the
  /// band's canonical (dequantized) value.
  static constexpr double kQuantum = 1048576.0;

  char algo[kAlgoBytes] = {};     ///< NUL-padded registry key
  std::uint64_t problem_class = 0;///< ProblemClass id below
  std::uint64_t problem_seed = 0; ///< instance seed within the class
  std::int32_t n = 0;             ///< requested processor count
  std::uint32_t alpha_lo_q = 0;   ///< problem-class alpha-band, quantized
  std::uint32_t alpha_hi_q = 0;
  std::uint32_t alpha_q = 0;      ///< partitioner alpha parameter
  std::uint32_t beta_q = 0;       ///< partitioner beta parameter

  [[nodiscard]] std::string_view algo_name() const noexcept {
    return {algo, std::strlen(algo)};
  }
  [[nodiscard]] double alpha_lo() const noexcept {
    return static_cast<double>(alpha_lo_q) / kQuantum;
  }
  [[nodiscard]] double alpha_hi() const noexcept {
    return static_cast<double>(alpha_hi_q) / kQuantum;
  }
  [[nodiscard]] double alpha() const noexcept {
    return static_cast<double>(alpha_q) / kQuantum;
  }
  [[nodiscard]] double beta() const noexcept {
    return static_cast<double>(beta_q) / kQuantum;
  }

  friend bool operator==(const PartitionCacheKey& a,
                         const PartitionCacheKey& b) noexcept {
    return std::memcmp(a.algo, b.algo, kAlgoBytes) == 0 &&
           a.problem_class == b.problem_class &&
           a.problem_seed == b.problem_seed && a.n == b.n &&
           a.alpha_lo_q == b.alpha_lo_q && a.alpha_hi_q == b.alpha_hi_q &&
           a.alpha_q == b.alpha_q && a.beta_q == b.beta_q;
  }

  /// Stable 64-bit hash over every identity field (mix64 chain; the same
  /// value on every platform, so committed baselines stay comparable).
  [[nodiscard]] std::uint64_t hash() const noexcept {
    std::uint64_t h = stats::mix64(problem_class, problem_seed);
    for (std::size_t i = 0; i < kAlgoBytes; i += 8) {
      std::uint64_t word = 0;
      std::memcpy(&word, algo + i, 8);
      h = stats::mix64(h, word);
    }
    h = stats::mix64(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(n)));
    h = stats::mix64(h, (std::uint64_t{alpha_lo_q} << 32) | alpha_hi_q);
    h = stats::mix64(h, (std::uint64_t{alpha_q} << 32) | beta_q);
    return h;
  }

  /// Deterministic RunContext seed for a keyed run.  Derived from the key
  /// (not the caller), so every compute of the same key -- first miss,
  /// re-validation, another server -- draws identical RNG streams.
  [[nodiscard]] std::uint64_t run_seed() const noexcept {
    return stats::mix64(hash(), 0x5e37eULL);
  }
};

/// Problem-class ids for PartitionCacheKey::problem_class.  The synthetic
/// alpha-band family is the only keyed class today; the field is 64-bit so
/// new classes (graph-backed, FEM meshes) extend without a layout change.
enum class ProblemClass : std::uint64_t {
  kSyntheticAlphaBand = 1,  ///< SyntheticProblem(seed, U[alpha_lo, alpha_hi])
};

/// Quantizes a parameter in [0, 2048) onto the cache-key grid.
[[nodiscard]] inline std::uint32_t quantize_param(double x) {
  if (!(x >= 0.0) || x >= 2048.0) {
    throw std::invalid_argument(
        "PartitionCacheKey: parameter out of range [0, 2048)");
  }
  return static_cast<std::uint32_t>(x * PartitionCacheKey::kQuantum + 0.5);
}

/// Canonical key for partitioning SyntheticProblem(problem_seed,
/// U[alpha_lo, alpha_hi]) into n pieces with `algo`(alpha, beta).  Throws
/// std::invalid_argument for malformed inputs (algo too long, n < 1,
/// inverted band, a band whose lower end rounds to 0, out-of-range
/// parameters, a canonical alpha outside (0, 1/2] or beta that rounds
/// to 0).
[[nodiscard]] inline PartitionCacheKey make_synthetic_cache_key(
    std::string_view algo, std::uint64_t problem_seed, std::int32_t n,
    double alpha_lo, double alpha_hi, double alpha = 0.25,
    double beta = 1.0) {
  PartitionCacheKey key;
  if (algo.empty() || algo.size() >= PartitionCacheKey::kAlgoBytes) {
    throw std::invalid_argument(
        "PartitionCacheKey: algo name empty or too long");
  }
  std::memcpy(key.algo, algo.data(), algo.size());
  key.problem_class = static_cast<std::uint64_t>(
      ProblemClass::kSyntheticAlphaBand);
  key.problem_seed = problem_seed;
  if (n < 1) throw std::invalid_argument("PartitionCacheKey: n < 1");
  key.n = n;
  key.alpha_lo_q = quantize_param(alpha_lo);
  key.alpha_hi_q = quantize_param(alpha_hi);
  // The canonical band must itself be valid (AlphaDistribution needs
  // lo > 0), so an alpha_lo below half a quantum is refused here rather
  // than failing in every compute of its key.
  if (key.alpha_lo_q == 0 || key.alpha_lo_q > key.alpha_hi_q) {
    throw std::invalid_argument(
        "PartitionCacheKey: alpha band empty, inverted or below one "
        "quantum");
  }
  key.alpha_q = quantize_param(alpha);
  key.beta_q = quantize_param(beta);
  // Likewise the canonical partitioner parameters, which every compute of
  // the key passes to the registry: the paper's Definition 1 range
  // 0 < alpha <= 1/2, and beta > 0.
  if (key.alpha_q == 0 || key.alpha() > 0.5 || key.beta_q == 0) {
    throw std::invalid_argument(
        "PartitionCacheKey: alpha outside (0, 1/2] or beta not > 0 after "
        "rounding");
  }
  return key;
}

/// Hash functor for unordered containers keyed by PartitionCacheKey.
struct PartitionCacheKeyHash {
  [[nodiscard]] std::size_t operator()(
      const PartitionCacheKey& key) const noexcept {
    return static_cast<std::size_t>(key.hash());
  }
};

}  // namespace lbb::core
