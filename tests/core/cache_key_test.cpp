// Tests for the memoization cache-key derivation (core/cache_key.hpp):
// canonicalization (quantization banding), validation, hash stability and
// the key-derived run seed the service computes from.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <unordered_set>

#include "core/cache_key.hpp"

namespace lbb::core {
namespace {

PartitionCacheKey key_of(double alpha_lo, double alpha_hi,
                         double alpha = 0.25, double beta = 1.0) {
  return make_synthetic_cache_key("ba_hf", 7, 128, alpha_lo, alpha_hi,
                                  alpha, beta);
}

TEST(CacheKey, RoundTripsFields) {
  const PartitionCacheKey key =
      make_synthetic_cache_key("oblivious:random", 42, 256, 0.125, 0.5,
                               0.25, 1.5);
  EXPECT_EQ(key.algo_name(), "oblivious:random");
  EXPECT_EQ(key.problem_seed, 42u);
  EXPECT_EQ(key.n, 256);
  EXPECT_DOUBLE_EQ(key.alpha_lo(), 0.125);
  EXPECT_DOUBLE_EQ(key.alpha_hi(), 0.5);
  EXPECT_DOUBLE_EQ(key.alpha(), 0.25);
  EXPECT_DOUBLE_EQ(key.beta(), 1.5);
  EXPECT_EQ(key.problem_class,
            static_cast<std::uint64_t>(ProblemClass::kSyntheticAlphaBand));
}

TEST(CacheKey, ParametersWithinOneQuantumShareAKey) {
  // Half a quantization step apart: same band, same key, and both compute
  // from the band's canonical (dequantized) value.
  const double eps = 0.4 / PartitionCacheKey::kQuantum;
  const PartitionCacheKey a = key_of(0.1, 0.5, 0.25);
  const PartitionCacheKey b = key_of(0.1, 0.5, 0.25 + eps);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_DOUBLE_EQ(b.alpha(), a.alpha());

  // A full step apart: distinct bands.
  const double step = 1.0 / PartitionCacheKey::kQuantum;
  const PartitionCacheKey c = key_of(0.1, 0.5, 0.25 + step);
  EXPECT_FALSE(a == c);
  EXPECT_NE(a.hash(), c.hash());
}

TEST(CacheKey, DistinctIdentitiesGetDistinctKeysAndSeeds) {
  std::unordered_set<std::uint64_t> hashes;
  std::unordered_set<std::uint64_t> seeds;
  const PartitionCacheKey keys[] = {
      make_synthetic_cache_key("ba", 1, 64, 0.1, 0.5),
      make_synthetic_cache_key("ba_star", 1, 64, 0.1, 0.5),
      make_synthetic_cache_key("ba", 2, 64, 0.1, 0.5),
      make_synthetic_cache_key("ba", 1, 65, 0.1, 0.5),
      make_synthetic_cache_key("ba", 1, 64, 0.2, 0.5),
      make_synthetic_cache_key("ba", 1, 64, 0.1, 0.4),
      make_synthetic_cache_key("ba", 1, 64, 0.1, 0.5, 0.3),
      make_synthetic_cache_key("ba", 1, 64, 0.1, 0.5, 0.25, 2.0),
  };
  for (const PartitionCacheKey& key : keys) {
    hashes.insert(key.hash());
    seeds.insert(key.run_seed());
  }
  EXPECT_EQ(hashes.size(), std::size(keys));
  EXPECT_EQ(seeds.size(), std::size(keys));
}

TEST(CacheKey, HashAndRunSeedAreStableAcrossCalls) {
  const PartitionCacheKey a = key_of(0.1, 0.5);
  const PartitionCacheKey b = key_of(0.1, 0.5);
  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_EQ(a.run_seed(), b.run_seed());
  EXPECT_NE(a.hash(), a.run_seed());
  EXPECT_EQ(PartitionCacheKeyHash{}(a), static_cast<std::size_t>(a.hash()));
}

TEST(CacheKey, ValidatesInputs) {
  EXPECT_THROW((void)make_synthetic_cache_key("", 1, 64, 0.1, 0.5),
               std::invalid_argument);
  const std::string too_long(PartitionCacheKey::kAlgoBytes, 'a');
  EXPECT_THROW((void)make_synthetic_cache_key(too_long, 1, 64, 0.1, 0.5),
               std::invalid_argument);
  EXPECT_THROW((void)make_synthetic_cache_key("ba", 1, 0, 0.1, 0.5),
               std::invalid_argument);
  // Inverted and empty bands.
  EXPECT_THROW((void)make_synthetic_cache_key("ba", 1, 64, 0.5, 0.1),
               std::invalid_argument);
  EXPECT_THROW((void)make_synthetic_cache_key("ba", 1, 64, 0.0, 0.0),
               std::invalid_argument);
  // A band whose lower end rounds to 0 (below 2^-21, half a quantum);
  // 1e-6, about 1.05 quanta, rounds to one quantum and is accepted.
  EXPECT_THROW((void)make_synthetic_cache_key("ba", 1, 64, 4e-7, 0.5),
               std::invalid_argument);
  EXPECT_EQ(make_synthetic_cache_key("ba", 1, 64, 1e-6, 0.5).alpha_lo_q, 1u);
  // Partitioner parameters whose canonical value leaves 0 < alpha <= 1/2
  // or beta > 0: an alpha or a beta that rounds to 0, and alpha one quantum
  // above 1/2; alpha = 1/2 itself is accepted.
  const double quantum = 1.0 / PartitionCacheKey::kQuantum;
  EXPECT_THROW((void)make_synthetic_cache_key("ba", 1, 64, 0.1, 0.5, 4e-7),
               std::invalid_argument);
  EXPECT_THROW(
      (void)make_synthetic_cache_key("ba", 1, 64, 0.1, 0.5, 0.25, 4e-7),
      std::invalid_argument);
  EXPECT_THROW(
      (void)make_synthetic_cache_key("ba", 1, 64, 0.1, 0.5, 0.5 + quantum),
      std::invalid_argument);
  EXPECT_DOUBLE_EQ(make_synthetic_cache_key("ba", 1, 64, 0.1, 0.5, 0.5).alpha(),
                   0.5);
  // Out-of-range parameters (negative, NaN, too large).
  EXPECT_THROW((void)quantize_param(-0.1), std::invalid_argument);
  EXPECT_THROW((void)quantize_param(2048.0), std::invalid_argument);
  EXPECT_THROW((void)quantize_param(
                   std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
}

}  // namespace
}  // namespace lbb::core
