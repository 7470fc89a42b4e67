// Property tests for the service's cache key (core/cache_key.hpp) over
// seeded random specs of ba, ba_star, ba_hf and hf.  Every field the key
// quantizes -- alpha_lo, alpha_hi, alpha, beta -- is canonicalized, so:
//   * specs closer than half a quantum share one key, and cache-bypassing
//     computes of the two are byte-identical (the service computes from the
//     dequantized values, never from the caller's);
//   * specs a full quantum apart get different keys;
//   * a band whose lower end rounds to 0 is refused at submit.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>

#include "core/cache_key.hpp"
#include "service/partition_service.hpp"
#include "stats/rng.hpp"

namespace lbb::service {
namespace {

constexpr double kQuantum = core::PartitionCacheKey::kQuantum;
constexpr std::array<const char*, 4> kAlgos = {"ba", "ba_star", "ba_hf",
                                               "hf"};
constexpr int kDraws = 12;  ///< random specs per algorithm

/// The four quantized fields of a spec.
constexpr std::array<double RequestSpec::*, 4> kFields = {
    &RequestSpec::alpha_lo, &RequestSpec::alpha_hi, &RequestSpec::alpha,
    &RequestSpec::beta};

/// A random valid spec whose quantized fields sit exactly on the key's
/// grid, so that any nudge below half a quantum stays in the same cell, and
/// far enough inside their ranges that a full quantum either way is valid.
RequestSpec draw_spec(const char* algo, stats::Xoshiro256& rng) {
  const auto on_grid = [&](double lo, double hi) {
    return std::floor(rng.uniform(lo, hi) * kQuantum) / kQuantum;
  };
  RequestSpec spec;
  spec.algo = algo;
  spec.problem_seed = rng();
  spec.n = 2 + static_cast<std::int32_t>(rng() % 63);  // [2, 64]
  spec.alpha_lo = on_grid(0.01, 0.2);
  spec.alpha_hi = on_grid(0.3, 0.49);
  spec.alpha = on_grid(0.05, 0.45);
  spec.beta = on_grid(0.5, 3.0);
  return spec;
}

core::PartitionCacheKey key_of(const RequestSpec& spec) {
  return core::make_synthetic_cache_key(spec.algo, spec.problem_seed, spec.n,
                                        spec.alpha_lo, spec.alpha_hi,
                                        spec.alpha, spec.beta);
}

/// A cache-bypassing compute of `spec`.
std::shared_ptr<const PartitionResult> recompute(PartitionService& svc,
                                                 const RequestSpec& spec) {
  PartitionRequest req;
  req.spec = spec;
  req.bypass_cache = true;
  svc.submit(req);
  EXPECT_EQ(req.wait(), ServiceStatus::kOk) << req.error_message();
  return req.result();
}

ServiceConfig one_worker() {
  ServiceConfig cfg;
  cfg.workers = 1;
  return cfg;
}

TEST(CacheKeyProperty, NudgesBelowHalfAQuantumKeepTheKeyAndTheBytes) {
  PartitionService svc(one_worker());
  stats::Xoshiro256 rng(0xca11u);
  for (const char* algo : kAlgos) {
    for (int d = 0; d < kDraws; ++d) {
      const RequestSpec base = draw_spec(algo, rng);
      const auto base_result = recompute(svc, base);
      ASSERT_NE(base_result, nullptr) << algo;
      for (std::size_t f = 0; f < kFields.size(); ++f) {
        RequestSpec nudged = base;
        const double delta = rng.uniform(0.01, 0.45) / kQuantum;
        nudged.*kFields[f] += (rng() & 1u) != 0 ? delta : -delta;
        SCOPED_TRACE(testing::Message() << algo << " draw " << d
                                        << " field " << f);
        EXPECT_EQ(key_of(nudged), key_of(base));
        const auto nudged_result = recompute(svc, nudged);
        ASSERT_NE(nudged_result, nullptr);
        EXPECT_TRUE(*nudged_result == *base_result);
      }
    }
  }
  EXPECT_EQ(svc.snapshot().cache_entries, 0);  // bypass never inserts
}

TEST(CacheKeyProperty, AFullQuantumApartChangesTheKey) {
  stats::Xoshiro256 rng(0xca12u);
  for (const char* algo : kAlgos) {
    for (int d = 0; d < kDraws; ++d) {
      const RequestSpec base = draw_spec(algo, rng);
      const core::PartitionCacheKey base_key = key_of(base);
      for (std::size_t f = 0; f < kFields.size(); ++f) {
        for (const double step : {-1.0, 1.0}) {
          RequestSpec shifted = base;
          shifted.*kFields[f] += step / kQuantum;
          SCOPED_TRACE(testing::Message() << algo << " draw " << d
                                          << " field " << f << " step "
                                          << step);
          const core::PartitionCacheKey key = key_of(shifted);
          EXPECT_FALSE(key == base_key);
          EXPECT_NE(key.hash(), base_key.hash());
          EXPECT_NE(key.run_seed(), base_key.run_seed());
        }
      }
    }
  }
}

TEST(CacheKeyProperty, BandsThatRoundToZeroAreRejected) {
  PartitionService svc(one_worker());
  stats::Xoshiro256 rng(0xca13u);
  for (const char* algo : kAlgos) {
    for (int d = 0; d < kDraws; ++d) {
      RequestSpec spec = draw_spec(algo, rng);
      // Positive, so only the key's rounding can refuse it.
      spec.alpha_lo = rng.uniform(1e-12, 0.49) / kQuantum;
      SCOPED_TRACE(testing::Message() << algo << " alpha_lo "
                                      << spec.alpha_lo);
      EXPECT_THROW((void)key_of(spec), std::invalid_argument);
      PartitionRequest req;
      req.spec = spec;
      bool accepted = false;
      EXPECT_THROW(accepted = svc.try_submit(req), std::invalid_argument);
      if (accepted) (void)req.wait();  // the block must outlive its task
    }
  }
  EXPECT_EQ(svc.snapshot().submitted, 0);
}

}  // namespace
}  // namespace lbb::service
