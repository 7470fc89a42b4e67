// Tests for the worst-case bound formulas (Theorems 2, 7, 8; Lemma 5).
#include "core/bounds.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

namespace lbb::core {
namespace {

TEST(FloorInverse, ExactReciprocals) {
  EXPECT_EQ(floor_inverse(0.5), 2);
  EXPECT_EQ(floor_inverse(1.0 / 3.0), 3);
  EXPECT_EQ(floor_inverse(0.25), 4);
  EXPECT_EQ(floor_inverse(0.1), 10);
  EXPECT_EQ(floor_inverse(0.01), 100);
}

TEST(FloorInverse, NonReciprocals) {
  EXPECT_EQ(floor_inverse(0.4), 2);
  EXPECT_EQ(floor_inverse(0.3), 3);
  EXPECT_EQ(floor_inverse(0.15), 6);
}

TEST(FloorInverse, RejectsBadAlpha) {
  EXPECT_THROW((void)floor_inverse(0.0), std::invalid_argument);
  EXPECT_THROW((void)floor_inverse(-0.1), std::invalid_argument);
  EXPECT_THROW((void)floor_inverse(0.51), std::invalid_argument);
}

TEST(HfRatioBound, TwoForLargeAlpha) {
  // The paper: r_alpha == 2 for alpha >= 1/3.
  EXPECT_DOUBLE_EQ(hf_ratio_bound(0.5), 2.0);
  EXPECT_DOUBLE_EQ(hf_ratio_bound(0.4), 2.0);
  EXPECT_DOUBLE_EQ(hf_ratio_bound(1.0 / 3.0), 2.0);
}

TEST(HfRatioBound, ClosedFormBelowOneThird) {
  // r = 1/(alpha (1-alpha)^(floor(1/alpha)-2)).
  const double alpha = 0.25;
  const double expected = 1.0 / (alpha * std::pow(1.0 - alpha, 2));
  EXPECT_NEAR(hf_ratio_bound(alpha), expected, 1e-12);
}

TEST(HfRatioBound, MonotoneDecreasingInAlpha) {
  double prev = hf_ratio_bound(0.01);
  for (double a = 0.02; a <= 0.5; a += 0.01) {
    const double r = hf_ratio_bound(a);
    EXPECT_LE(r, prev + 1e-9) << "alpha=" << a;
    prev = r;
  }
}

TEST(HfRatioBound, PaperNumericClaims) {
  // "smaller than 10 for alpha >= 0.04" under our reconstruction is checked
  // for the piecewise form near the claimed thresholds.
  EXPECT_LT(hf_ratio_bound(0.34), 3.0);
  EXPECT_GE(hf_ratio_bound(0.01), 10.0);  // tiny alpha blows up
}

TEST(BaSmallN, MatchesLemma5) {
  // ratio bound = N (1-alpha)^floor(N/2).
  EXPECT_NEAR(ba_small_n_ratio_bound(0.25, 4),
              4.0 * std::pow(0.75, 2), 1e-12);
  EXPECT_NEAR(ba_small_n_ratio_bound(0.1, 7), 7.0 * std::pow(0.9, 3), 1e-12);
  EXPECT_DOUBLE_EQ(ba_small_n_ratio_bound(0.3, 1), 1.0);
}

TEST(BaRatioBound, UsesLemma5ForSmallN) {
  EXPECT_DOUBLE_EQ(ba_ratio_bound(0.25, 3), ba_small_n_ratio_bound(0.25, 3));
  EXPECT_DOUBLE_EQ(ba_ratio_bound(0.25, 4), ba_small_n_ratio_bound(0.25, 4));
}

TEST(BaRatioBound, ClosedFormForLargeN) {
  const double alpha = 0.25;
  const double e = std::exp(1.0);
  // floor(1/(2 alpha)) - 1 == 1.
  const double expected = e / (alpha * (1.0 - alpha));
  EXPECT_NEAR(ba_ratio_bound(alpha, 64), expected, 1e-12);
}

TEST(BaRatioBound, NeverBelowOne) {
  for (double a : {0.05, 0.1, 0.2, 0.3, 0.4, 0.5}) {
    for (int n : {1, 2, 5, 16, 1024}) {
      EXPECT_GE(ba_ratio_bound(a, n), 1.0 - 1e-12)
          << "alpha=" << a << " n=" << n;
    }
  }
}

TEST(BaHfRatioBound, ApproachesHfForLargeBeta) {
  // Theorem 8 / epsilon-statement: beta >= 1/ln(1+eps) makes the bound at
  // most (1+eps) r_alpha.
  const double alpha = 0.2;
  const double eps = 0.05;
  const double beta = 1.0 / std::log1p(eps);
  const double bound = ba_hf_ratio_bound(alpha, beta, 1 << 14);
  EXPECT_LE(bound, (1.0 + eps) * hf_ratio_bound(alpha) + 1e-12);
}

TEST(BaHfRatioBound, EqualsHfBelowThreshold) {
  const double alpha = 0.25;
  const double beta = 2.0;
  const std::int32_t threshold = ba_hf_switch_threshold(alpha, beta);
  EXPECT_DOUBLE_EQ(ba_hf_ratio_bound(alpha, beta, threshold - 1),
                   hf_ratio_bound(alpha));
  EXPECT_GT(ba_hf_ratio_bound(alpha, beta, threshold),
            hf_ratio_bound(alpha));
}

TEST(BaHfRatioBound, DecreasesWithBeta) {
  const double alpha = 0.1;
  double prev = ba_hf_ratio_bound(alpha, 0.5, 1 << 12);
  for (double beta : {1.0, 2.0, 3.0, 5.0, 10.0}) {
    const double r = ba_hf_ratio_bound(alpha, beta, 1 << 12);
    EXPECT_LT(r, prev);
    prev = r;
  }
  EXPECT_GT(prev, hf_ratio_bound(alpha));  // never better than HF
}

TEST(SwitchThreshold, Values) {
  // ceil(beta/alpha + 1).
  EXPECT_EQ(ba_hf_switch_threshold(0.5, 1.0), 3);
  EXPECT_EQ(ba_hf_switch_threshold(0.25, 1.0), 5);
  EXPECT_EQ(ba_hf_switch_threshold(0.1, 2.0), 21);
  EXPECT_GE(ba_hf_switch_threshold(0.5, 0.001), 2);
}

TEST(Phase1DepthBound, Growth) {
  // D <= log_{1/(1-alpha)} N: doubling N adds a constant.
  const double alpha = 0.25;
  const int d1 = phase1_depth_bound(alpha, 1 << 10);
  const int d2 = phase1_depth_bound(alpha, 1 << 20);
  EXPECT_LT(d1, d2);
  EXPECT_NEAR(static_cast<double>(d2), 2.0 * d1, 3.0);
  EXPECT_EQ(phase1_depth_bound(alpha, 1), 0);
}

TEST(Phase2IterationBound, Reasonable) {
  // ceil((1/alpha) ln(1/alpha)) + floor(1/alpha) - 2 + 1.
  EXPECT_GE(phase2_iteration_bound(0.5), 2);
  EXPECT_EQ(phase2_iteration_bound(0.1), 24 + 8 + 1);  // 10 ln 10 = 23.02
  EXPECT_EQ(phase2_iteration_bound(0.05), 60 + 18 + 1);
}

TEST(BaDepthBound, LogarithmicInN) {
  const double alpha = 0.3;
  const int d10 = ba_depth_bound(alpha, 1 << 10);
  const int d20 = ba_depth_bound(alpha, 1 << 20);
  EXPECT_NEAR(static_cast<double>(d20), 2.0 * d10, 3.0);
}

TEST(Phase1Threshold, Scaling) {
  EXPECT_DOUBLE_EQ(phf_phase1_threshold(0.5, 100.0, 10),
                   100.0 * 2.0 / 10.0);
  // Halving N doubles the threshold.
  EXPECT_DOUBLE_EQ(phf_phase1_threshold(0.2, 1.0, 8),
                   2.0 * phf_phase1_threshold(0.2, 1.0, 16));
}

TEST(Bounds, InvalidArguments) {
  EXPECT_THROW((void)hf_ratio_bound(0.6), std::invalid_argument);
  EXPECT_THROW((void)ba_ratio_bound(0.25, 0), std::invalid_argument);
  EXPECT_THROW((void)ba_hf_ratio_bound(0.25, -1.0, 4), std::invalid_argument);
  EXPECT_THROW((void)ba_hf_switch_threshold(0.25, 0.0),
               std::invalid_argument);
  EXPECT_THROW((void)phase2_iteration_bound(0.0), std::invalid_argument);
}

// Every alpha in (0, 1/2] is valid, down to the smallest double, where
// 1/alpha exceeds every integer type (and is +inf at the bottom): each
// integer bound must stay defined and positive (the ubsan preset checks
// the casts), each ratio bound a number >= 1.
TEST(Bounds, DefinedForTinyAlpha) {
  constexpr std::int32_t kN = std::int32_t{1} << 20;
  constexpr double kSmallest = std::numeric_limits<double>::denorm_min();
  for (const double a : {1e-9, 1e-12, 1e-20, 1e-300, kSmallest}) {
    SCOPED_TRACE(a);
    EXPECT_GE(floor_inverse(a), 1);
    EXPECT_LE(floor_inverse(a), kFloorInverseCap);
    EXPECT_GE(ba_hf_switch_threshold(a, 1.0), 1);
    EXPECT_GE(phase1_depth_bound(a, kN), 1);
    EXPECT_GE(phase2_iteration_bound(a), 1);
    EXPECT_GE(ba_depth_bound(a, kN), 1);
    for (const double r :
         {hf_ratio_bound(a), ba_small_n_ratio_bound(a, kN),
          ba_ratio_bound(a, kN), ba_star_ratio_bound(a, kN),
          ba_hf_ratio_bound(a, 1.0, kN)}) {
      EXPECT_FALSE(std::isnan(r));
      EXPECT_GE(r, 1.0);
    }
  }
}

// Ordering sanity used throughout the paper: BA's bound is never better
// than (a constant times) HF's -- check the direct comparison on a grid.
TEST(Bounds, BaWorseThanHfOnGrid) {
  for (double a : {0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5}) {
    const double hf = hf_ratio_bound(a);
    const double ba = ba_ratio_bound(a, 1 << 16);
    EXPECT_GT(ba, hf) << "alpha=" << a;
  }
}

}  // namespace
}  // namespace lbb::core
