// Tests for BA's processor-splitting rule (Figure 3, Lemma 4).
#include "core/split.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "stats/rng.hpp"

namespace lbb::core {
namespace {

double load(double heavier, double lighter, int n1, int n) {
  return std::max(heavier / n1, lighter / (n - n1));
}

TEST(BaSplit, EqualWeightsEvenProcessors) {
  EXPECT_EQ(ba_split_processors(1.0, 1.0, 2), 1);
  EXPECT_EQ(ba_split_processors(1.0, 1.0, 8), 4);
}

TEST(BaSplit, ProportionalForCleanRatios) {
  // 3:1 weights, 8 processors -> 6 and 2.
  EXPECT_EQ(ba_split_processors(3.0, 1.0, 8), 6);
  // 2:1 weights, 9 processors -> eta = 6 exactly.
  EXPECT_EQ(ba_split_processors(2.0, 1.0, 9), 6);
}

TEST(BaSplit, AlwaysAtLeastOneProcessorEach) {
  // Extremely skewed weights must still leave one processor for the light
  // side.
  EXPECT_EQ(ba_split_processors(1e9, 1.0, 2), 1);
  EXPECT_EQ(ba_split_processors(1e9, 1.0, 16), 15);
}

TEST(BaSplit, MinimizesOverAllChoices) {
  // Exhaustive check that the floor/ceil candidate selection is globally
  // optimal for n up to 64 over random weight pairs.
  lbb::stats::Xoshiro256 rng(42);
  for (int trial = 0; trial < 500; ++trial) {
    const double lighter = rng.uniform(0.1, 1.0);
    const double heavier = lighter + rng.uniform(0.0, 3.0);
    const int n = 2 + static_cast<int>(rng.below(63));
    const int chosen = ba_split_processors(heavier, lighter, n);
    const double chosen_load = load(heavier, lighter, chosen, n);
    for (int n1 = 1; n1 < n; ++n1) {
      EXPECT_LE(chosen_load, load(heavier, lighter, n1, n) + 1e-12)
          << "heavier=" << heavier << " lighter=" << lighter << " n=" << n
          << " n1=" << n1;
    }
  }
}

TEST(BaSplit, Lemma4Invariant) {
  // max(w1/n1, w2/n2) <= w/(n-1) for every bisection BA makes, provided the
  // split came from an alpha-bisector (w2 >= alpha w); random stress.
  lbb::stats::Xoshiro256 rng(7);
  for (int trial = 0; trial < 2000; ++trial) {
    const double w = rng.uniform(0.5, 10.0);
    const double alpha_hat = rng.uniform(0.01, 0.5);
    const double lighter = alpha_hat * w;
    const double heavier = w - lighter;
    const int n = 2 + static_cast<int>(rng.below(1000));
    const int n1 = ba_split_processors(heavier, lighter, n);
    const double worst = load(heavier, lighter, n1, n);
    EXPECT_LE(worst, w / (n - 1) + 1e-9)
        << "w=" << w << " alpha_hat=" << alpha_hat << " n=" << n;
  }
}

TEST(BaSplit, InvalidArguments) {
  EXPECT_THROW(static_cast<void>(ba_split_processors(1.0, 1.0, 1)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(ba_split_processors(1.0, 2.0, 4)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(ba_split_processors(1.0, 0.0, 4)), std::invalid_argument);
  // Non-finite weights are rejected before eta reaches an integer cast.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(static_cast<void>(ba_split_processors(kNaN, 0.4, 16)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(ba_split_processors(1.0, kNaN, 16)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(ba_split_processors(kInf, 1.0, 16)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(ba_split_processors(kInf, kInf, 16)), std::invalid_argument);
  // Finite, but n * heavier overflows, so eta is infinite.
  EXPECT_THROW(static_cast<void>(ba_split_processors(
                   std::numeric_limits<double>::max(), 1.0, 16)),
               std::invalid_argument);
}

}  // namespace
}  // namespace lbb::core
