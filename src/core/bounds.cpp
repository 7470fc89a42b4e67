#include "core/bounds.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace lbb::core {

namespace {
constexpr double kE = 2.718281828459045235360287;
// Tolerance for recognizing alpha == 1/k despite rounding.
constexpr double kUlpSlack = 1e-12;

// A tiny alpha pushes 1/alpha and the depth bounds past every integer
// type (1/alpha is +inf below about 5.6e-309), where a plain cast is
// undefined, so the integer bounds saturate.  They reach their caps only
// for alpha below about 2e-8.

/// floor(x + slack) as an integer, saturated at kFloorInverseCap.
std::int64_t floor_saturated(double x) {
  const double f = std::floor(x + kUlpSlack);
  return f < static_cast<double>(kFloorInverseCap)
             ? static_cast<std::int64_t>(f)
             : kFloorInverseCap;
}

/// A nonnegative integer-valued double (or +inf) as an int32, saturated at
/// INT32_MAX.
std::int32_t int32_saturated(double c) {
  constexpr auto kMax = std::numeric_limits<std::int32_t>::max();
  return c < static_cast<double>(kMax) ? static_cast<std::int32_t>(c) : kMax;
}
}  // namespace

void require_valid_alpha(double alpha) {
  if (!(alpha > 0.0) || !(alpha <= 0.5)) {
    throw std::invalid_argument("alpha must satisfy 0 < alpha <= 1/2");
  }
}

std::int64_t floor_inverse(double alpha) {
  require_valid_alpha(alpha);
  return floor_saturated(1.0 / alpha);
}

double hf_ratio_bound(double alpha) {
  require_valid_alpha(alpha);
  if (alpha >= 1.0 / 3.0 - kUlpSlack) {
    return 2.0;
  }
  const auto k = static_cast<double>(floor_inverse(alpha) - 2);
  return 1.0 / (alpha * std::pow(1.0 - alpha, k));
}

double ba_small_n_ratio_bound(double alpha, std::int32_t n) {
  require_valid_alpha(alpha);
  if (n < 1) throw std::invalid_argument("n must be >= 1");
  return static_cast<double>(n) *
         std::pow(1.0 - alpha, static_cast<double>(n / 2));
}

double ba_ratio_bound(double alpha, std::int32_t n) {
  require_valid_alpha(alpha);
  if (n < 1) throw std::invalid_argument("n must be >= 1");
  if (n <= floor_inverse(alpha)) {
    return ba_small_n_ratio_bound(alpha, n);
  }
  const auto k =
      static_cast<double>(floor_saturated(1.0 / (2.0 * alpha)) - 1);
  return kE / (alpha * std::pow(1.0 - alpha, k));
}

double ba_hf_ratio_bound(double alpha, double beta, std::int32_t n) {
  require_valid_alpha(alpha);
  if (!(beta > 0.0)) throw std::invalid_argument("beta must be > 0");
  if (n < 1) throw std::invalid_argument("n must be >= 1");
  const double r_hf = hf_ratio_bound(alpha);
  if (n < ba_hf_switch_threshold(alpha, beta)) {
    return r_hf;  // the whole run is plain HF
  }
  return std::exp((1.0 - alpha) / beta) * r_hf;
}

double ba_star_ratio_bound(double alpha, std::int32_t n) {
  // A BA' leaf is either pruned at the threshold w(p)*r_alpha/N (ratio at
  // most r_alpha) or a single-processor BA leaf (Theorem 7 applies).
  return std::max(hf_ratio_bound(alpha), ba_ratio_bound(alpha, n));
}

std::int32_t ba_hf_switch_threshold(double alpha, double beta) {
  require_valid_alpha(alpha);
  if (!(beta > 0.0)) throw std::invalid_argument("beta must be > 0");
  const double t = beta / alpha + 1.0;
  // At least 2: a frame of one processor is a piece, never a BA split
  // (beta/alpha below kUlpSlack would otherwise round t down to 1).
  return static_cast<std::int32_t>(
      std::clamp<double>(std::ceil(t - kUlpSlack), 2.0, 1e9));
}

double phf_phase1_threshold(double alpha, double total_weight,
                            std::int32_t n) {
  if (n < 1) throw std::invalid_argument("n must be >= 1");
  return total_weight * hf_ratio_bound(alpha) / static_cast<double>(n);
}

std::int32_t phase1_depth_bound(double alpha, std::int32_t n) {
  require_valid_alpha(alpha);
  if (n < 1) throw std::invalid_argument("n must be >= 1");
  if (n == 1) return 0;
  const double d =
      std::log(static_cast<double>(n)) / -std::log1p(-alpha);
  return int32_saturated(std::ceil(d - kUlpSlack));
}

std::int32_t phase2_iteration_bound(double alpha) {
  require_valid_alpha(alpha);
  // Termination needs (1-alpha)^I * r_alpha <= 1.  With
  // r_alpha = 1/(alpha (1-alpha)^(floor(1/alpha)-2)) this is
  // (1-alpha)^(I - floor(1/alpha) + 2) <= alpha, which holds for
  // I - floor(1/alpha) + 2 >= (1/alpha) ln(1/alpha)  (since
  // (1-alpha)^(1/alpha) <= 1/e).  One extra iteration covers the final
  // partial round.
  const double inv = 1.0 / alpha;
  const auto extra = std::max<std::int64_t>(floor_inverse(alpha) - 2, 0);
  return int32_saturated(std::ceil(inv * std::log(inv) - kUlpSlack) +
                         static_cast<double>(extra) + 1.0);
}

std::int32_t ba_depth_bound(double alpha, std::int32_t n) {
  require_valid_alpha(alpha);
  if (n < 1) throw std::invalid_argument("n must be >= 1");
  if (n == 1) return 0;
  const double d =
      std::log(static_cast<double>(n)) / -std::log1p(-alpha / 2.0);
  return int32_saturated(std::ceil(d - kUlpSlack));
}

}  // namespace lbb::core
