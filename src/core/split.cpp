#include "core/split.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace lbb::core {

std::int32_t ba_split_processors(double heavier, double lighter,
                                 std::int32_t n) {
  if (n < 2) throw std::invalid_argument("ba_split_processors: n < 2");
  if (!(lighter > 0.0) || !(heavier >= lighter)) {
    throw std::invalid_argument(
        "ba_split_processors: need heavier >= lighter > 0");
  }
  const double total = heavier + lighter;
  const double eta = static_cast<double>(n) * heavier / total;
  // eta is NaN or infinite when a weight is infinite or n * heavier
  // overflows; converting either to an integer below is undefined.
  if (!std::isfinite(eta)) {
    throw std::invalid_argument("ba_split_processors: weights must be finite");
  }
  auto clamp = [n](std::int64_t c) {
    return static_cast<std::int32_t>(
        std::clamp<std::int64_t>(c, 1, static_cast<std::int64_t>(n) - 1));
  };
  const std::int32_t lo = clamp(static_cast<std::int64_t>(std::floor(eta)));
  const std::int32_t hi = clamp(static_cast<std::int64_t>(std::ceil(eta)));
  if (lo == hi) return lo;
  auto load = [&](std::int32_t n1) {
    return std::max(heavier / static_cast<double>(n1),
                    lighter / static_cast<double>(n - n1));
  };
  return load(lo) <= load(hi) ? lo : hi;
}

}  // namespace lbb::core
