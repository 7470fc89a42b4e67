// Shared kernel bodies for every ISA level, templated on a (U64xN, F64xN)
// wrapper pair from vec.hpp.  Each per-ISA translation unit instantiates
// make_lane_kernels<VU, VF>() with its width's wrappers; the scalar TU uses
// the width-1 pair, so all levels share one expression DAG and the
// bit-identity argument reduces to vec.hpp's per-operation exactness notes.
//
// Per element the kernels compute exactly SyntheticLaneModel::bisect_lanes'
// inline expressions (which themselves mirror SyntheticProblem::bisect):
//
//   u          = hash_to_unit(splitmix64(hash[i]))
//   alpha      = lo + (hi-lo)*u   |  alpha  |  u < 0.5 ? lo : hi
//   heavy_hash = mix64(hash[i], 1) = splitmix64(hash[i] ^ mix_key(1))
//   light_hash = mix64(hash[i], 2) = splitmix64(hash[i] ^ mix_key(2))
//   heavy_w    = (1.0 - alpha) * w[i]
//   light_w    = alpha * w[i]
//
// The remainder count % width runs the verbatim scalar expressions.  These
// TUs must be compiled with -ffp-contract=off: a fused (1-alpha)*w + ... or
// lo + span*u contraction would skip one rounding and break identity.
#pragma once

#include <cstdint>

#include "core/simd/dispatch.hpp"
#include "core/simd/vec.hpp"
#include "stats/rng.hpp"

namespace lbb::core::simd {

/// The key mix64(a, b) xors into `a` before the splitmix64 finalizer.
/// Folding it to a constant per child index is what lets the vector path
/// reuse one splitmix kernel for both children.
[[nodiscard]] inline constexpr std::uint64_t mix_key(std::uint64_t b) noexcept {
  return 0x9e3779b97f4a7c15ULL + (b << 6) + (b >> 2);
}

// Pin the fold against the reference implementation at compile time.
static_assert(lbb::stats::mix64(0x0123456789abcdefULL, 1) ==
              lbb::stats::splitmix64(0x0123456789abcdefULL ^ mix_key(1)));
static_assert(lbb::stats::mix64(0xfedcba9876543210ULL, 2) ==
              lbb::stats::splitmix64(0xfedcba9876543210ULL ^ mix_key(2)));

/// stats::splitmix64 on vector lanes; integer-exact at any width.
template <class VU>
[[nodiscard]] inline VU splitmix64v(VU x) noexcept {
  x = x + VU::broadcast(0x9e3779b97f4a7c15ULL);
  x = (x ^ shr<30>(x)) * VU::broadcast(0xbf58476d1ce4e5b9ULL);
  x = (x ^ shr<27>(x)) * VU::broadcast(0x94d049bb133111ebULL);
  return x ^ shr<31>(x);
}

/// stats::hash_to_unit(stats::splitmix64(h)) on vector lanes.  The >> 11
/// leaves < 2^53, so the conversion is exact; the 2^-53 scale is a pure
/// exponent shift.  Bit-identical to the scalar composition.
template <class VU, class VF>
[[nodiscard]] inline VF unit_from_hashv(VU h) noexcept {
  return to_f64_53(shr<11>(splitmix64v(h))) * VF::broadcast(0x1.0p-53);
}

template <class VU, class VF>
void bisect_uniform_t(std::int32_t count, const std::uint64_t* hash,
                      const double* w, double lo, double hi,
                      std::uint64_t* heavy_hash, double* heavy_w,
                      std::uint64_t* light_hash, double* light_w) {
  constexpr std::int32_t kW = VU::kWidth;
  const double span = hi - lo;
  const VU heavy_key = VU::broadcast(mix_key(1));
  const VU light_key = VU::broadcast(mix_key(2));
  const VF lo_v = VF::broadcast(lo);
  const VF span_v = VF::broadcast(span);
  const VF one = VF::broadcast(1.0);
  std::int32_t i = 0;
  for (; i + kW <= count; i += kW) {
    const VU h = VU::load(hash + i);
    const VF u = unit_from_hashv<VU, VF>(h);
    const VF alpha = lo_v + span_v * u;
    const VF wv = VF::load(w + i);
    splitmix64v(h ^ heavy_key).store(heavy_hash + i);
    splitmix64v(h ^ light_key).store(light_hash + i);
    ((one - alpha) * wv).store(heavy_w + i);
    (alpha * wv).store(light_w + i);
  }
  for (; i < count; ++i) {
    const double u = lbb::stats::hash_to_unit(lbb::stats::splitmix64(hash[i]));
    const double alpha_hat = lo + (hi - lo) * u;
    heavy_hash[i] = lbb::stats::mix64(hash[i], 1);
    light_hash[i] = lbb::stats::mix64(hash[i], 2);
    heavy_w[i] = (1.0 - alpha_hat) * w[i];
    light_w[i] = alpha_hat * w[i];
  }
}

template <class VU, class VF>
void bisect_point_t(std::int32_t count, const std::uint64_t* hash,
                    const double* w, double alpha, std::uint64_t* heavy_hash,
                    double* heavy_w, std::uint64_t* light_hash,
                    double* light_w) {
  constexpr std::int32_t kW = VU::kWidth;
  const double heavy_alpha = 1.0 - alpha;  // rounded once, as the scalar loop
  const VU heavy_key = VU::broadcast(mix_key(1));
  const VU light_key = VU::broadcast(mix_key(2));
  const VF ha_v = VF::broadcast(heavy_alpha);
  const VF la_v = VF::broadcast(alpha);
  std::int32_t i = 0;
  for (; i + kW <= count; i += kW) {
    const VU h = VU::load(hash + i);
    const VF wv = VF::load(w + i);
    splitmix64v(h ^ heavy_key).store(heavy_hash + i);
    splitmix64v(h ^ light_key).store(light_hash + i);
    (ha_v * wv).store(heavy_w + i);
    (la_v * wv).store(light_w + i);
  }
  for (; i < count; ++i) {
    heavy_hash[i] = lbb::stats::mix64(hash[i], 1);
    light_hash[i] = lbb::stats::mix64(hash[i], 2);
    heavy_w[i] = (1.0 - alpha) * w[i];
    light_w[i] = alpha * w[i];
  }
}

template <class VU, class VF>
void bisect_two_point_t(std::int32_t count, const std::uint64_t* hash,
                        const double* w, double lo, double hi,
                        std::uint64_t* heavy_hash, double* heavy_w,
                        std::uint64_t* light_hash, double* light_w) {
  constexpr std::int32_t kW = VU::kWidth;
  const VU heavy_key = VU::broadcast(mix_key(1));
  const VU light_key = VU::broadcast(mix_key(2));
  const VF lo_v = VF::broadcast(lo);
  const VF hi_v = VF::broadcast(hi);
  const VF half = VF::broadcast(0.5);
  const VF one = VF::broadcast(1.0);
  std::int32_t i = 0;
  for (; i + kW <= count; i += kW) {
    const VU h = VU::load(hash + i);
    const VF u = unit_from_hashv<VU, VF>(h);
    // u is never NaN, so the ordered-quiet compare matches scalar u < 0.5.
    const VF alpha = select_lt(u, half, lo_v, hi_v);
    const VF wv = VF::load(w + i);
    splitmix64v(h ^ heavy_key).store(heavy_hash + i);
    splitmix64v(h ^ light_key).store(light_hash + i);
    ((one - alpha) * wv).store(heavy_w + i);
    (alpha * wv).store(light_w + i);
  }
  for (; i < count; ++i) {
    const double u = lbb::stats::hash_to_unit(lbb::stats::splitmix64(hash[i]));
    const double alpha_hat = u < 0.5 ? lo : hi;
    heavy_hash[i] = lbb::stats::mix64(hash[i], 1);
    light_hash[i] = lbb::stats::mix64(hash[i], 2);
    heavy_w[i] = (1.0 - alpha_hat) * w[i];
    light_w[i] = alpha_hat * w[i];
  }
}

template <class VU, class VF>
double max_f64_t(const double* values, std::int32_t count) {
  constexpr std::int32_t kW = VF::kWidth;
  double m = values[0];
  std::int32_t i = 1;
  if (count >= kW) {
    VF acc = VF::load(values);
    for (i = kW; i + kW <= count; i += kW) {
      acc = max(acc, VF::load(values + i));
    }
    double lanes[static_cast<std::size_t>(kW)];
    acc.store(lanes);
    m = lanes[0];
    for (std::int32_t j = 1; j < kW; ++j) {
      if (lanes[j] > m) m = lanes[j];
    }
  }
  for (; i < count; ++i) {
    if (values[i] > m) m = values[i];
  }
  return m;
}

template <class VU, class VF>
[[nodiscard]] constexpr LaneKernels make_lane_kernels(Isa isa) noexcept {
  static_assert(VU::kWidth == VF::kWidth);
  LaneKernels k{};
  k.isa = isa;
  k.width = VU::kWidth;
  k.bisect_uniform = &bisect_uniform_t<VU, VF>;
  k.bisect_point = &bisect_point_t<VU, VF>;
  k.bisect_two_point = &bisect_two_point_t<VU, VF>;
  k.max_f64 = &max_f64_t<VU, VF>;
  return k;
}

}  // namespace lbb::core::simd
