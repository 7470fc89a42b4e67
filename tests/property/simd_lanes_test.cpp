// Property test: every runnable lane-kernel table (scalar, avx2, avx512 --
// whatever this build + CPU can execute) reproduces the scalar reference
// expressions bit for bit over random inputs, at every count including the
// sub-width remainders, and stays bit-exact through chained mix64
// descent (child hashes fed back as parents, the shape the batch drivers
// produce).  The reference is computed here directly from stats::mix64 /
// stats::splitmix64 / stats::hash_to_unit, independent of the kernel
// templates, so a transcription error in either place trips the test.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "core/simd/dispatch.hpp"
#include "stats/rng.hpp"

namespace simd = lbb::core::simd;
using lbb::stats::hash_to_unit;
using lbb::stats::mix64;
using lbb::stats::splitmix64;
using lbb::stats::Xoshiro256;

namespace {

constexpr std::int32_t kMaxCount = 37;  // covers >4 full avx512 vectors + tails

struct Lanes {
  std::vector<std::uint64_t> hash;
  std::vector<double> w;
  std::vector<std::uint64_t> hh, lh;
  std::vector<double> hw, lw;

  explicit Lanes(std::int32_t n)
      : hash(n), w(n), hh(n), lh(n), hw(n), lw(n) {}
};

void fill_random(Lanes& x, Xoshiro256& rng) {
  for (auto& h : x.hash) h = rng();
  for (auto& w : x.w) w = rng.next_double() + 0x1.0p-60;  // positive
}

/// Bitwise double equality (0.0 vs -0.0 and NaN payloads all distinct).
::testing::AssertionResult BitEqual(double a, double b) {
  if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << std::hexfloat << a << " != " << b << " (bitwise)";
}

/// Scalar reference for one element of each distribution kind.
void ref_bisect(std::uint64_t hash, double w, double lo, double hi, int kind,
                std::uint64_t& hh, double& hw, std::uint64_t& lh, double& lw) {
  const double u = hash_to_unit(splitmix64(hash));
  double alpha = 0.0;
  if (kind == 0) alpha = lo + (hi - lo) * u;          // uniform
  if (kind == 1) alpha = lo;                          // point
  if (kind == 2) alpha = u < 0.5 ? lo : hi;           // two-point
  hh = mix64(hash, 1);
  lh = mix64(hash, 2);
  hw = (1.0 - alpha) * w;
  lw = alpha * w;
}

void run_kernel(const simd::LaneKernels& k, int kind, std::int32_t count,
                Lanes& x, double lo, double hi) {
  if (kind == 0) {
    k.bisect_uniform(count, x.hash.data(), x.w.data(), lo, hi, x.hh.data(),
                     x.hw.data(), x.lh.data(), x.lw.data());
  } else if (kind == 1) {
    k.bisect_point(count, x.hash.data(), x.w.data(), lo, x.hh.data(),
                   x.hw.data(), x.lh.data(), x.lw.data());
  } else {
    k.bisect_two_point(count, x.hash.data(), x.w.data(), lo, hi, x.hh.data(),
                       x.hw.data(), x.lh.data(), x.lw.data());
  }
}

class SimdLanesProperty : public ::testing::Test {
 protected:
  std::vector<simd::Isa> runnable() {
    simd::Isa levels[8];
    const std::int32_t n = simd::runnable_isas(levels, 8);
    return {levels, levels + n};
  }
};

TEST_F(SimdLanesProperty, BisectKernelsMatchReferenceAtEveryWidth) {
  const double lo = 0.1;
  const double hi = 0.5;
  for (const simd::Isa isa : runnable()) {
    const simd::LaneKernels& k = simd::kernels(isa);
    ASSERT_EQ(k.isa, isa);
    Xoshiro256 rng(0xabc0 + static_cast<std::uint64_t>(isa));
    for (int kind = 0; kind < 3; ++kind) {
      for (std::int32_t count = 1; count <= kMaxCount; ++count) {
        Lanes x(count);
        fill_random(x, rng);
        run_kernel(k, kind, count, x, lo, hi);
        for (std::int32_t i = 0; i < count; ++i) {
          std::uint64_t hh;
          std::uint64_t lh;
          double hw;
          double lw;
          ref_bisect(x.hash[i], x.w[i], lo, hi, kind, hh, hw, lh, lw);
          ASSERT_EQ(x.hh[i], hh) << simd::isa_name(isa) << " kind=" << kind
                                 << " count=" << count << " i=" << i;
          ASSERT_EQ(x.lh[i], lh);
          ASSERT_TRUE(BitEqual(x.hw[i], hw))
              << simd::isa_name(isa) << " kind=" << kind
              << " count=" << count << " i=" << i;
          ASSERT_TRUE(BitEqual(x.lw[i], lw));
        }
      }
    }
  }
}

TEST_F(SimdLanesProperty, Mix64ChainsStayBitExact) {
  // Descend 64 levels, alternating which child is fed back, exactly the
  // hash chains the lockstep drivers produce.  Reference runs elementwise
  // on stats::mix64; the kernel runs dense at its native width.
  const double lo = 0.01;
  const double hi = 0.5;
  constexpr std::int32_t kDepth = 64;
  for (const simd::Isa isa : runnable()) {
    const simd::LaneKernels& k = simd::kernels(isa);
    const std::int32_t count = 3 * k.width + 1;  // full vectors + remainder
    Lanes x(count);
    Xoshiro256 rng(0x5eed + static_cast<std::uint64_t>(isa));
    fill_random(x, rng);
    std::vector<std::uint64_t> ref_hash = x.hash;
    std::vector<double> ref_w = x.w;
    for (std::int32_t depth = 0; depth < kDepth; ++depth) {
      run_kernel(k, /*kind=*/0, count, x, lo, hi);
      const bool take_heavy = (depth % 2) == 0;
      for (std::int32_t i = 0; i < count; ++i) {
        std::uint64_t hh;
        std::uint64_t lh;
        double hw;
        double lw;
        ref_bisect(ref_hash[i], ref_w[i], lo, hi, /*kind=*/0, hh, hw, lh, lw);
        ASSERT_EQ(x.hh[i], hh) << simd::isa_name(isa) << " depth=" << depth;
        ASSERT_EQ(x.lh[i], lh);
        ASSERT_TRUE(BitEqual(x.hw[i], hw)) << simd::isa_name(isa)
                                           << " depth=" << depth;
        ASSERT_TRUE(BitEqual(x.lw[i], lw));
        ref_hash[i] = take_heavy ? hh : lh;
        ref_w[i] = take_heavy ? hw : lw;
      }
      x.hash = take_heavy ? x.hh : x.lh;
      x.w = take_heavy ? x.hw : x.lw;
    }
  }
}

TEST_F(SimdLanesProperty, MaxMatchesScalarScan) {
  Xoshiro256 rng(0x3a5);
  for (const simd::Isa isa : runnable()) {
    const simd::LaneKernels& k = simd::kernels(isa);
    for (std::int32_t count = 1; count <= kMaxCount; ++count) {
      std::vector<double> v(count);
      for (auto& x : v) x = rng.next_double();
      // Plant the maximum at a sub-width tail position sometimes.
      if (count > 2) v[count - 1] = 1.5;
      double m = v[0];
      for (const double x : v) {
        if (x > m) m = x;
      }
      ASSERT_TRUE(BitEqual(k.max_f64(v.data(), count), m))
          << simd::isa_name(isa) << " count=" << count;
    }
  }
}

}  // namespace
