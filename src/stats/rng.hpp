// Deterministic, portable pseudo-random number generation.
//
// The simulation experiments of the paper (Section 4) require i.i.d. draws
// of the realized bisection fraction alpha-hat.  We do not use
// <random>'s distributions because their output is implementation-defined;
// xoshiro256** plus an explicit bits-to-double mapping gives bit-identical
// results on every platform, which the test suite relies on.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <stdexcept>

namespace lbb::stats {

/// SplitMix64: used to expand a single 64-bit seed into a full generator
/// state and as a cheap stateless hash for path-indexed randomness.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Mixes two 64-bit values into one; used to hash (seed, node-path) pairs so
/// that every node of a virtual bisection tree has an independent draw.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t a,
                                            std::uint64_t b) noexcept {
  return splitmix64(a ^ (0x9e3779b97f4a7c15ULL + (b << 6) + (b >> 2)));
}

/// xoshiro256** 1.0 (Blackman & Vigna).  Small, fast, 2^256-1 period.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit constexpr Xoshiro256(std::uint64_t seed = 0x853c49e6748fea9bULL) noexcept {
    // Seed via SplitMix64 per the reference implementation's advice.
    std::uint64_t x = seed;
    for (auto& word : state_) {
      x = splitmix64(x);
      word = x;
    }
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  constexpr result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 bits of precision.
  constexpr double next_double() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  constexpr double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * next_double();
  }

  /// Uniform integer in [0, n).  Plain modulo; the bias of at most n/2^64
  /// per draw is irrelevant for simulation workloads.  n == 0 is rejected
  /// rather than hitting the undefined modulo-by-zero.
  constexpr std::uint64_t below(std::uint64_t n) {
    if (n == 0) throw std::invalid_argument("Xoshiro256::below: n == 0");
    return (*this)() % n;
  }

  /// Advances the state by 2^128 steps (the reference jump polynomial of
  /// Blackman & Vigna).  One seeded generator can be split into up to 2^128
  /// non-overlapping lanes of 2^128 draws each: lane k is the base state
  /// jumped k times, an independent stream whose draws cannot collide with
  /// any sibling's.
  constexpr void jump() noexcept {
    constexpr std::array<std::uint64_t, 4> kJump = {
        0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL, 0xa9582618e03fc9aaULL,
        0x39abdc4529b1661cULL};
    std::array<std::uint64_t, 4> acc{};
    for (const std::uint64_t word : kJump) {
      for (int bit = 0; bit < 64; ++bit) {
        if ((word & (1ULL << bit)) != 0) {
          for (std::size_t i = 0; i < acc.size(); ++i) acc[i] ^= state_[i];
        }
        (*this)();
      }
    }
    state_ = acc;
  }

  /// Returns the k-th jump-split lane of this generator (the state jumped
  /// k+1 times) without modifying *this.  Lanes are pairwise non-overlapping
  /// for any practical draw count.
  [[nodiscard]] constexpr Xoshiro256 split(std::uint64_t lane) const noexcept {
    Xoshiro256 out = *this;
    for (std::uint64_t k = 0; k <= lane; ++k) out.jump();
    return out;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// Maps a 64-bit hash to a uniform double in [0,1); stateless companion to
/// mix64 for path-indexed draws.
[[nodiscard]] constexpr double hash_to_unit(std::uint64_t h) noexcept {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace lbb::stats
