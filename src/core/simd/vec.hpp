// Portable u64xN / f64xN vector wrappers for the lane kernels.
//
// Each pair (U64xN, F64xN) wraps one register width with the exact set of
// operations kernels_inl.hpp needs: unaligned load/store, broadcast, u64
// add/xor/shift/multiply, f64 add/sub/mul/max/compare-select, and the exact
// 53-bit u64->f64 conversion.  The width-1 pair wraps plain scalars so the
// shared kernel templates instantiate to the portable fallback with no
// separate code path.
//
// Exactness notes (the bit-identity contract leans on these):
//   * All integer ops are exact by definition.  The AVX2 64x64->64 multiply
//     is composed from 32x32->64 partial products (vpmuludq), which is the
//     same mod-2^64 product vpmullq computes on AVX-512DQ.
//   * to_f64_53 converts values < 2^53 (hash >> 11) without rounding.  The
//     AVX2 path uses the exponent-bias trick: bias the low/high 32-bit
//     halves into the mantissas of 2^52 / 2^84, subtract the biases, add.
//     Every step is exact (each intermediate is an integer < 2^53 scaled by
//     a power of two), so the sum equals the value, as vcvtuqq2pd yields
//     directly on AVX-512DQ.
//   * max/select are bitwise selections of their inputs, never new values.
//
// This is the ONLY header that may touch <immintrin.h> (lbb-lint's raw-simd
// rule fences intrinsics into src/core/simd/).  The AVX types are guarded
// by compiler ISA macros: only the per-ISA TUs (built with -mavx2 /
// -mavx512f -mavx512dq) see them.
#pragma once

#include <cstdint>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace lbb::core::simd {

// ---------------------------------------------------------------------------
// Width 1: plain scalars (always available; the portable fallback).
// ---------------------------------------------------------------------------

struct U64x1 {
  static constexpr std::int32_t kWidth = 1;
  std::uint64_t v;

  static U64x1 load(const std::uint64_t* p) noexcept { return {*p}; }
  void store(std::uint64_t* p) const noexcept { *p = v; }
  static U64x1 broadcast(std::uint64_t x) noexcept { return {x}; }
  friend U64x1 operator+(U64x1 a, U64x1 b) noexcept { return {a.v + b.v}; }
  friend U64x1 operator^(U64x1 a, U64x1 b) noexcept { return {a.v ^ b.v}; }
  friend U64x1 operator*(U64x1 a, U64x1 b) noexcept { return {a.v * b.v}; }
};

template <int N>
inline U64x1 shr(U64x1 a) noexcept {
  return {a.v >> N};
}

struct F64x1 {
  static constexpr std::int32_t kWidth = 1;
  double v;

  static F64x1 load(const double* p) noexcept { return {*p}; }
  void store(double* p) const noexcept { *p = v; }
  static F64x1 broadcast(double x) noexcept { return {x}; }
  friend F64x1 operator+(F64x1 a, F64x1 b) noexcept { return {a.v + b.v}; }
  friend F64x1 operator-(F64x1 a, F64x1 b) noexcept { return {a.v - b.v}; }
  friend F64x1 operator*(F64x1 a, F64x1 b) noexcept { return {a.v * b.v}; }
};

inline F64x1 max(F64x1 a, F64x1 b) noexcept { return {a.v > b.v ? a.v : b.v}; }

/// Per element: a < b ? t : f.
inline F64x1 select_lt(F64x1 a, F64x1 b, F64x1 t, F64x1 f) noexcept {
  return {a.v < b.v ? t.v : f.v};
}

/// Exact conversion of a value < 2^53.
inline F64x1 to_f64_53(U64x1 x) noexcept {
  return {static_cast<double>(x.v)};
}

// ---------------------------------------------------------------------------
// Width 4: AVX2 (visible only to TUs compiled with -mavx2 or wider).
// ---------------------------------------------------------------------------
#if defined(__AVX2__)

struct U64x4 {
  static constexpr std::int32_t kWidth = 4;
  __m256i v;

  static U64x4 load(const std::uint64_t* p) noexcept {
    return {_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))};
  }
  void store(std::uint64_t* p) const noexcept {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static U64x4 broadcast(std::uint64_t x) noexcept {
    return {_mm256_set1_epi64x(static_cast<long long>(x))};
  }
  friend U64x4 operator+(U64x4 a, U64x4 b) noexcept {
    return {_mm256_add_epi64(a.v, b.v)};
  }
  friend U64x4 operator^(U64x4 a, U64x4 b) noexcept {
    return {_mm256_xor_si256(a.v, b.v)};
  }
  // 64x64 -> low 64 bits from 32-bit partial products: AVX2 has no vpmullq,
  // but lo(a*b) = lo(a_lo*b_lo) + ((a_hi*b_lo + a_lo*b_hi) << 32) mod 2^64.
  friend U64x4 operator*(U64x4 a, U64x4 b) noexcept {
    const __m256i a_hi = _mm256_srli_epi64(a.v, 32);
    const __m256i b_hi = _mm256_srli_epi64(b.v, 32);
    const __m256i lo = _mm256_mul_epu32(a.v, b.v);
    const __m256i cross = _mm256_add_epi64(_mm256_mul_epu32(a_hi, b.v),
                                           _mm256_mul_epu32(a.v, b_hi));
    return {_mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32))};
  }
};

template <int N>
inline U64x4 shr(U64x4 a) noexcept {
  return {_mm256_srli_epi64(a.v, N)};
}

struct F64x4 {
  static constexpr std::int32_t kWidth = 4;
  __m256d v;

  static F64x4 load(const double* p) noexcept { return {_mm256_loadu_pd(p)}; }
  void store(double* p) const noexcept { _mm256_storeu_pd(p, v); }
  static F64x4 broadcast(double x) noexcept { return {_mm256_set1_pd(x)}; }
  friend F64x4 operator+(F64x4 a, F64x4 b) noexcept {
    return {_mm256_add_pd(a.v, b.v)};
  }
  friend F64x4 operator-(F64x4 a, F64x4 b) noexcept {
    return {_mm256_sub_pd(a.v, b.v)};
  }
  friend F64x4 operator*(F64x4 a, F64x4 b) noexcept {
    return {_mm256_mul_pd(a.v, b.v)};
  }
};

inline F64x4 max(F64x4 a, F64x4 b) noexcept {
  return {_mm256_max_pd(a.v, b.v)};
}

inline F64x4 select_lt(F64x4 a, F64x4 b, F64x4 t, F64x4 f) noexcept {
  const __m256d m = _mm256_cmp_pd(a.v, b.v, _CMP_LT_OQ);
  return {_mm256_blendv_pd(f.v, t.v, m)};
}

inline F64x4 to_f64_53(U64x4 x) noexcept {
  // Exponent-bias trick (see header comment).  blend mask 0x55 takes the
  // low 32-bit half of each 64-bit element from x, the high half (the 2^52
  // exponent bits) from the bias constant.
  const __m256i lo_bias = _mm256_set1_epi64x(0x4330000000000000LL);  // 2^52
  const __m256i hi_bias = _mm256_set1_epi64x(0x4530000000000000LL);  // 2^84
  const __m256i lo = _mm256_blend_epi32(lo_bias, x.v, 0x55);
  const __m256i hi = _mm256_or_si256(_mm256_srli_epi64(x.v, 32), hi_bias);
  const __m256d d_lo =
      _mm256_sub_pd(_mm256_castsi256_pd(lo), _mm256_set1_pd(0x1.0p52));
  const __m256d d_hi =
      _mm256_sub_pd(_mm256_castsi256_pd(hi), _mm256_set1_pd(0x1.0p84));
  return {_mm256_add_pd(d_hi, d_lo)};
}

#endif  // __AVX2__

// ---------------------------------------------------------------------------
// Width 8: AVX-512F + DQ (vpmullq, vcvtuqq2pd).
// ---------------------------------------------------------------------------
#if defined(__AVX512F__) && defined(__AVX512DQ__)

struct U64x8 {
  static constexpr std::int32_t kWidth = 8;
  __m512i v;

  static U64x8 load(const std::uint64_t* p) noexcept {
    return {_mm512_loadu_si512(p)};
  }
  void store(std::uint64_t* p) const noexcept { _mm512_storeu_si512(p, v); }
  static U64x8 broadcast(std::uint64_t x) noexcept {
    return {_mm512_set1_epi64(static_cast<long long>(x))};
  }
  friend U64x8 operator+(U64x8 a, U64x8 b) noexcept {
    return {_mm512_add_epi64(a.v, b.v)};
  }
  friend U64x8 operator^(U64x8 a, U64x8 b) noexcept {
    return {_mm512_xor_si512(a.v, b.v)};
  }
  friend U64x8 operator*(U64x8 a, U64x8 b) noexcept {
    return {_mm512_mullo_epi64(a.v, b.v)};
  }
};

template <int N>
inline U64x8 shr(U64x8 a) noexcept {
  return {_mm512_srli_epi64(a.v, N)};
}

struct F64x8 {
  static constexpr std::int32_t kWidth = 8;
  __m512d v;

  static F64x8 load(const double* p) noexcept { return {_mm512_loadu_pd(p)}; }
  void store(double* p) const noexcept { _mm512_storeu_pd(p, v); }
  static F64x8 broadcast(double x) noexcept { return {_mm512_set1_pd(x)}; }
  friend F64x8 operator+(F64x8 a, F64x8 b) noexcept {
    return {_mm512_add_pd(a.v, b.v)};
  }
  friend F64x8 operator-(F64x8 a, F64x8 b) noexcept {
    return {_mm512_sub_pd(a.v, b.v)};
  }
  friend F64x8 operator*(F64x8 a, F64x8 b) noexcept {
    return {_mm512_mul_pd(a.v, b.v)};
  }
};

inline F64x8 max(F64x8 a, F64x8 b) noexcept {
  return {_mm512_max_pd(a.v, b.v)};
}

inline F64x8 select_lt(F64x8 a, F64x8 b, F64x8 t, F64x8 f) noexcept {
  const __mmask8 m = _mm512_cmp_pd_mask(a.v, b.v, _CMP_LT_OQ);
  return {_mm512_mask_blend_pd(m, f.v, t.v)};
}

inline F64x8 to_f64_53(U64x8 x) noexcept {
  return {_mm512_cvtepu64_pd(x.v)};
}

#endif  // __AVX512F__ && __AVX512DQ__

}  // namespace lbb::core::simd
