// lbb-lint negative fixture: raw x86 intrinsics, banned everywhere.
// Hand-vectorized lane kernels were measured no faster end to end and
// removed (DESIGN.md section 11); a hand-rolled intrinsic loop would bring
// back the per-ISA surface and its bit-identity argument, so the raw-simd
// rule flags every such token.  Never compiled; exists so
// tools/lint/lbb_lint_test.py can prove the ban holds.
#include <immintrin.h>  // BAD: vector header

#include <cstdint>

// A "fast" local max over weights.
inline double hand_rolled_max(const double* w, int n) {
  __m256d acc = _mm256_loadu_pd(w);  // BAD x2: _mm256_ intrinsics
  for (int i = 4; i + 4 <= n; i += 4) {
    acc = _mm256_max_pd(acc, _mm256_loadu_pd(w + i));  // BAD x2
  }
  double lanes[4];
  _mm256_storeu_pd(lanes, acc);  // BAD
  double m = lanes[0];
  for (int j = 1; j < 4; ++j) {
    if (lanes[j] > m) m = lanes[j];
  }
  // Raw gcc builtin spelling of an ISA intrinsic counts too.
  __builtin_ia32_pause();  // BAD
  return m;
}

// A comment mentioning _mm256_max_pd must NOT fire (masked), and an
// allow-comment suppresses a deliberate site:
// lbb-lint: allow(raw-simd): fixture demonstrates the suppression shape
inline void suppressed() { __builtin_ia32_pause(); }
