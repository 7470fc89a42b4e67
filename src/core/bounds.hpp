// Worst-case performance bounds from the paper (and its companion paper
// [Bischof/Ebner/Erlebach, EURO-PAR'98], cited as [1]).
//
// All bounds are expressed as ratios against the ideal piece weight
// w(p)/N, i.e. an algorithm with bound r guarantees
//   max_i w(p_i) <= (w(p)/N) * r.
//
// NOTE ON RECONSTRUCTION: the available text of the paper is OCR output
// that dropped Greek letters and floor/ceiling brackets.  The formulas
// below are reconstructed readings, cross-checked against every numeric
// claim in the paper's prose (see DESIGN.md Section 4):
//   Theorem 2 (HF):    r_alpha = 1 / (alpha * (1-alpha)^(floor(1/alpha)-2)),
//                      and r_alpha = 2 for alpha >= 1/3 (stated separately).
//   Lemma 5 (BA, N <= 1/alpha):  max <= w(p) * (1-alpha)^floor(N/2).
//   Theorem 7 (BA):    r = e / (alpha * (1-alpha)^(floor(1/(2 alpha))-1)).
//   Theorem 8 (BA-HF): r = e^((1-alpha)/beta) * r_alpha, switching to HF
//                      when N < beta/alpha + 1.
#pragma once

#include <cstdint>

namespace lbb::core {

/// Validates 0 < alpha <= 1/2; throws std::invalid_argument otherwise.
void require_valid_alpha(double alpha);

/// The most floor_inverse() returns: 2^53, the last integer up to which a
/// double holds every integer.  Reached only for alpha below about 1.1e-16.
inline constexpr std::int64_t kFloorInverseCap = std::int64_t{1} << 53;

/// floor(1/alpha) computed robustly against floating-point representation
/// of alpha = 1/k (e.g. alpha = 1.0/3.0 yields 3, not 2); saturates at
/// kFloorInverseCap.
[[nodiscard]] std::int64_t floor_inverse(double alpha);

/// Theorem 2: worst-case ratio r_alpha of sequential Algorithm HF.
/// Piecewise: 2 for alpha >= 1/3 (the paper's explicit claim), otherwise
/// 1/(alpha*(1-alpha)^(floor(1/alpha)-2)).
[[nodiscard]] double hf_ratio_bound(double alpha);

/// Lemma 5: for N <= floor(1/alpha), Algorithm BA guarantees
/// max_i w(p_i) <= w(p)*(1-alpha)^floor(N/2).  Returned as a ratio vs
/// w(p)/N, i.e. N*(1-alpha)^floor(N/2).
[[nodiscard]] double ba_small_n_ratio_bound(double alpha, std::int32_t n);

/// Theorem 7: worst-case ratio of Algorithm BA.  Uses the Lemma 5 bound
/// when n <= floor(1/alpha) and the closed-form bound otherwise.
[[nodiscard]] double ba_ratio_bound(double alpha, std::int32_t n);

/// Theorem 8: worst-case ratio of Algorithm BA-HF with threshold parameter
/// beta > 0.  For n below the switch threshold the bound is HF's r_alpha.
[[nodiscard]] double ba_hf_ratio_bound(double alpha, double beta,
                                       std::int32_t n);

/// Worst-case ratio of Algorithm BA' (BA pruned at weight w(p)*r_alpha/N;
/// Section 3.4).  Every BA'-leaf either has weight <= w(p)*r_alpha/N
/// (ratio at most r_alpha) or is a single-processor BA leaf (Theorem 7
/// applies), so the bound is max(r_alpha, r_BA).
[[nodiscard]] double ba_star_ratio_bound(double alpha, std::int32_t n);

/// BA-HF switches from BA-style splitting to HF when the processor count of
/// a subproblem drops below beta/alpha + 1; this returns that threshold as
/// the smallest processor count that still recurses BA-style (at least 2).
[[nodiscard]] std::int32_t ba_hf_switch_threshold(double alpha, double beta);

/// PHF phase-1 weight threshold: problems heavier than w(p)*r_alpha/N are
/// certainly bisected by HF and may be bisected eagerly in parallel.
[[nodiscard]] double phf_phase1_threshold(double alpha, double total_weight,
                                          std::int32_t n);

/// Upper bound on the depth of the phase-1 bisection tree:
/// D <= log_{1/(1-alpha)} N (Section 3.1).
[[nodiscard]] std::int32_t phase1_depth_bound(double alpha, std::int32_t n);

/// Upper bound on the number of phase-2 iterations of Algorithm PHF:
/// I <= (1/alpha) ln(1/alpha) + floor(1/alpha) - 2, rounded up
/// (Section 3.1; the additive term comes from the r_alpha factor in the
/// termination condition (1-alpha)^I r_alpha <= 1).
[[nodiscard]] std::int32_t phase2_iteration_bound(double alpha);

/// Upper bound on the depth of Algorithm BA's bisection tree:
/// processor counts shrink by a factor >= (1 - alpha/2) per level, so
/// depth <= log_{1/(1-alpha/2)} N (proof of Theorem 7).
[[nodiscard]] std::int32_t ba_depth_bound(double alpha, std::int32_t n);

}  // namespace lbb::core
