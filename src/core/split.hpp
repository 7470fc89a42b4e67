// Processor-splitting rule of Algorithm BA (Figure 3 of the paper).
//
// When a problem p with n >= 2 processors is bisected into p1 (heavier) and
// p2, BA gives p1 the number of processors n1 in {1, ..., n-1} that
// minimizes max(w(p1)/n1, w(p2)/(n - n1)) -- the "best approximation of the
// ideal weight".  The optimum lies at the fractional value
// eta = n * w(p1)/w(p); the integer optimum is floor(eta) or ceil(eta)
// (clamped), whichever yields the smaller maximum (ties -> floor).
#pragma once

#include <cstdint>

namespace lbb::core {

/// Returns the processor count n1 assigned to the heavier child.
/// Preconditions: heavier >= lighter > 0 with n * heavier finite, n >= 2;
/// std::invalid_argument otherwise (NaN and infinite weights included).
/// Postconditions: 1 <= n1 <= n-1, and (Lemma 4)
///   max(heavier/n1, lighter/(n-n1)) <= (heavier+lighter)/(n-1).
[[nodiscard]] std::int32_t ba_split_processors(double heavier, double lighter,
                                               std::int32_t n);

}  // namespace lbb::core
