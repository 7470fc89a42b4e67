// Runtime CPU dispatch for the batched trial kernels (core/batch).
//
// The dense lane loops -- SyntheticLaneModel::bisect_lanes, straight-line
// 64-bit hash/multiply arithmetic that the baseline x86-64 target cannot
// auto-vectorize, and the max reduce of the HF lanes in
// core/batch/batch_kernels.hpp -- get hand-vectorized implementations
// behind a function-pointer table (LaneKernels) selected once per process
// from the CPU's capabilities:
//
//   * kScalar -- portable C++ loops, always compiled, bit-identical to the
//     inline loops the batch drivers shipped with.
//   * kAvx2   -- 4-wide u64/f64 lanes (kernels_avx2.cpp, built -mavx2).
//   * kAvx512 -- 8-wide lanes (kernels_avx512.cpp, built -mavx512f
//     -mavx512dq; DQ supplies vpmullq and vcvtuqq2pd).
//
// The AVX translation units exist only when the LBB_SIMD CMake option is ON
// (they need ISA-specific -m flags), so the default build stays portable;
// dispatch itself always compiles and resolves to the scalar table.
//
// Bit-identity contract (DESIGN.md section 10): every vector kernel
// evaluates the same single-rounded expression DAG per element as the
// scalar path -- integer hash mixing is exact, the 53-bit hash->unit
// conversion is rounding-free, each FP multiply/add is one IEEE rounding in
// the same order (ISA TUs are compiled -ffp-contract=off so no FMA fusion),
// and the max reduction is order-free over positive non-NaN weights.  The
// batch-identity golden gate sweeps the forced-ISA grid to pin this.
//
// Overrides: the LBB_SIMD_FORCE environment variable (scalar|avx2|avx512,
// read once at first use) and the programmatic force_isa()/ScopedForceIsa
// (benchmarks and the identity tests use these to compare ISA levels in one
// process).  A forced level is clamped to the strongest level that is both
// compiled in and supported by the CPU, so forcing avx512 on an AVX2-only
// box selects avx2, and any force on a non-SIMD build selects scalar --
// the dispatcher's every branch is exercisable on any hardware.
#pragma once

#include <cstdint>
#include <string_view>

namespace lbb::core {
class MetricsSink;  // core/run_context.hpp; kept out of this header
}  // namespace lbb::core

namespace lbb::core::simd {

/// Instruction-set level of a kernel table.  Numeric order is capability
/// order; the value is also what emit_isa_once() reports (0/1/2).
enum class Isa : std::int32_t {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

/// Lower-case display name ("scalar" / "avx2" / "avx512"); stable -- it is
/// recorded in benchmark JSON and compared by tools/bench_diff.py.
[[nodiscard]] const char* isa_name(Isa isa) noexcept;

/// Inverse of isa_name.  Unrecognized names map to kScalar (the safe,
/// deterministic floor) so a typoed LBB_SIMD_FORCE cannot crash a run.
[[nodiscard]] Isa parse_isa(std::string_view name) noexcept;

/// Dense lane kernels, one table per ISA level.  Every function is a pure
/// loop over contiguous arrays; all produce bit-identical outputs across
/// tables (the dispatch is a pure performance decision).
struct LaneKernels {
  Isa isa;             ///< level this table was compiled for
  std::int32_t width;  ///< u64/f64 elements per vector register (1/4/8)

  /// bisect for Kind::kUniform: per element, u = hash_to_unit(splitmix64(
  /// hash[i])), alpha = lo + (hi-lo)*u, children as SyntheticProblem.
  void (*bisect_uniform)(std::int32_t count, const std::uint64_t* hash,
                         const double* w, double lo, double hi,
                         std::uint64_t* heavy_hash, double* heavy_w,
                         std::uint64_t* light_hash, double* light_w);
  /// bisect for Kind::kPoint: fixed alpha for every element.
  void (*bisect_point)(std::int32_t count, const std::uint64_t* hash,
                       const double* w, double alpha,
                       std::uint64_t* heavy_hash, double* heavy_w,
                       std::uint64_t* light_hash, double* light_w);
  /// bisect for Kind::kTwoPoint: alpha = u < 0.5 ? lo : hi.
  void (*bisect_two_point)(std::int32_t count, const std::uint64_t* hash,
                           const double* w, double lo, double hi,
                           std::uint64_t* heavy_hash, double* heavy_w,
                           std::uint64_t* light_hash, double* light_w);
  /// Exact maximum of values[0..count), count >= 1 (no NaN inputs).
  double (*max_f64)(const double* values, std::int32_t count);
};

/// The process-wide selected table.  First call detects the CPU (honoring
/// LBB_SIMD_FORCE); later calls are one atomic load.  Thread-safe.
[[nodiscard]] const LaneKernels& active() noexcept;

/// Level of the active table.
[[nodiscard]] Isa active_isa() noexcept;

/// Table for `isa`, clamped to the strongest runnable level <= isa
/// (runnable = compiled in AND supported by this CPU).
[[nodiscard]] const LaneKernels& kernels(Isa isa) noexcept;

/// Fills out[0..cap) with the runnable levels in ascending order (kScalar
/// is always first) and returns how many there are.
std::int32_t runnable_isas(Isa* out, std::int32_t cap) noexcept;

/// Forces the active table to the strongest runnable level <= isa and
/// returns the level actually selected.  For benchmarks and tests; racing
/// forces against hot kernel calls is the caller's problem.
Isa force_isa(Isa isa) noexcept;

/// Reverts force_isa(): re-runs detection (including LBB_SIMD_FORCE).
void clear_forced_isa() noexcept;

/// RAII force_isa + restore of the previously active table.
class ScopedForceIsa {
 public:
  explicit ScopedForceIsa(Isa isa) noexcept;
  ~ScopedForceIsa();
  ScopedForceIsa(const ScopedForceIsa&) = delete;
  ScopedForceIsa& operator=(const ScopedForceIsa&) = delete;
  /// The clamped level actually in effect.
  [[nodiscard]] Isa selected() const noexcept { return selected_; }

 private:
  const void* prev_;  ///< table active before the force (may be unset)
  Isa selected_;
};

/// Emits the selected level as the "simd.isa" counter (value = numeric Isa,
/// 0/1/2) on the first call of the process; later calls are no-ops, so any
/// number of experiment entry points can report it without duplicates.
void emit_isa_once(MetricsSink& sink);

namespace detail {
/// Test hook: makes the next emit_isa_once() fire again.
void reset_isa_emission_for_test() noexcept;

// Per-ISA tables (kernels_*.cpp).  The AVX definitions exist only when the
// matching TU is compiled in (LBB_SIMD=ON); LBB_SIMD_HAVE_* is defined
// PRIVATE to lbb_core, so only dispatch.cpp sees these declarations.
const LaneKernels& scalar_kernels() noexcept;
#if defined(LBB_SIMD_HAVE_AVX2)
const LaneKernels& avx2_kernels() noexcept;
#endif
#if defined(LBB_SIMD_HAVE_AVX512)
const LaneKernels& avx512_kernels() noexcept;
#endif
}  // namespace detail

}  // namespace lbb::core::simd
