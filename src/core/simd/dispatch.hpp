// Kept only because the frozen benchmark/main.cpp includes it and keys its
// hardware profile on isa_name(active_isa()) ("...-scalar-...").  The lane
// kernels it once dispatched are gone (DESIGN.md section 11); the next
// change to benchmark/ deletes this header.
#pragma once

namespace lbb::core::simd {

enum class Isa { kScalar };

[[nodiscard]] constexpr const char* isa_name(Isa) noexcept { return "scalar"; }
[[nodiscard]] constexpr Isa active_isa() noexcept { return Isa::kScalar; }

}  // namespace lbb::core::simd
