// Unit tests for the runtime ISA dispatcher (core/simd/dispatch.hpp):
// forced-level clamping (the scalar fallback is always selectable), table
// consistency, and the one-shot simd.isa MetricsSink emission.  These run
// in every build flavor -- on a non-SIMD build (or a non-AVX CPU) the
// runnable set is just {scalar} and the clamping assertions still bind.
#include "core/simd/dispatch.hpp"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "core/run_context.hpp"

namespace simd = lbb::core::simd;

namespace {

class RecordingSink final : public lbb::core::MetricsSink {
 public:
  void on_counter(std::string_view key, double value) override {
    counters.emplace_back(std::string(key), value);
  }
  std::vector<std::pair<std::string, double>> counters;
};

TEST(SimdDispatch, ScalarIsAlwaysRunnable) {
  simd::Isa levels[8];
  const std::int32_t n = simd::runnable_isas(levels, 8);
  ASSERT_GE(n, 1);
  EXPECT_EQ(levels[0], simd::Isa::kScalar);
  // Ascending capability order, no duplicates.
  for (std::int32_t i = 1; i < n; ++i) {
    EXPECT_LT(static_cast<int>(levels[i - 1]), static_cast<int>(levels[i]));
  }
}

TEST(SimdDispatch, ForcingScalarSelectsScalar) {
  simd::ScopedForceIsa force(simd::Isa::kScalar);
  EXPECT_EQ(force.selected(), simd::Isa::kScalar);
  EXPECT_EQ(simd::active_isa(), simd::Isa::kScalar);
  EXPECT_EQ(simd::active().width, 1);
  EXPECT_EQ(simd::active().isa, simd::Isa::kScalar);
}

TEST(SimdDispatch, ForcedLevelClampsToRunnable) {
  // Forcing the top level selects the strongest runnable level <= it --
  // scalar on a portable build, avx2/avx512 where compiled + supported.
  simd::Isa levels[8];
  const std::int32_t n = simd::runnable_isas(levels, 8);
  const simd::Isa strongest = levels[n - 1];
  simd::ScopedForceIsa force(simd::Isa::kAvx512);
  EXPECT_EQ(force.selected(), strongest);
  EXPECT_EQ(simd::active_isa(), strongest);
  EXPECT_EQ(simd::active().isa, strongest);
}

TEST(SimdDispatch, ScopedForceRestores) {
  const simd::Isa before = simd::active_isa();
  {
    simd::ScopedForceIsa force(simd::Isa::kScalar);
    EXPECT_EQ(simd::active_isa(), simd::Isa::kScalar);
  }
  EXPECT_EQ(simd::active_isa(), before);
}

TEST(SimdDispatch, TablesReportConsistentWidths) {
  simd::Isa levels[8];
  const std::int32_t n = simd::runnable_isas(levels, 8);
  for (std::int32_t i = 0; i < n; ++i) {
    const simd::LaneKernels& k = simd::kernels(levels[i]);
    EXPECT_EQ(k.isa, levels[i]);
    switch (levels[i]) {
      case simd::Isa::kScalar:
        EXPECT_EQ(k.width, 1);
        break;
      case simd::Isa::kAvx2:
        EXPECT_EQ(k.width, 4);
        break;
      case simd::Isa::kAvx512:
        EXPECT_EQ(k.width, 8);
        break;
    }
    EXPECT_NE(k.bisect_uniform, nullptr);
    EXPECT_NE(k.bisect_point, nullptr);
    EXPECT_NE(k.bisect_two_point, nullptr);
    EXPECT_NE(k.max_f64, nullptr);
  }
}

TEST(SimdDispatch, IsaNamesRoundTrip) {
  EXPECT_STREQ(simd::isa_name(simd::Isa::kScalar), "scalar");
  EXPECT_STREQ(simd::isa_name(simd::Isa::kAvx2), "avx2");
  EXPECT_STREQ(simd::isa_name(simd::Isa::kAvx512), "avx512");
  for (const simd::Isa isa :
       {simd::Isa::kScalar, simd::Isa::kAvx2, simd::Isa::kAvx512}) {
    EXPECT_EQ(simd::parse_isa(simd::isa_name(isa)), isa);
  }
  // Unknown names are the deterministic floor, never a crash.
  EXPECT_EQ(simd::parse_isa("avx9000"), simd::Isa::kScalar);
  EXPECT_EQ(simd::parse_isa(""), simd::Isa::kScalar);
}

TEST(SimdDispatch, EmitsIsaCounterExactlyOnce) {
  simd::detail::reset_isa_emission_for_test();
  RecordingSink sink;
  simd::emit_isa_once(sink);
  ASSERT_EQ(sink.counters.size(), 1u);
  EXPECT_EQ(sink.counters[0].first, "simd.isa");
  EXPECT_EQ(sink.counters[0].second,
            static_cast<double>(static_cast<int>(simd::active_isa())));
  // Second (and any later) call is a no-op: one record per process.
  simd::emit_isa_once(sink);
  simd::emit_isa_once(sink);
  EXPECT_EQ(sink.counters.size(), 1u);
}

TEST(SimdDispatch, EmittedValueTracksForcedLevel) {
  simd::ScopedForceIsa force(simd::Isa::kScalar);
  simd::detail::reset_isa_emission_for_test();
  RecordingSink sink;
  simd::emit_isa_once(sink);
  ASSERT_EQ(sink.counters.size(), 1u);
  EXPECT_EQ(sink.counters[0].second, 0.0);  // kScalar
}

}  // namespace
