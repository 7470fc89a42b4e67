// Tests for the Bisectable concept, AnyProblem type erasure, and Partition
// invariants.
#include "core/problem.hpp"

#include <gtest/gtest.h>

#include "core/hf.hpp"
#include "core/partition.hpp"
#include "problems/alpha_dist.hpp"
#include "problems/fe_tree.hpp"
#include "problems/synthetic.hpp"

namespace lbb::core {
namespace {

using lbb::problems::AlphaDistribution;
using lbb::problems::SyntheticProblem;

// A minimal hand-rolled problem type: weight halves exactly.
struct HalvingProblem {
  double w = 1.0;
  [[nodiscard]] double weight() const { return w; }
  [[nodiscard]] std::pair<HalvingProblem, HalvingProblem> bisect() const {
    return {HalvingProblem{w / 2}, HalvingProblem{w / 2}};
  }
};

static_assert(Bisectable<HalvingProblem>);
static_assert(Bisectable<SyntheticProblem>);
static_assert(Bisectable<lbb::problems::FeTreeProblem>);
static_assert(Bisectable<AnyProblem>);

TEST(Concept, CustomTypeWorksWithAlgorithms) {
  auto part = hf_partition(HalvingProblem{16.0}, 16);
  EXPECT_EQ(part.pieces.size(), 16u);
  EXPECT_NEAR(part.ratio(), 1.0, 1e-12);
}

TEST(AnyProblem, WrapsAndBisects) {
  AnyProblem any(HalvingProblem{8.0});
  ASSERT_TRUE(any.has_value());
  EXPECT_DOUBLE_EQ(any.weight(), 8.0);
  auto [a, b] = any.bisect();
  EXPECT_DOUBLE_EQ(a.weight(), 4.0);
  EXPECT_DOUBLE_EQ(b.weight(), 4.0);
}

TEST(AnyProblem, DefaultIsEmpty) {
  AnyProblem any;
  EXPECT_FALSE(any.has_value());
}

TEST(AnyProblem, WorksWithHf) {
  AnyProblem any(SyntheticProblem(4, AlphaDistribution::uniform(0.1, 0.5)));
  auto part = hf_partition(std::move(any), 32);
  EXPECT_EQ(part.pieces.size(), 32u);
  EXPECT_TRUE(part.validate());
}

TEST(AnyProblem, MixedClassesBehindOneInterface) {
  // The point of type erasure: heterogeneous problems in one collection.
  std::vector<AnyProblem> problems;
  problems.emplace_back(HalvingProblem{2.0});
  problems.emplace_back(
      SyntheticProblem(1, AlphaDistribution::uniform(0.2, 0.5), 3.0));
  double total = 0.0;
  for (const auto& p : problems) total += p.weight();
  EXPECT_DOUBLE_EQ(total, 5.0);
}

TEST(Partition, ValidateCatchesDuplicateProcessors) {
  Partition<HalvingProblem> part;
  part.processors = 2;
  part.total_weight = 2.0;
  part.pieces.push_back(Piece<HalvingProblem>{HalvingProblem{1.0}, 1.0, 0, 1,
                                              kNoNode});
  part.pieces.push_back(Piece<HalvingProblem>{HalvingProblem{1.0}, 1.0, 0, 1,
                                              kNoNode});
  EXPECT_FALSE(part.validate());
  part.pieces[1].processor = 1;
  EXPECT_TRUE(part.validate());
}

TEST(Partition, ValidateCatchesWeightMismatch) {
  Partition<HalvingProblem> part;
  part.processors = 1;
  part.total_weight = 5.0;
  part.pieces.push_back(Piece<HalvingProblem>{HalvingProblem{1.0}, 1.0, 0, 0,
                                              kNoNode});
  EXPECT_FALSE(part.validate());
}

TEST(Partition, ValidateCatchesOutOfRangeProcessor) {
  Partition<HalvingProblem> part;
  part.processors = 2;
  part.total_weight = 1.0;
  part.pieces.push_back(Piece<HalvingProblem>{HalvingProblem{1.0}, 1.0, 5, 0,
                                              kNoNode});
  EXPECT_FALSE(part.validate());
}

TEST(Partition, RatioOfEmptyThrows) {
  Partition<HalvingProblem> part;
  part.processors = 2;
  EXPECT_THROW(static_cast<void>(part.ratio()), std::logic_error);
}

TEST(Partition, SortedWeights) {
  Partition<HalvingProblem> part;
  part.processors = 3;
  part.total_weight = 6.0;
  for (int i = 0; i < 3; ++i) {
    part.pieces.push_back(Piece<HalvingProblem>{
        HalvingProblem{1.0}, static_cast<double>(3 - i), i, 0, kNoNode});
  }
  const auto w = part.sorted_weights();
  EXPECT_EQ(w, (std::vector<double>{1.0, 2.0, 3.0}));
}

}  // namespace
}  // namespace lbb::core

// Appended: AnyProblem through the remaining algorithms, plus the
// ownership/storage contracts of the small-buffer storage.
#include <array>
#include <type_traits>
#include <utility>

#include "core/ba.hpp"
#include "core/ba_hf.hpp"

namespace lbb::core {
namespace {

using lbb::problems::AlphaDistribution;
using lbb::problems::SyntheticProblem;

TEST(AnyProblem, WorksWithBa) {
  AnyProblem any(SyntheticProblem(7, AlphaDistribution::uniform(0.1, 0.5)));
  auto part = ba_partition(std::move(any), 16);
  EXPECT_EQ(part.pieces.size(), 16u);
  EXPECT_TRUE(part.validate());
}

TEST(AnyProblem, WorksWithBaHf) {
  AnyProblem any(SyntheticProblem(8, AlphaDistribution::uniform(0.1, 0.5)));
  auto part = ba_hf_partition(std::move(any), 24, BaHfParams{0.1, 1.0});
  EXPECT_EQ(part.pieces.size(), 24u);
  EXPECT_TRUE(part.validate());
}

TEST(AnyProblem, WrappedEqualsUnwrapped) {
  SyntheticProblem raw(9, AlphaDistribution::uniform(0.15, 0.5));
  auto wrapped = hf_partition(AnyProblem(raw), 32);
  auto plain = hf_partition(raw, 32);
  EXPECT_EQ(wrapped.sorted_weights(), plain.sorted_weights());
}

// Ownership contract: move-only.  bisect() may consume the wrapped
// problem, so a deep copy would be a correctness trap; callers wrap a copy
// of the concrete problem instead.
static_assert(!std::is_copy_constructible_v<AnyProblem>);
static_assert(!std::is_copy_assignable_v<AnyProblem>);
static_assert(std::is_nothrow_move_constructible_v<AnyProblem>);
static_assert(std::is_nothrow_move_assignable_v<AnyProblem>);

TEST(AnyProblem, MovedFromIsEmpty) {
  AnyProblem a(HalvingProblem{8.0});
  AnyProblem b(std::move(a));
  EXPECT_FALSE(a.has_value());  // NOLINT(bugprone-use-after-move): contract
  ASSERT_TRUE(b.has_value());
  EXPECT_DOUBLE_EQ(b.weight(), 8.0);

  AnyProblem c;
  c = std::move(b);
  EXPECT_FALSE(b.has_value());  // NOLINT(bugprone-use-after-move): contract
  ASSERT_TRUE(c.has_value());
  EXPECT_DOUBLE_EQ(c.weight(), 8.0);
}

TEST(AnyProblem, MoveAssignOntoEngagedDestroysOldValue) {
  AnyProblem a(HalvingProblem{2.0});
  AnyProblem b(HalvingProblem{4.0});
  a = std::move(b);
  ASSERT_TRUE(a.has_value());
  EXPECT_DOUBLE_EQ(a.weight(), 4.0);
  EXPECT_FALSE(b.has_value());  // NOLINT(bugprone-use-after-move): contract
}

// A problem too large for the inline buffer: falls back to a single heap
// cell.
struct PaddedProblem {
  double w = 1.0;
  std::array<double, 16> padding{};
  [[nodiscard]] double weight() const { return w; }
  [[nodiscard]] std::pair<PaddedProblem, PaddedProblem> bisect() const {
    return {PaddedProblem{w / 2, padding}, PaddedProblem{w / 2, padding}};
  }
};
static_assert(!AnyProblem::fits_inline_v<PaddedProblem>);
static_assert(AnyProblem::fits_inline_v<HalvingProblem>);

TEST(AnyProblem, OversizedProblemUsesRemoteStorage) {
  AnyProblem any{PaddedProblem{8.0, {}}};
  ASSERT_TRUE(any.has_value());
  EXPECT_DOUBLE_EQ(any.weight(), 8.0);
  auto [a, b] = any.bisect();
  EXPECT_DOUBLE_EQ(a.weight(), 4.0);
  EXPECT_DOUBLE_EQ(b.weight(), 4.0);
  AnyProblem moved(std::move(a));
  EXPECT_DOUBLE_EQ(moved.weight(), 4.0);
}

TEST(AnyProblem, OversizedPartitionMatchesInlineEquivalent) {
  // Same algorithm run through heap-backed erased storage must match the
  // unwrapped run piece for piece.
  auto wrapped = hf_partition(AnyProblem{PaddedProblem{32.0, {}}}, 8);
  auto plain = hf_partition(PaddedProblem{32.0, {}}, 8);
  EXPECT_EQ(wrapped.sorted_weights(), plain.sorted_weights());
}

}  // namespace
}  // namespace lbb::core
