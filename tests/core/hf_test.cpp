// Tests for Algorithm HF (Figure 1, Theorem 2).
#include "core/hf.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <queue>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/bounds.hpp"
#include "core/detail/scratch.hpp"
#include "problems/alpha_dist.hpp"
#include "problems/synthetic.hpp"
#include "stats/rng.hpp"

namespace lbb::core {
namespace {

using lbb::problems::AlphaDistribution;
using lbb::problems::SyntheticProblem;

SyntheticProblem make_problem(std::uint64_t seed, double lo, double hi) {
  return SyntheticProblem(seed, AlphaDistribution::uniform(lo, hi));
}

TEST(Hf, SingleProcessorReturnsInput) {
  auto part = hf_partition(make_problem(1, 0.2, 0.5), 1);
  ASSERT_EQ(part.pieces.size(), 1u);
  EXPECT_DOUBLE_EQ(part.pieces[0].weight, 1.0);
  EXPECT_EQ(part.bisections, 0);
  EXPECT_DOUBLE_EQ(part.ratio(), 1.0);
  EXPECT_TRUE(part.validate());
}

TEST(Hf, UsesExactlyNMinusOneBisections) {
  for (int n : {2, 3, 7, 64, 100}) {
    auto part = hf_partition(make_problem(3, 0.1, 0.5), n);
    EXPECT_EQ(part.bisections, n - 1);
    EXPECT_EQ(part.pieces.size(), static_cast<std::size_t>(n));
    EXPECT_TRUE(part.validate());
  }
}

TEST(Hf, WeightConservation) {
  auto part = hf_partition(make_problem(17, 0.05, 0.5), 256);
  double sum = 0.0;
  for (const auto& piece : part.pieces) sum += piece.weight;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Hf, RecordsTreeWhenAsked) {
  PartitionOptions opt;
  opt.record_tree = true;
  auto part = hf_partition(make_problem(5, 0.2, 0.5), 32, opt);
  EXPECT_EQ(part.tree.leaf_count(), 32u);
  EXPECT_EQ(part.tree.bisection_count(), 31u);
  EXPECT_TRUE(part.tree.validate(0.2));
  EXPECT_EQ(part.tree.max_leaf_depth(), part.max_depth);
}

TEST(Hf, NoTreeByDefault) {
  auto part = hf_partition(make_problem(5, 0.2, 0.5), 32);
  EXPECT_TRUE(part.tree.empty());
  EXPECT_GT(part.max_depth, 0);  // depth still tracked without the tree
}

TEST(Hf, DeterministicAcrossRuns) {
  auto a = hf_partition(make_problem(11, 0.1, 0.5), 128);
  auto b = hf_partition(make_problem(11, 0.1, 0.5), 128);
  EXPECT_EQ(a.sorted_weights(), b.sorted_weights());
  EXPECT_DOUBLE_EQ(a.ratio(), b.ratio());
}

TEST(Hf, RejectsBadN) {
  EXPECT_THROW(hf_partition(make_problem(1, 0.2, 0.5), 0),
               std::invalid_argument);
  EXPECT_THROW(hf_partition(make_problem(1, 0.2, 0.5), -3),
               std::invalid_argument);
}

TEST(Hf, EqualSplitGivesPerfectBalanceOnPowersOfTwo) {
  SyntheticProblem p(9, AlphaDistribution::point(0.5));
  for (int n : {2, 4, 8, 64, 1024}) {
    auto part = hf_partition(p, n);
    EXPECT_NEAR(part.ratio(), 1.0, 1e-9) << "n=" << n;
  }
}

TEST(Hf, HeaviestAlwaysBisectedProperty) {
  // After the run, no piece may be heavier than any internal node of the
  // recorded tree (HF bisects heaviest-first, so every bisected node was at
  // least as heavy as every surviving piece at that time; in particular the
  // final max weight is <= the minimum internal-node weight).
  PartitionOptions opt;
  opt.record_tree = true;
  auto part = hf_partition(make_problem(23, 0.1, 0.5), 200, opt);
  double min_internal = 1e300;
  for (std::size_t i = 0; i < part.tree.size(); ++i) {
    const auto& node = part.tree.node(static_cast<NodeId>(i));
    if (node.left != kNoNode) {
      min_internal = std::min(min_internal, node.weight);
    }
  }
  EXPECT_LE(part.max_weight(), min_internal + 1e-12);
}

// --- Reference: HF on std::priority_queue ---------------------------------
//
// hf_partition selects with an inline 4-ary heap below
// detail::kHfBandMinPieces pieces and with a weight-band queue from there
// on.  Both must reproduce, piece for piece and tree node for tree node,
// the textbook HF below: pop the heaviest (earliest created on ties),
// bisect it, push both children (heavier first), n-1 times.

Partition<SyntheticProblem> reference_hf(const SyntheticProblem& root,
                                         std::int32_t n, bool record_tree) {
  struct Entry {
    double weight;
    std::int64_t seq;
    std::size_t slot;
  };
  struct Lower {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.weight != b.weight) return a.weight < b.weight;
      return a.seq > b.seq;
    }
  };
  struct Slot {
    SyntheticProblem problem;
    double weight;
    std::int32_t depth;
    NodeId node;
  };
  Partition<SyntheticProblem> out;
  out.processors = n;
  out.total_weight = root.weight();
  const NodeId root_node =
      record_tree ? out.tree.set_root(root.weight()) : kNoNode;
  std::vector<Slot> slots{Slot{root, root.weight(), 0, root_node}};
  std::priority_queue<Entry, std::vector<Entry>, Lower> queue;
  std::int64_t seq = 0;
  queue.push(Entry{root.weight(), seq++, 0});
  for (std::int32_t live = 1; live < n; ++live) {
    const Entry top = queue.top();
    queue.pop();
    auto [heavy, light] = slots[top.slot].problem.bisect();
    if (heavy.weight() < light.weight()) std::swap(heavy, light);
    NodeId heavy_node = kNoNode;
    NodeId light_node = kNoNode;
    if (record_tree) {
      std::tie(heavy_node, light_node) = out.tree.add_bisection(
          slots[top.slot].node, heavy.weight(), light.weight());
    }
    ++out.bisections;
    const std::int32_t depth = slots[top.slot].depth + 1;
    const double wh = heavy.weight();
    const double wl = light.weight();
    slots[top.slot] = Slot{heavy, wh, depth, heavy_node};
    slots.push_back(Slot{light, wl, depth, light_node});
    queue.push(Entry{wh, seq++, top.slot});
    queue.push(Entry{wl, seq++, slots.size() - 1});
  }
  for (std::size_t i = 0; i < slots.size(); ++i) {
    out.max_depth = std::max(out.max_depth, slots[i].depth);
    out.pieces.push_back(Piece<SyntheticProblem>{
        slots[i].problem, slots[i].weight, static_cast<ProcessorId>(i),
        slots[i].depth, slots[i].node});
  }
  return out;
}

std::uint64_t bits(double w) { return std::bit_cast<std::uint64_t>(w); }

void expect_same_partition(const Partition<SyntheticProblem>& got,
                           const Partition<SyntheticProblem>& want,
                           const std::string& what) {
  ASSERT_EQ(got.pieces.size(), want.pieces.size()) << what;
  EXPECT_EQ(got.bisections, want.bisections) << what;
  EXPECT_EQ(got.max_depth, want.max_depth) << what;
  for (std::size_t i = 0; i < want.pieces.size(); ++i) {
    const auto& g = got.pieces[i];
    const auto& w = want.pieces[i];
    ASSERT_EQ(bits(g.weight), bits(w.weight)) << what << " piece " << i;
    ASSERT_EQ(g.processor, w.processor) << what << " piece " << i;
    ASSERT_EQ(g.depth, w.depth) << what << " piece " << i;
    ASSERT_EQ(g.node, w.node) << what << " piece " << i;
    ASSERT_EQ(g.problem.node_hash(), w.problem.node_hash())
        << what << " piece " << i;
  }
  ASSERT_EQ(got.tree.size(), want.tree.size()) << what;
  for (std::size_t i = 0; i < want.tree.size(); ++i) {
    const auto& g = got.tree.node(static_cast<NodeId>(i));
    const auto& w = want.tree.node(static_cast<NodeId>(i));
    ASSERT_EQ(bits(g.weight), bits(w.weight)) << what << " node " << i;
    ASSERT_EQ(g.parent, w.parent) << what << " node " << i;
    ASSERT_EQ(g.left, w.left) << what << " node " << i;
    ASSERT_EQ(g.right, w.right) << what << " node " << i;
    ASSERT_EQ(g.depth, w.depth) << what << " node " << i;
  }
}

TEST(Hf, MatchesPriorityQueueReferenceAcrossSelectionCutOver) {
  const std::pair<const char*, AlphaDistribution> dists[] = {
      {"U[0.01,0.5]", AlphaDistribution::uniform(0.01, 0.5)},
      {"U[0.1,0.5]", AlphaDistribution::uniform(0.1, 0.5)},
      {"point(0.5)", AlphaDistribution::point(0.5)},
      {"point(0.1)", AlphaDistribution::point(0.1)},
      {"two_point(0.1,0.5)", AlphaDistribution::two_point(0.1, 0.5)},
  };
  // One warm workspace for every case, so each run also checks that the
  // selection structures forget the previous run on clear.
  TrialWorkspace<SyntheticProblem> ws;
  for (const std::int32_t n :
       {detail::kHfBandMinPieces - 1, detail::kHfBandMinPieces,
        std::int32_t{1} << 12, std::int32_t{1} << 16}) {
    for (const auto& [name, dist] : dists) {
      for (const std::uint64_t seed : {1ULL, 2ULL}) {
        for (const bool record : {false, true}) {
          const SyntheticProblem problem(seed, dist);
          const std::string what = std::string(name) +
                                   " n=" + std::to_string(n) +
                                   " seed=" + std::to_string(seed) +
                                   (record ? " tree" : "");
          PartitionOptions opt;
          opt.record_tree = record;
          auto got = hf_partition(ws, problem, n, opt);
          expect_same_partition(got, reference_hf(problem, n, record), what);
          if (HasFatalFailure()) return;
          ws.recycle(std::move(got));
        }
      }
    }
  }
}

// --- Theorem 2 sweep: the worst-case guarantee holds across alpha and N ---

class HfBoundSweep
    : public ::testing::TestWithParam<std::tuple<double, int, int>> {};

TEST_P(HfBoundSweep, RatioWithinTheorem2) {
  const auto [alpha_lo, n, seed] = GetParam();
  auto part =
      hf_partition(make_problem(static_cast<std::uint64_t>(seed), alpha_lo,
                                0.5),
                   n);
  EXPECT_LE(part.ratio(), hf_ratio_bound(alpha_lo) + 1e-9)
      << "alpha=" << alpha_lo << " n=" << n << " seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(
    AlphaNGrid, HfBoundSweep,
    ::testing::Combine(::testing::Values(0.05, 0.1, 0.2, 1.0 / 3.0, 0.45),
                       ::testing::Values(2, 3, 17, 64, 333, 1024),
                       ::testing::Values(1, 2, 3)));

// Worst-case distribution: every bisection is exactly (alpha, 1-alpha).
class HfAdversarialSweep : public ::testing::TestWithParam<double> {};

TEST_P(HfAdversarialSweep, PointMassStaysWithinBound) {
  const double alpha = GetParam();
  SyntheticProblem p(99, AlphaDistribution::point(alpha));
  for (int n : {2, 5, 16, 100, 512}) {
    auto part = hf_partition(p, n);
    EXPECT_LE(part.ratio(), hf_ratio_bound(alpha) + 1e-9)
        << "alpha=" << alpha << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(PointMasses, HfAdversarialSweep,
                         ::testing::Values(0.05, 0.1, 0.15, 0.2, 0.25, 0.3,
                                           1.0 / 3.0, 0.4, 0.5));

}  // namespace
}  // namespace lbb::core
