// Tests for the simulated parallel executions of BA / BA' / BA-HF
// (Section 3.2-3.4).
#include "sim/par_ba.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/ba.hpp"
#include "core/ba_hf.hpp"
#include "core/bounds.hpp"
#include "problems/alpha_dist.hpp"
#include "problems/synthetic.hpp"

namespace lbb::sim {
namespace {

using lbb::problems::AlphaDistribution;
using lbb::problems::SyntheticProblem;

/// Expects the simulator's partition to be core's: every piece in order
/// (weight, processor, depth, tree node), the counters and every recorded
/// tree node.
template <typename P>
void expect_same_partition(const lbb::core::Partition<P>& sim,
                           const lbb::core::Partition<P>& core) {
  EXPECT_EQ(sim.bisections, core.bisections);
  EXPECT_EQ(sim.max_depth, core.max_depth);
  ASSERT_EQ(sim.pieces.size(), core.pieces.size());
  for (std::size_t i = 0; i < core.pieces.size(); ++i) {
    EXPECT_EQ(sim.pieces[i].weight, core.pieces[i].weight) << "piece " << i;
    EXPECT_EQ(sim.pieces[i].processor, core.pieces[i].processor)
        << "piece " << i;
    EXPECT_EQ(sim.pieces[i].depth, core.pieces[i].depth) << "piece " << i;
    EXPECT_EQ(sim.pieces[i].node, core.pieces[i].node) << "piece " << i;
  }
  ASSERT_FALSE(core.tree.empty());
  ASSERT_EQ(sim.tree.size(), core.tree.size());
  for (std::size_t id = 0; id < core.tree.size(); ++id) {
    const auto& a = sim.tree.node(static_cast<lbb::core::NodeId>(id));
    const auto& b = core.tree.node(static_cast<lbb::core::NodeId>(id));
    EXPECT_EQ(a.weight, b.weight) << "node " << id;
    EXPECT_EQ(a.parent, b.parent) << "node " << id;
    EXPECT_EQ(a.left, b.left) << "node " << id;
    EXPECT_EQ(a.right, b.right) << "node " << id;
    EXPECT_EQ(a.depth, b.depth) << "node " << id;
  }
}

lbb::core::PartitionOptions recording() {
  lbb::core::PartitionOptions opt;
  opt.record_tree = true;
  return opt;
}

TEST(SimBa, MatchesCorePartitionExactly) {
  for (std::uint64_t seed : {1ULL, 5ULL, 9ULL}) {
    for (double lo : {0.01, 0.1, 0.3}) {
      SyntheticProblem p(seed, AlphaDistribution::uniform(lo, 0.5));
      for (int n : {1, 2, 3, 7, 64, 500}) {
        SCOPED_TRACE("seed=" + std::to_string(seed) +
                     " lo=" + std::to_string(lo) + " n=" + std::to_string(n));
        const auto sim = ba_simulate(p, n, CostModel{}, recording());
        // Same pieces on the same processors (range-based management).
        expect_same_partition(sim.partition,
                              lbb::core::ba_partition(p, n, recording()));
      }
    }
  }
}

TEST(SimBa, ZeroGlobalCommunication) {
  // The paper's headline for BA: no global communication at all.
  SyntheticProblem p(2, AlphaDistribution::uniform(0.05, 0.5));
  for (int n : {2, 64, 2048}) {
    const auto sim = ba_simulate(p, n);
    EXPECT_EQ(sim.metrics.collective_ops, 0) << "n=" << n;
  }
}

TEST(SimBa, MessagesEqualBisections) {
  SyntheticProblem p(3, AlphaDistribution::uniform(0.1, 0.5));
  const auto sim = ba_simulate(p, 256);
  EXPECT_EQ(sim.metrics.messages, 255);
  EXPECT_EQ(sim.metrics.bisections, 255);
}

TEST(SimBa, MakespanIsLogarithmic) {
  const double alpha = 0.25;
  SyntheticProblem p(4, AlphaDistribution::uniform(alpha, 0.5));
  const double m10 = ba_simulate(p, 1 << 10).metrics.makespan;
  const double m16 = ba_simulate(p, 1 << 16).metrics.makespan;
  // Depth bound: log_{1/(1-alpha/2)} N levels, each costing
  // t_bisect + t_send = 2.
  const double bound16 =
      2.0 * lbb::core::ba_depth_bound(alpha, 1 << 16);
  EXPECT_LE(m16, bound16);
  EXPECT_LT(m16, m10 * 4.0);  // far from linear growth (64x)
  EXPECT_GT(m16, m10);
}

TEST(SimBa, SingleProcessor) {
  SyntheticProblem p(5, AlphaDistribution::uniform(0.1, 0.5));
  const auto sim = ba_simulate(p, 1);
  EXPECT_DOUBLE_EQ(sim.metrics.makespan, 0.0);
  EXPECT_EQ(sim.partition.pieces.size(), 1u);
}

TEST(SimBaStar, MatchesCoreBaStar) {
  for (double alpha : {0.01, 0.1, 0.3}) {
    for (std::uint64_t seed : {6ULL, 7ULL}) {
      SyntheticProblem p(seed, AlphaDistribution::uniform(alpha, 0.5));
      for (int n : {1, 8, 128, 1024}) {
        SCOPED_TRACE("alpha=" + std::to_string(alpha) +
                     " seed=" + std::to_string(seed) +
                     " n=" + std::to_string(n));
        const auto sim = ba_star_simulate(p, n, alpha, CostModel{},
                                          recording());
        expect_same_partition(
            sim.partition,
            lbb::core::ba_star_partition(p, n, alpha, recording()));
        EXPECT_EQ(sim.metrics.collective_ops, 0);
      }
    }
  }
}

TEST(SimBaStar, FasterThanFullBa) {
  // Pruning can only shorten the critical path.
  const double alpha = 0.05;
  SyntheticProblem p(7, AlphaDistribution::uniform(alpha, 0.5));
  const auto star = ba_star_simulate(p, 4096, alpha);
  const auto full = ba_simulate(p, 4096);
  EXPECT_LE(star.metrics.makespan, full.metrics.makespan);
  EXPECT_LT(star.metrics.messages, full.metrics.messages);
}

TEST(SimBaHf, MatchesCoreBaHf) {
  const double alpha = 0.1;
  for (double beta : {0.5, 1.0, 3.0}) {
    for (std::uint64_t seed : {11ULL, 13ULL}) {
      SyntheticProblem p(seed, AlphaDistribution::uniform(alpha, 0.5));
      for (int n : {1, 2, 3, 16, 128, 777}) {
        SCOPED_TRACE("beta=" + std::to_string(beta) +
                     " seed=" + std::to_string(seed) +
                     " n=" + std::to_string(n));
        const auto sim =
            ba_hf_simulate(p, n, alpha, beta, CostModel{}, recording());
        expect_same_partition(
            sim.partition,
            lbb::core::ba_hf_partition(
                p, n, lbb::core::BaHfParams{alpha, beta}, recording()));
      }
    }
  }
}

TEST(SimBaHf, ZeroCollectivesWithSequentialSecondPhase) {
  SyntheticProblem p(8, AlphaDistribution::uniform(0.2, 0.5));
  const auto sim = ba_hf_simulate(p, 512, 0.2, 1.0);
  EXPECT_EQ(sim.metrics.collective_ops, 0);
  EXPECT_EQ(sim.metrics.messages, 511);
}

TEST(SimBaHf, MakespanLogarithmicPlusConstant) {
  // For fixed alpha and beta, BA-HF's leaf phase adds O(beta/alpha) time;
  // total stays O(log N).
  const double alpha = 0.2;
  SyntheticProblem p(9, AlphaDistribution::uniform(alpha, 0.5));
  const double m10 = ba_hf_simulate(p, 1 << 10, alpha, 2.0).metrics.makespan;
  const double m16 = ba_hf_simulate(p, 1 << 16, alpha, 2.0).metrics.makespan;
  EXPECT_LT(m16, m10 * 4.0);
}

TEST(SimBaHf, LargerBetaMeansLongerLeafPhase) {
  // beta controls the switch point: a larger beta hands bigger chunks to
  // sequential HF, so the makespan cannot shrink.
  const double alpha = 0.1;
  SyntheticProblem p(10, AlphaDistribution::uniform(alpha, 0.5));
  const double m_small = ba_hf_simulate(p, 4096, alpha, 0.5).metrics.makespan;
  const double m_large = ba_hf_simulate(p, 4096, alpha, 4.0).metrics.makespan;
  EXPECT_LE(m_small, m_large);
}

TEST(SimCost, SendCostInflatesMakespan) {
  SyntheticProblem p(11, AlphaDistribution::uniform(0.1, 0.5));
  CostModel cheap;
  cheap.t_send = 0.0;
  CostModel expensive;
  expensive.t_send = 5.0;
  const auto a = ba_simulate(p, 1024, cheap);
  const auto b = ba_simulate(p, 1024, expensive);
  EXPECT_LT(a.metrics.makespan, b.metrics.makespan);
  EXPECT_EQ(a.partition.sorted_weights(), b.partition.sorted_weights());
}

TEST(SimCost, CollectiveCostFormulas) {
  CostModel cm;
  EXPECT_DOUBLE_EQ(cm.collective_cost(1), 0.0);
  EXPECT_DOUBLE_EQ(cm.collective_cost(2), 1.0);
  EXPECT_DOUBLE_EQ(cm.collective_cost(1024), 10.0);
  EXPECT_DOUBLE_EQ(cm.collective_cost(1025), 11.0);
  cm.collective = CostModel::Collective::kConstant;
  EXPECT_DOUBLE_EQ(cm.collective_cost(1 << 20), 1.0);
  cm.collective = CostModel::Collective::kSqrt;
  EXPECT_DOUBLE_EQ(cm.collective_cost(100), 10.0);
  EXPECT_THROW(static_cast<void>(cm.collective_cost(0)), std::invalid_argument);
}

}  // namespace
}  // namespace lbb::sim

// Appended: tests for the PHF-second-phase variant of BA-HF.
namespace lbb::sim {
namespace {

using lbb::problems::AlphaDistribution;
using lbb::problems::SyntheticProblem;

TEST(SimBaHfPhf, SamePartitionAsSequentialVariant) {
  const double alpha = 0.1;
  const double beta = 2.0;
  for (std::uint64_t seed : {21ULL, 22ULL}) {
    SyntheticProblem p(seed, AlphaDistribution::uniform(alpha, 0.5));
    for (int n : {4, 64, 333}) {
      const auto seq = ba_hf_simulate(p, n, alpha, beta);
      const auto phf = ba_hf_simulate(p, n, alpha, beta, CostModel{}, {},
                                      nullptr, BaHfSecondPhase::kPhf);
      EXPECT_EQ(seq.partition.sorted_weights(),
                phf.partition.sorted_weights())
          << "seed=" << seed << " n=" << n;
      EXPECT_EQ(seq.metrics.messages, phf.metrics.messages);
    }
  }
}

TEST(SimBaHfPhf, UsesCollectivesInSmallRanges) {
  SyntheticProblem p(23, AlphaDistribution::uniform(0.05, 0.5));
  const auto r = ba_hf_simulate(p, 1024, 0.05, 3.0, CostModel{}, {}, nullptr,
                                BaHfSecondPhase::kPhf);
  EXPECT_GT(r.metrics.collective_ops, 0);
  EXPECT_TRUE(r.partition.validate());
}

TEST(SimBaHfPhf, CollectivesScopedToRangesAreCheap) {
  // The PHF sub-runs pay collectives over their *range* (< beta/alpha + 1
  // processors), not over the whole machine: with log-cost collectives the
  // per-op cost is about log2(beta/alpha), so the makespan stays O(log N).
  const double alpha = 0.1;
  SyntheticProblem p(24, AlphaDistribution::uniform(alpha, 0.5));
  const double m10 = ba_hf_simulate(p, 1 << 10, alpha, 2.0, CostModel{}, {},
                                    nullptr, BaHfSecondPhase::kPhf)
                         .metrics.makespan;
  const double m16 = ba_hf_simulate(p, 1 << 16, alpha, 2.0, CostModel{}, {},
                                    nullptr, BaHfSecondPhase::kPhf)
                         .metrics.makespan;
  EXPECT_LT(m16, m10 * 4.0);
}

}  // namespace
}  // namespace lbb::sim
