// The batched-vs-scalar golden gate: the structure-of-arrays trial engine
// must produce BYTE-IDENTICAL results to the scalar path for every batch
// width and every thread count -- the core contract of core/batch/ (see
// batch_kernels.hpp for the identity argument).  Three layers are pinned:
//
//   1. SyntheticLaneModel::bisect vs SyntheticProblem::bisect, for every
//      distribution kind (the FP expressions must be the same
//      instructions);
//   2. run_ratio_experiment cells and CSV bytes across batch widths
//      {1, 4, 8, 16} x threads {1, 4}, including non-batchable algorithms
//      falling back to the scalar path (cells also on Table 1's and
//      Figure 5's distributions up to N = 2^14);
//   3. run_tail_study cells (RunningStats, bisections, every histogram
//      bin) across the same grid;
//   (layers 2 and 3 run a wide distribution, whose HF lanes take the walk,
//   and the narrow U[0.02, 0.04], whose HF lanes give the walk up and fall
//   back to the selection queue for the rest of the run.)
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "experiments/ratio_experiment.hpp"
#include "experiments/tail_study.hpp"
#include "problems/synthetic.hpp"
#include "problems/synthetic_lanes.hpp"

namespace lbb::experiments {
namespace {

using lbb::problems::AlphaDistribution;
using lbb::problems::SyntheticLaneModel;
using lbb::problems::SyntheticProblem;

// ---------------------------------------------------------------------------
// Layer 1: the lane model vs the scalar problem, bit for bit.

void expect_lane_model_matches(const AlphaDistribution& dist) {
  SyntheticLaneModel model(dist);
  // Walk the REAL SyntheticProblem tree (alternating heavy/light children,
  // so weights span many magnitudes) and record every visited node and its
  // true bisection -- the reference the lane model must reproduce bitwise.
  constexpr int kNodes = 256;
  std::uint64_t hash[kNodes];
  double weight[kNodes];
  std::uint64_t want_hh[kNodes], want_lh[kNodes];
  double want_hw[kNodes], want_lw[kNodes];
  SyntheticProblem node(99, dist);
  ASSERT_EQ(node.node_hash(), SyntheticProblem::root_node_hash(99));
  ASSERT_EQ(node.node_hash(), SyntheticLaneModel::root_hash(99));
  for (int i = 0; i < kNodes; ++i) {
    hash[i] = node.node_hash();
    weight[i] = node.weight();
    const auto [heavy, light] = node.bisect();
    want_hh[i] = heavy.node_hash();
    want_hw[i] = heavy.weight();
    want_lh[i] = light.node_hash();
    want_lw[i] = light.weight();
    node = (i % 2 == 0) ? heavy : light;
  }

  for (int i = 0; i < kNodes; ++i) {
    std::uint64_t hh = 0, lh = 0;
    double hw = 0.0, lw = 0.0;
    model.bisect(hash[i], weight[i], hh, hw, lh, lw);
    ASSERT_EQ(hh, want_hh[i]) << "node " << i;
    ASSERT_EQ(lh, want_lh[i]) << "node " << i;
    ASSERT_EQ(hw, want_hw[i]) << "node " << i;
    ASSERT_EQ(lw, want_lw[i]) << "node " << i;
  }
}

TEST(BatchIdentity, LaneModelBitExactUniform) {
  expect_lane_model_matches(AlphaDistribution::uniform(0.01, 0.5));
  expect_lane_model_matches(AlphaDistribution::uniform(0.3, 0.3));
}

TEST(BatchIdentity, LaneModelBitExactPoint) {
  expect_lane_model_matches(AlphaDistribution::point(0.25));
}

TEST(BatchIdentity, LaneModelBitExactTwoPoint) {
  expect_lane_model_matches(AlphaDistribution::two_point(0.1, 0.4));
}

// ---------------------------------------------------------------------------
// Layer 2: run_ratio_experiment across the (batch, threads) grid.

/// Inputs of layers 2 and 3.
const AlphaDistribution kDists[] = {AlphaDistribution::uniform(0.05, 0.5),
                                    AlphaDistribution::uniform(0.02, 0.04)};

RatioExperimentConfig ratio_config(const AlphaDistribution& dist = kDists[0]) {
  RatioExperimentConfig c;
  c.dist = dist;
  c.trials = 96;  // exercises partial chunks (96 = 3 x kTrialChunk)
  c.seed = 21;
  c.log2_n = {4, 7, 10};
  // Every batched kind plus a weight-oblivious baseline that has no
  // builtin kind: the engine must fall back to the scalar path for it
  // under ANY --batch value without disturbing the batched algos.
  c.algos = {"hf", "ba", "ba_star", "ba_hf", "oblivious:bfs"};
  c.bisection_budget = 0;
  return c;
}

/// Layer 2's large-N input: the paper's set on U[lo, 0.5] up to 2^14.
RatioExperimentConfig large_n_config(double lo) {
  RatioExperimentConfig c;
  c.dist = AlphaDistribution::uniform(lo, 0.5);
  c.trials = 16;
  c.seed = 1;
  c.log2_n = {6, 10, 14};
  c.algos = {"ba", "ba_star", "ba_hf", "hf"};
  c.bisection_budget = std::int64_t{1} << 22;
  return c;
}

void expect_ratio_results_identical(const RatioExperimentResult& a,
                                    const RatioExperimentResult& b,
                                    const std::string& what) {
  ASSERT_EQ(a.cells.size(), b.cells.size()) << what;
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    const RatioCell& x = a.cells[i];
    const RatioCell& y = b.cells[i];
    ASSERT_EQ(x.algo, y.algo) << what;
    ASSERT_EQ(x.log2_n, y.log2_n) << what;
    EXPECT_EQ(x.trials, y.trials) << what << " " << x.algo;
    EXPECT_EQ(x.bisections, y.bisections) << what << " " << x.algo;
    EXPECT_EQ(x.ratio.count(), y.ratio.count()) << what << " " << x.algo;
    EXPECT_EQ(x.ratio.mean(), y.ratio.mean())
        << what << " " << x.algo << " n=2^" << x.log2_n;
    EXPECT_EQ(x.ratio.min(), y.ratio.min()) << what << " " << x.algo;
    EXPECT_EQ(x.ratio.max(), y.ratio.max()) << what << " " << x.algo;
    EXPECT_EQ(x.ratio.stddev(), y.ratio.stddev()) << what << " " << x.algo;
  }
}

TEST(BatchIdentity, RatioCellsBitIdenticalAcrossBatchWidthsAndThreads) {
  std::vector<RatioExperimentConfig> inputs;
  for (const AlphaDistribution& dist : kDists) {
    inputs.push_back(ratio_config(dist));
  }
  inputs.push_back(large_n_config(0.01));
  inputs.push_back(large_n_config(0.1));
  for (const RatioExperimentConfig& input : inputs) {
    RatioExperimentConfig scalar = input;
    scalar.batch = 1;
    scalar.threads = 1;
    const auto reference = run_ratio_experiment(scalar);
    for (const std::int32_t batch : {1, 4, 8, 16}) {
      for (const std::int32_t threads : {1, 4}) {
        RatioExperimentConfig config = input;
        config.batch = batch;
        config.threads = threads;
        const auto result = run_ratio_experiment(config);
        expect_ratio_results_identical(
            reference, result,
            input.dist.describe() + " batch=" + std::to_string(batch) +
                " threads=" + std::to_string(threads));
      }
    }
  }
}

TEST(BatchIdentity, RatioCsvBytesIdenticalAcrossBatchWidths) {
  for (const AlphaDistribution& dist : kDists) {
    const auto csv_bytes = [&dist](std::int32_t batch) {
      RatioExperimentConfig config = ratio_config(dist);
      config.batch = batch;
      const auto result = run_ratio_experiment(config);
      const std::string path =
          "batch_identity_w" + std::to_string(batch) + ".csv";
      write_ratio_csv(result, path);
      std::ifstream in(path, std::ios::binary);
      std::ostringstream buf;
      buf << in.rdbuf();
      std::remove(path.c_str());
      return buf.str();
    };
    const std::string want = csv_bytes(1);
    ASSERT_FALSE(want.empty());
    for (const std::int32_t batch : {4, 8, 16}) {
      EXPECT_EQ(csv_bytes(batch), want)
          << dist.describe() << " batch width " << batch;
    }
  }
}

// ---------------------------------------------------------------------------
// Layer 3: run_tail_study across the same grid, down to every bin.

TailStudyConfig tail_config(const AlphaDistribution& dist = kDists[0]) {
  TailStudyConfig c;
  c.dist = dist;
  c.trials = 200;
  c.seed = 13;
  c.log2_n = {5, 8};
  c.algos = {"hf", "ba", "ba_star", "ba_hf"};
  c.bisection_budget = 0;
  c.hist_bins = 128;
  return c;
}

TEST(BatchIdentity, TailStudyCellsBitIdenticalAcrossBatchWidthsAndThreads) {
  for (const AlphaDistribution& dist : kDists) {
    TailStudyConfig scalar = tail_config(dist);
    scalar.batch = 1;
    scalar.threads = 1;
    const TailStudyResult reference = run_tail_study(scalar);
    for (const std::int32_t batch : {1, 4, 8, 16}) {
      for (const std::int32_t threads : {1, 4}) {
        TailStudyConfig config = tail_config(dist);
        config.batch = batch;
        config.threads = threads;
        const TailStudyResult result = run_tail_study(config);
        ASSERT_EQ(result.cells.size(), reference.cells.size());
        for (std::size_t i = 0; i < reference.cells.size(); ++i) {
          const TailStudyCell& x = reference.cells[i];
          const TailStudyCell& y = result.cells[i];
          const std::string what =
              dist.describe() + " " + x.algo + " n=2^" +
              std::to_string(x.log2_n) + " batch=" + std::to_string(batch) +
              " threads=" + std::to_string(threads);
          EXPECT_EQ(x.bisections, y.bisections) << what;
          EXPECT_EQ(x.ratio.mean(), y.ratio.mean()) << what;
          EXPECT_EQ(x.ratio.max(), y.ratio.max()) << what;
          EXPECT_EQ(x.tail.count(), y.tail.count()) << what;
          EXPECT_EQ(x.tail.min(), y.tail.min()) << what;
          EXPECT_EQ(x.tail.max(), y.tail.max()) << what;
          for (std::int32_t b = 0; b < x.tail.bins(); ++b) {
            ASSERT_EQ(x.tail.bin_count(b), y.tail.bin_count(b))
                << what << " bin " << b;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace lbb::experiments
