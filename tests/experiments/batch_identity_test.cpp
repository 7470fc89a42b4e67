// The max-sink identity gate: the experiment engines run the builtin
// families (HF, BA, BA', BA-HF) under the max sink, which keeps only each
// trial's heaviest piece and bisection count, and that must give
// BYTE-IDENTICAL results to full partitions at every thread count.  The
// reference runs each builtin through FullPartitions, a test-registered
// partitioner that wraps it without its typed entry, so the engine runs it
// through the erased interface and builds every piece.  Two layers are
// pinned:
//
//   1. run_ratio_experiment cells at threads {1, 4}, beside a non-builtin
//      algorithm (cells also on Table 1's and Figure 5's distributions up
//      to N = 2^14);
//   2. run_tail_study cells (RunningStats, bisections, every histogram
//      bin) across the same thread grid;
//   (both run a wide distribution, whose HF runs take the tree walk, and
//   the narrow U[0.02, 0.04], whose HF runs give the walk up and fall back
//   to the selection queue for the rest of the run.)
//
// tests/property/hf_lane_test.cpp compares the kernels themselves under
// the two sinks; RatioExperimentParallel pins CSV bytes across thread
// counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/partitioner.hpp"
#include "experiments/ratio_experiment.hpp"
#include "experiments/tail_study.hpp"

namespace lbb::experiments {
namespace {

using lbb::core::AnyProblem;
using lbb::core::Partition;
using lbb::core::Partitioner;
using lbb::core::PartitionerConfig;
using lbb::core::PartitionerInfo;
using lbb::core::PartitionerRegistry;
using lbb::core::RunContext;
using lbb::problems::AlphaDistribution;

/// A builtin family without its typed entry (builtin() is kCustom): the
/// engines run it through run(), which builds the full partition.
class FullPartitions final : public Partitioner {
 public:
  explicit FullPartitions(std::unique_ptr<Partitioner> builtin)
      : builtin_(std::move(builtin)) {}
  [[nodiscard]] const PartitionerInfo& info() const override {
    return builtin_->info();
  }
  [[nodiscard]] Partition<AnyProblem> run(RunContext& ctx, AnyProblem problem,
                                          std::int32_t n) const override {
    return builtin_->run(ctx, std::move(problem), n);
  }

 private:
  std::unique_ptr<Partitioner> builtin_;
};

/// `algos` with every builtin family replaced by its FullPartitions
/// wrapper ("full:<name>", registered on use).
std::vector<std::string> full_partitions(
    const std::vector<std::string>& algos) {
  auto& registry = PartitionerRegistry::instance();
  std::vector<std::string> out;
  for (const std::string& name : algos) {
    if (name != "hf" && name != "ba" && name != "ba_star" && name != "ba_hf") {
      out.push_back(name);  // already runs as full partitions
      continue;
    }
    const std::string wrapped = "full:" + name;
    registry.add({wrapped, name, "builtin without its typed entry"},
                 [name](const PartitionerConfig& config) {
                   return std::make_unique<FullPartitions>(
                       PartitionerRegistry::instance().create(name, config));
                 });
    out.push_back(wrapped);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Layer 1: run_ratio_experiment against full partitions.

/// Inputs of both layers.
const AlphaDistribution kDists[] = {AlphaDistribution::uniform(0.05, 0.5),
                                    AlphaDistribution::uniform(0.02, 0.04)};

RatioExperimentConfig ratio_config(const AlphaDistribution& dist = kDists[0]) {
  RatioExperimentConfig c;
  c.dist = dist;
  c.trials = 96;  // exercises partial chunks (96 = 3 x kTrialChunk)
  c.seed = 21;
  c.log2_n = {4, 7, 10};
  // Every max-sink family plus a weight-oblivious baseline, which the
  // engine runs as full partitions beside them.
  c.algos = {"hf", "ba", "ba_star", "ba_hf", "oblivious:bfs"};
  c.bisection_budget = 0;
  return c;
}

/// Layer 1's large-N input: the paper's set on U[lo, 0.5] up to 2^14.
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
    ASSERT_EQ(x.log2_n, y.log2_n) << what;
    EXPECT_EQ(x.trials, y.trials) << what << " " << y.algo;
    EXPECT_EQ(x.bisections, y.bisections) << what << " " << y.algo;
    EXPECT_EQ(x.ratio.count(), y.ratio.count()) << what << " " << y.algo;
    EXPECT_EQ(x.ratio.mean(), y.ratio.mean())
        << what << " " << y.algo << " n=2^" << x.log2_n;
    EXPECT_EQ(x.ratio.min(), y.ratio.min()) << what << " " << y.algo;
    EXPECT_EQ(x.ratio.max(), y.ratio.max()) << what << " " << y.algo;
    EXPECT_EQ(x.ratio.stddev(), y.ratio.stddev()) << what << " " << y.algo;
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
    RatioExperimentConfig full = input;
    full.algos = full_partitions(input.algos);
    full.threads = 1;
    const auto reference = run_ratio_experiment(full);
    for (const std::int32_t threads : {1, 4}) {
      RatioExperimentConfig config = input;
      config.threads = threads;
      const auto result = run_ratio_experiment(config);
      expect_ratio_results_identical(
          reference, result,
          input.dist.describe() + " threads=" + std::to_string(threads));
    }
  }
}

// ---------------------------------------------------------------------------
// Layer 2: run_tail_study against full partitions, down to every bin.

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
    TailStudyConfig full = tail_config(dist);
    full.algos = full_partitions(full.algos);
    full.threads = 1;
    const TailStudyResult reference = run_tail_study(full);
    for (const std::int32_t threads : {1, 4}) {
      TailStudyConfig config = tail_config(dist);
      config.threads = threads;
      const TailStudyResult result = run_tail_study(config);
      ASSERT_EQ(result.cells.size(), reference.cells.size());
      for (std::size_t i = 0; i < reference.cells.size(); ++i) {
        const TailStudyCell& x = reference.cells[i];
        const TailStudyCell& y = result.cells[i];
        const std::string what = dist.describe() + " " + y.algo + " n=2^" +
                                 std::to_string(x.log2_n) +
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

}  // namespace
}  // namespace lbb::experiments
