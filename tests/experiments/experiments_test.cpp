// Tests for the Section-4 experiment harness (ratio + timing experiments).
#include <gtest/gtest.h>

#include "core/partitioner.hpp"
#include "core/run_context.hpp"
#include "experiments/ratio_experiment.hpp"
#include "experiments/timing_experiment.hpp"

namespace lbb::experiments {
namespace {

RatioExperimentConfig small_config() {
  RatioExperimentConfig c;
  c.dist = lbb::problems::AlphaDistribution::uniform(0.1, 0.5);
  c.log2_n = {5, 8};
  c.trials = 50;
  c.seed = 3;
  return c;
}

TEST(RatioExperiment, ProducesAllCells) {
  const auto result = run_ratio_experiment(small_config());
  EXPECT_EQ(result.cells.size(), 4u * 2u);
  for (const char* algo : {"ba", "ba_star", "ba_hf", "hf"}) {
    for (const int k : {5, 8}) {
      const auto& cell = result.cell(algo, k);
      EXPECT_EQ(cell.trials, 50);
      EXPECT_EQ(cell.ratio.count(), 50u);
      EXPECT_GE(cell.ratio.min(), 1.0);
      EXPECT_GT(cell.upper_bound, 1.0);
    }
  }
  EXPECT_THROW(static_cast<void>(result.cell("hf", 9)), std::out_of_range);
}

TEST(RatioExperiment, DeterministicInSeed) {
  const auto a = run_ratio_experiment(small_config());
  const auto b = run_ratio_experiment(small_config());
  EXPECT_DOUBLE_EQ(a.cell("hf", 8).ratio.mean(),
                   b.cell("hf", 8).ratio.mean());
  auto other = small_config();
  other.seed = 4;
  const auto c = run_ratio_experiment(other);
  EXPECT_NE(a.cell("hf", 8).ratio.mean(),
            c.cell("hf", 8).ratio.mean());
}

TEST(RatioExperiment, ObservedAlwaysWithinUpperBound) {
  auto config = small_config();
  config.dist = lbb::problems::AlphaDistribution::uniform(0.05, 0.5);
  const auto result = run_ratio_experiment(config);
  for (const auto& cell : result.cells) {
    EXPECT_LE(cell.ratio.max(), cell.upper_bound + 1e-9)
        << cell.algo << " logN=" << cell.log2_n;
  }
}

TEST(RatioExperiment, PaperOrderingHfBest) {
  // Section 4: "the balancing quality was the best for Algorithm HF and the
  // worst for Algorithm BA in all experiments".
  const auto result = run_ratio_experiment(small_config());
  for (const int k : {5, 8}) {
    const double hf = result.cell("hf", k).ratio.mean();
    const double ba_hf = result.cell("ba_hf", k).ratio.mean();
    const double ba = result.cell("ba", k).ratio.mean();
    EXPECT_LE(hf, ba_hf);
    EXPECT_LE(ba_hf, ba);
  }
}

TEST(RatioExperiment, BudgetCapsTrials) {
  auto config = small_config();
  config.bisection_budget = 32 * 10;  // only 10 trials at N=32
  config.min_trials = 2;
  const auto result = run_ratio_experiment(config);
  EXPECT_EQ(result.cell("hf", 5).trials, 10);
  EXPECT_EQ(result.cell("hf", 8).trials, 2);  // clamped to min_trials
  // A budget above 2^31 * N caps nothing: the cap is compared with the
  // trial count in 64 bits, before it could wrap.
  config.bisection_budget = 100'000'000'000;
  config.trials = 10;
  const auto uncapped = run_ratio_experiment(config);
  for (const RatioCell& cell : uncapped.cells) {
    EXPECT_EQ(cell.trials, 10) << cell.algo << " n=2^" << cell.log2_n;
  }
}

TEST(RatioExperiment, RejectsBadConfig) {
  auto config = small_config();
  config.trials = 0;
  EXPECT_THROW(run_ratio_experiment(config), std::invalid_argument);
  config = small_config();
  config.log2_n = {-1};
  EXPECT_THROW(run_ratio_experiment(config), std::invalid_argument);
}

TEST(TimingExperiment, ParallelBeatsSequentialAtScale) {
  TimingExperimentConfig config;
  config.log2_n = {6, 12};
  config.trials = 5;
  const auto result = run_timing_experiment(config);
  // At N = 2^12 every parallel algorithm must be far faster than
  // sequential HF (Theta(N) vs O(log N)).
  const double seq = result.cell(ParAlgo::kSeqHF, 12).makespan.mean();
  for (const auto algo : {ParAlgo::kPHFOracle, ParAlgo::kPHFBaPrime,
                          ParAlgo::kBA, ParAlgo::kBAHF}) {
    EXPECT_LT(result.cell(algo, 12).makespan.mean(), seq / 4.0)
        << par_algo_name(algo);
  }
}

TEST(TimingExperiment, BaNeedsNoCollectives) {
  TimingExperimentConfig config;
  config.log2_n = {8};
  config.trials = 3;
  const auto result = run_timing_experiment(config);
  EXPECT_DOUBLE_EQ(result.cell(ParAlgo::kBA, 8).collective_ops.mean(), 0.0);
  EXPECT_DOUBLE_EQ(result.cell(ParAlgo::kBAHF, 8).collective_ops.mean(), 0.0);
  EXPECT_GT(result.cell(ParAlgo::kPHFOracle, 8).collective_ops.mean(), 0.0);
}

TEST(TimingExperiment, SequentialTimeFormula) {
  lbb::sim::CostModel cm;
  EXPECT_DOUBLE_EQ(sequential_hf_time(1, cm), 0.0);
  EXPECT_DOUBLE_EQ(sequential_hf_time(5, cm), 8.0);
  cm.t_send = 0.5;
  EXPECT_DOUBLE_EQ(sequential_hf_time(3, cm), 3.0);
}

TEST(AlgoNames, Strings) {
  // The paper's table labels are the registry's display names.
  const auto& registry = lbb::core::PartitionerRegistry::instance();
  EXPECT_EQ(registry.create("ba")->info().display, "BA");
  EXPECT_EQ(registry.create("ba_star")->info().display, "BA*");
  EXPECT_EQ(registry.create("ba_hf")->info().display, "BA-HF");
  EXPECT_EQ(registry.create("hf")->info().display, "HF");
  EXPECT_STREQ(par_algo_name(ParAlgo::kPHFOracle), "PHF(oracle)");
  EXPECT_STREQ(par_algo_name(ParAlgo::kSeqHF), "HF(seq)");
}

}  // namespace
}  // namespace lbb::experiments

// Appended: the randomized-probe manager in the timing experiment.
namespace lbb::experiments {
namespace {

TEST(TimingExperiment, ProbeManagerAtLeastAsSlowAsOracle) {
  TimingExperimentConfig config;
  config.log2_n = {10};
  config.trials = 4;
  config.algos = {ParAlgo::kPHFOracle, ParAlgo::kPHFProbe};
  const auto result = run_timing_experiment(config);
  EXPECT_GE(result.cell(ParAlgo::kPHFProbe, 10).makespan.mean(),
            result.cell(ParAlgo::kPHFOracle, 10).makespan.mean() - 1e-9);
}

}  // namespace
}  // namespace lbb::experiments

// Appended: determinism of the parallel trial engine across thread counts.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

namespace lbb::experiments {
namespace {

RatioExperimentConfig threaded_config(std::int32_t threads) {
  RatioExperimentConfig c;
  c.dist = lbb::problems::AlphaDistribution::uniform(0.1, 0.5);
  c.log2_n = {5, 8, 10};
  c.trials = 70;  // spans multiple kTrialChunk chunks plus a partial one
  c.seed = 17;
  c.threads = threads;
  return c;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(RatioExperimentParallel, CellStatsBitIdenticalAcrossThreadCounts) {
  const auto base = run_ratio_experiment(threaded_config(1));
  for (const std::int32_t threads : {2, 8}) {
    const auto result = run_ratio_experiment(threaded_config(threads));
    ASSERT_EQ(result.cells.size(), base.cells.size()) << threads;
    for (std::size_t i = 0; i < base.cells.size(); ++i) {
      const auto& want = base.cells[i];
      const auto& got = result.cells[i];
      EXPECT_EQ(got.algo, want.algo);
      EXPECT_EQ(got.log2_n, want.log2_n);
      EXPECT_EQ(got.trials, want.trials);
      EXPECT_EQ(got.bisections, want.bisections);
      // Exact (==) comparisons: the contract is bit-identical, not "close".
      EXPECT_EQ(got.ratio.count(), want.ratio.count());
      EXPECT_EQ(got.ratio.mean(), want.ratio.mean());
      EXPECT_EQ(got.ratio.variance(), want.ratio.variance());
      EXPECT_EQ(got.ratio.min(), want.ratio.min());
      EXPECT_EQ(got.ratio.max(), want.ratio.max());
    }
  }
}

TEST(RatioExperimentParallel, CsvBytesIdenticalAcrossThreadCounts) {
  const std::string dir = ::testing::TempDir();
  const std::string path1 = dir + "/lbb_ratio_t1.csv";
  const std::string path8 = dir + "/lbb_ratio_t8.csv";
  write_ratio_csv(run_ratio_experiment(threaded_config(1)), path1);
  write_ratio_csv(run_ratio_experiment(threaded_config(8)), path8);
  const std::string bytes1 = slurp(path1);
  const std::string bytes8 = slurp(path8);
  ASSERT_FALSE(bytes1.empty());
  EXPECT_EQ(bytes1, bytes8);
  std::remove(path1.c_str());
  std::remove(path8.c_str());
}

TEST(RatioExperimentParallel, HardwareThreadsKnobAccepted) {
  auto config = threaded_config(0);  // 0 = one worker per hardware thread
  config.log2_n = {5};
  config.trials = 40;
  const auto result = run_ratio_experiment(config);
  const auto base = run_ratio_experiment([] {
    auto c = threaded_config(1);
    c.log2_n = {5};
    c.trials = 40;
    return c;
  }());
  EXPECT_EQ(result.cell("hf", 5).ratio.mean(),
            base.cell("hf", 5).ratio.mean());
  EXPECT_THROW(run_ratio_experiment(threaded_config(-2)),
               std::invalid_argument);
}

TEST(RatioExperimentParallel, PerfCountersPopulated) {
  const auto result = run_ratio_experiment(threaded_config(2));
  for (const auto& cell : result.cells) {
    // BA, BA-HF and HF perform exactly 2^k - 1 bisections per trial; BA'
    // prunes at the HF phase-1 threshold, so it may stop earlier.
    const std::int64_t full =
        static_cast<std::int64_t>(cell.trials) *
        ((std::int64_t{1} << cell.log2_n) - 1);
    if (cell.algo == "ba_star") {
      EXPECT_GT(cell.bisections, 0);
      EXPECT_LE(cell.bisections, full);
    } else {
      EXPECT_EQ(cell.bisections, full)
          << cell.algo << " logN=" << cell.log2_n;
    }
  }
}

TEST(RatioExperiment, UnknownAlgoRejectedBeforeAnyTrialRuns) {
  auto config = threaded_config(1);
  config.algos = {"hf", "definitely_not_registered"};
  EXPECT_THROW(run_ratio_experiment(config),
               lbb::core::UnknownPartitionerError);
}

TEST(RatioExperiment, PreCancelledTokenAbortsRun) {
  auto config = threaded_config(2);
  lbb::core::CancelToken token;
  token.cancel();
  config.cancel = &token;
  EXPECT_THROW(run_ratio_experiment(config), lbb::core::OperationCancelled);
}

TEST(TimingExperiment, PreCancelledTokenAbortsRun) {
  TimingExperimentConfig config;
  config.log2_n = {6};
  config.trials = 3;
  lbb::core::CancelToken token;
  token.cancel();
  config.cancel = &token;
  EXPECT_THROW(run_timing_experiment(config), lbb::core::OperationCancelled);
}

TEST(TimingExperimentParallel, CellStatsBitIdenticalAcrossThreadCounts) {
  TimingExperimentConfig base_config;
  base_config.log2_n = {6, 10};
  base_config.trials = 40;
  base_config.threads = 1;
  const auto base = run_timing_experiment(base_config);
  for (const std::int32_t threads : {2, 8}) {
    auto config = base_config;
    config.threads = threads;
    const auto result = run_timing_experiment(config);
    ASSERT_EQ(result.cells.size(), base.cells.size());
    for (std::size_t i = 0; i < base.cells.size(); ++i) {
      const auto& want = base.cells[i];
      const auto& got = result.cells[i];
      EXPECT_EQ(got.makespan.mean(), want.makespan.mean());
      EXPECT_EQ(got.makespan.variance(), want.makespan.variance());
      EXPECT_EQ(got.messages.mean(), want.messages.mean());
      EXPECT_EQ(got.collective_ops.mean(), want.collective_ops.mean());
      EXPECT_EQ(got.phase2_iterations.max(), want.phase2_iterations.max());
    }
  }
}

}  // namespace
}  // namespace lbb::experiments
