// Reproduces the Section-4 interval study: behaviour of the observed ratio
// across different alpha-hat supports [lo, hi], including the narrow
// [alpha, 2*alpha] intervals the paper singles out.
//
// Usage: interval_sweep [--full] [--trials=N] [--threads=K]
//
// Expected shapes (paper):
//   * the sample variance is very small except for narrow [alpha, 2 alpha]
//     intervals with small alpha;
//   * HF's average ratio is almost independent of N, except when the
//     interval is very narrow (width < 0.1);
//   * for a fixed interval the three algorithms' ratios differ by no more
//     than about a factor 3.
#include <iostream>

#include "bench/bench_cli.hpp"
#include "bench/experiment_registry.hpp"
#include "experiments/ratio_experiment.hpp"
#include "stats/table.hpp"

int lbb::bench::run_interval_sweep(int argc, char** argv) {
  using namespace lbb;
  const bench::Cli cli(argc, argv);
  struct Interval {
    double lo, hi;
  };
  const std::vector<Interval> intervals = {
      {0.01, 0.5}, {0.1, 0.5}, {0.25, 0.5}, {0.4, 0.5},  // wide-ish
      {0.05, 0.1}, {0.02, 0.04}, {0.2, 0.4},             // [alpha, 2alpha]
      {0.3, 0.35},                                       // narrow, large a
  };
  const std::vector<std::int32_t> log2_n = {6, 10, 14};

  stats::TextTable table;
  table.set_header({"interval", "algo", "avg(2^6)", "avg(2^10)", "avg(2^14)",
                    "stddev(2^14)", "max/min algo-spread(2^14)"});

  for (const Interval& interval : intervals) {
    experiments::RatioExperimentConfig config;
    config.dist =
        problems::AlphaDistribution::uniform(interval.lo, interval.hi);
    config.trials = cli.get_int32("trials", 200);
    config.seed = static_cast<std::uint64_t>(cli.get_int("seed", 11));
    config.threads = cli.threads();
    config.log2_n = log2_n;
    config.algos = {"ba", "ba_hf", "hf"};
    if (!cli.flag("full")) {
      config.bisection_budget = std::int64_t{1} << 22;
    }
    const auto result = experiments::run_ratio_experiment(config);

    double best = 1e300;
    double worst = 0.0;
    for (const auto& algo : config.algos) {
      const double avg = result.cell(algo, 14).ratio.mean();
      best = std::min(best, avg);
      worst = std::max(worst, avg);
    }
    table.add_separator();
    for (const auto& algo : config.algos) {
      table.add_row(
          {config.dist.describe(), result.cell(algo, 6).display,
           stats::fmt(result.cell(algo, 6).ratio.mean(), 3),
           stats::fmt(result.cell(algo, 10).ratio.mean(), 3),
           stats::fmt(result.cell(algo, 14).ratio.mean(), 3),
           stats::fmt(result.cell(algo, 14).ratio.stddev(), 4),
           algo == "hf" ? stats::fmt(worst / best, 2) : ""});
    }
  }
  std::cout << "Interval study: average ratio and spread per alpha-hat "
               "support\n\n";
  table.print(std::cout);
  return 0;
}
