// Reproduces Figure 5 of the paper: average performance ratio of BA, BA*,
// BA-HF, HF versus log2 N for alpha-hat ~ U[0.1, 0.5], beta = 1.0.
//
// Usage:
//   lbb_bench fig5            quick mode
//   lbb_bench fig5 --full     1000 trials for every N = 2^5 ... 2^20
//   lbb_bench fig5 --threads=8  trials on 8 workers (same output bytes)
//   lbb_bench fig5 --algos=ba,hf  any registered partitioner names
//
// Expected shape (paper, Figure 5): four nearly flat series ordered
// BA > BA* > BA-HF > HF, with HF's average ratio almost constant across the
// whole range N = 32 ... 1,048,576.
#include <iostream>

#include "bench/bench_cli.hpp"
#include "bench/experiment_registry.hpp"
#include "experiments/ratio_experiment.hpp"
#include "stats/table.hpp"

int lbb::bench::run_fig5(int argc, char** argv) {
  using namespace lbb;

  const bench::Cli cli(argc, argv);
  experiments::RatioExperimentConfig config;
  config.dist = problems::AlphaDistribution::uniform(
      cli.get_double("lo", 0.1), cli.get_double("hi", 0.5));
  config.beta = cli.get_double("beta", 1.0);
  config.trials = cli.get_int32("trials", 1000);
  config.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  config.threads = cli.threads();
  config.time_limit_seconds = cli.get_double("time-limit", 0.0);
  if (const auto algos = cli.get_list("algos"); !algos.empty()) {
    config.algos = algos;
  }
  config.log2_n = {5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20};
  if (!cli.flag("full")) {
    config.bisection_budget = cli.get_int("budget", std::int64_t{1} << 23);
  }

  std::cout << "Figure 5: average ratio vs log2(N), alpha-hat ~ "
            << config.dist.describe() << ", beta = " << config.beta << "\n\n";

  const auto result = experiments::run_ratio_experiment(config);

  const auto display_of = [&](const std::string& algo) {
    return result.cell(algo, config.log2_n.front()).display;
  };

  stats::TextTable table;
  std::vector<std::string> header = {"logN"};
  for (const std::string& algo : config.algos) {
    header.push_back(display_of(algo));
  }
  table.set_header(std::move(header));
  for (const std::int32_t k : config.log2_n) {
    std::vector<std::string> row = {std::to_string(k)};
    for (const std::string& algo : config.algos) {
      row.push_back(stats::fmt(result.cell(algo, k).ratio.mean(), 3));
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout);

  const std::string csv_path = cli.get_string("csv");
  if (!csv_path.empty()) {
    experiments::write_ratio_csv(result, csv_path);
    std::cout << "\n(csv written to " << csv_path << ")\n";
  }

  // Simple ASCII rendering of the figure.
  std::cout << "\navg ratio (x = logN, each column scaled to [1, 4])\n";
  for (const std::string& algo : config.algos) {
    std::cout << display_of(algo) << "\t";
    for (const std::int32_t k : config.log2_n) {
      const double r = result.cell(algo, k).ratio.mean();
      const int height =
          std::max(0, std::min(9, static_cast<int>((r - 1.0) * 3.0)));
      std::cout << height;
    }
    std::cout << "\n";
  }
  return 0;
}
