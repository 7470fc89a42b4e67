// Reproduces Table 1 of the paper: worst-case upper bounds (ub) and the
// observed minimum / average / maximum performance ratios for
// alpha-hat ~ U[0.01, 0.5], beta = 1.0, over N = 2^5 ... 2^20.
//
// Usage:
//   lbb_bench table1                quick mode (reduced trials for huge N)
//   lbb_bench table1 --full         paper-faithful: 1000 trials everywhere
//   lbb_bench table1 --trials=200 --seed=9 --lo=0.01 --hi=0.5 --beta=1.0
//   lbb_bench table1 --threads=8    trials on 8 workers (same output bytes)
//   lbb_bench table1 --algos=hf,oblivious:random   any registered names
//   lbb_bench table1 --time-limit=30               abort after 30 seconds
//
// Expected shape (paper, Table 1): observed ratios far below the ub rows;
// HF smallest, BA-HF between, BA/BA* largest; HF's average almost constant
// in N.
#include <iostream>

#include "bench/bench_cli.hpp"
#include "bench/experiment_registry.hpp"
#include "experiments/ratio_experiment.hpp"
#include "stats/table.hpp"

int lbb::bench::run_table1(int argc, char** argv) {
  using namespace lbb;

  const bench::Cli cli(argc, argv);
  experiments::RatioExperimentConfig config;
  config.dist = problems::AlphaDistribution::uniform(
      cli.get_double("lo", 0.01), cli.get_double("hi", 0.5));
  config.beta = cli.get_double("beta", 1.0);
  config.trials = cli.get_int32("trials", 1000);
  config.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  config.threads = cli.threads();
  config.time_limit_seconds = cli.get_double("time-limit", 0.0);
  if (const auto algos = cli.get_list("algos"); !algos.empty()) {
    config.algos = algos;
  }
  config.log2_n = {5, 8, 11, 14, 17, 20};
  if (cli.flag("full")) {
    config.log2_n = {5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
                     20};
    config.bisection_budget = 0;
  } else {
    // Keep the default run short: cap the per-cell work; the sample
    // variance in this model is tiny (see the paper), so means are stable.
    config.bisection_budget = cli.get_int("budget", std::int64_t{1} << 24);
  }

  std::cout << "Table 1: alpha-hat ~ " << config.dist.describe()
            << ", beta = " << config.beta << ", trials <= " << config.trials
            << (config.bisection_budget > 0 ? " (budget-capped)" : "")
            << "\n\n";

  const auto result = experiments::run_ratio_experiment(config);

  stats::TextTable table;
  std::vector<std::string> header = {"algo", "row"};
  for (const std::int32_t k : config.log2_n) {
    header.push_back("logN=" + std::to_string(k));
  }
  table.set_header(std::move(header));

  for (const std::string& algo : config.algos) {
    table.add_separator();
    const std::string& display =
        result.cell(algo, config.log2_n.front()).display;
    auto add = [&](const char* row_name, auto getter) {
      std::vector<std::string> row = {display, row_name};
      for (const std::int32_t k : config.log2_n) {
        row.push_back(stats::fmt(getter(result.cell(algo, k)), 3));
      }
      table.add_row(std::move(row));
    };
    add("ub", [](const experiments::RatioCell& c) { return c.upper_bound; });
    add("min", [](const experiments::RatioCell& c) { return c.ratio.min(); });
    add("avg", [](const experiments::RatioCell& c) { return c.ratio.mean(); });
    add("max", [](const experiments::RatioCell& c) { return c.ratio.max(); });
  }
  table.print(std::cout);

  const std::string csv_path = cli.get_string("csv");
  if (!csv_path.empty()) {
    experiments::write_ratio_csv(result, csv_path);
    std::cout << "\n(csv written to " << csv_path << ")\n";
  }
  std::cout << "\ntrials per cell:";
  for (const std::int32_t k : config.log2_n) {
    std::cout << "  logN=" << k << ":"
              << result.cell(config.algos.front(), k).trials;
  }
  std::cout << "\n";
  return 0;
}
