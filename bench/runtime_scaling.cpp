// Reproduces the running-time / communication claims of Section 3 and the
// comparison table implicit in Section 5:
//
//   * sequential HF needs Theta(N) time;
//   * PHF, BA, BA-HF all run in O(log N) for fixed alpha (Theorems 3/7/8);
//   * PHF needs global communication in every phase-2 iteration and a
//     costly free-processor manager; BA needs none at all.
//
// Usage: runtime_scaling [--trials=N] [--lo=0.1 --hi=0.5] [--beta=1.0]
//                        [--collective=log|const|sqrt]
#include <iostream>
#include <string>

#include "bench/bench_cli.hpp"
#include "bench/experiment_registry.hpp"
#include "experiments/timing_experiment.hpp"
#include "stats/table.hpp"

int lbb::bench::run_runtime_scaling(int argc, char** argv) {
  using namespace lbb;
  using experiments::ParAlgo;

  const bench::Cli cli(argc, argv);
  experiments::TimingExperimentConfig config;
  config.dist = problems::AlphaDistribution::uniform(
      cli.get_double("lo", 0.1), cli.get_double("hi", 0.5));
  config.beta = cli.get_double("beta", 1.0);
  config.trials = cli.get_int32("trials", 20);
  config.log2_n = {5, 8, 11, 14, 17};

  std::cout << "Simulated parallel time and communication, alpha-hat ~ "
            << config.dist.describe()
            << " (t_bisect = t_send = 1, collectives ~ log2 N)\n\n";

  const auto result = experiments::run_timing_experiment(config);

  stats::TextTable table;
  std::vector<std::string> header = {"algo", "metric"};
  for (const auto k : config.log2_n) {
    header.push_back("logN=" + std::to_string(k));
  }
  table.set_header(std::move(header));

  for (const ParAlgo algo : config.algos) {
    table.add_separator();
    auto add = [&](const char* metric, auto getter) {
      std::vector<std::string> row = {experiments::par_algo_name(algo),
                                      metric};
      for (const auto k : config.log2_n) {
        row.push_back(stats::fmt(getter(result.cell(algo, k)), 1));
      }
      table.add_row(std::move(row));
    };
    add("time", [](const experiments::TimingCell& c) {
      return c.makespan.mean();
    });
    add("messages", [](const experiments::TimingCell& c) {
      return c.messages.mean();
    });
    add("collectives", [](const experiments::TimingCell& c) {
      return c.collective_ops.mean();
    });
    if (algo == ParAlgo::kPHFOracle || algo == ParAlgo::kPHFBaPrime) {
      add("phase2 iters", [](const experiments::TimingCell& c) {
        return c.phase2_iterations.mean();
      });
    }
  }
  table.print(std::cout);

  // Scaling fit: time(2^17)/time(2^5) -- ~1 means flat, ~log ratio for
  // logarithmic algorithms, 2^12 for the sequential baseline.
  std::cout << "\ntime growth factor from N=2^5 to N=2^17 "
               "(linear scaling would be 4096x):\n";
  for (const ParAlgo algo : config.algos) {
    const double t5 = result.cell(algo, 5).makespan.mean();
    const double t17 = result.cell(algo, 17).makespan.mean();
    std::cout << "  " << experiments::par_algo_name(algo) << ": "
              << stats::fmt(t17 / t5, 1) << "x\n";
  }
  return 0;
}
