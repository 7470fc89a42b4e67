// Reproduces the Section-4 threshold study: influence of BA-HF's parameter
// beta on the average performance ratio for alpha-hat ~ U[0.1, 0.5].
//
// Usage: beta_sweep [--full] [--trials=N] [--lo=0.1 --hi=0.5] [--threads=K]
//
// Expected shape (paper): "the improvement of the average ratio was
// approximately 10% when beta increased from 1.0 to 2.0 and another 5% when
// beta = 3.0" -- diminishing returns with growing beta, approaching HF's
// ratio from above; the worst-case bound (Theorem 8) shrinks toward
// HF's r_alpha as well.
#include <iostream>

#include "bench/bench_cli.hpp"
#include "bench/experiment_registry.hpp"
#include "core/bounds.hpp"
#include "experiments/ratio_experiment.hpp"
#include "stats/table.hpp"

int lbb::bench::run_beta_sweep(int argc, char** argv) {
  using namespace lbb;
  const bench::Cli cli(argc, argv);
  const double lo = cli.get_double("lo", 0.1);
  const double hi = cli.get_double("hi", 0.5);
  const std::vector<double> betas = {0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0};
  const std::vector<std::int32_t> log2_n = {8, 12, 16};

  experiments::RatioExperimentConfig base;
  base.dist = problems::AlphaDistribution::uniform(lo, hi);
  base.trials = cli.get_int32("trials", 300);
  base.seed = static_cast<std::uint64_t>(cli.get_int("seed", 5));
  base.threads = cli.threads();
  base.log2_n = log2_n;
  if (!cli.flag("full")) {
    base.bisection_budget = std::int64_t{1} << 23;
  }

  std::cout << "BA-HF threshold study: alpha-hat ~ " << base.dist.describe()
            << "\n\n";

  // HF reference row (beta-independent).
  auto hf_config = base;
  hf_config.algos = {"hf"};
  const auto hf = experiments::run_ratio_experiment(hf_config);

  stats::TextTable table;
  std::vector<std::string> header = {"beta", "ub(2^16)"};
  for (const auto k : log2_n) {
    header.push_back("avg logN=" + std::to_string(k));
  }
  header.push_back("vs beta=1");
  table.set_header(std::move(header));

  double avg_at_beta1 = 0.0;
  std::vector<std::vector<double>> rows;
  for (const double beta : betas) {
    auto config = base;
    config.beta = beta;
    config.algos = {"ba_hf"};
    const auto result = experiments::run_ratio_experiment(config);
    std::vector<double> row;
    for (const auto k : log2_n) {
      row.push_back(result.cell("ba_hf", k).ratio.mean());
    }
    if (beta == 1.0) avg_at_beta1 = row.back();
    rows.push_back(std::move(row));
  }
  for (std::size_t i = 0; i < betas.size(); ++i) {
    std::vector<std::string> cells = {
        stats::fmt(betas[i], 1),
        stats::fmt(core::ba_hf_ratio_bound(lo, betas[i], 1 << 16), 2)};
    for (const double r : rows[i]) cells.push_back(stats::fmt(r, 3));
    cells.push_back(
        stats::fmt(100.0 * (1.0 - rows[i].back() / avg_at_beta1), 1) + "%");
    table.add_row(std::move(cells));
  }
  {
    std::vector<std::string> cells = {"HF", stats::fmt(
        core::hf_ratio_bound(lo), 2)};
    for (const auto k : log2_n) {
      cells.push_back(stats::fmt(hf.cell("hf", k).ratio.mean(), 3));
    }
    cells.push_back("(lower limit)");
    table.add_separator();
    table.add_row(std::move(cells));
  }
  table.print(std::cout);
  std::cout << "\n'vs beta=1' is the relative improvement of the "
               "logN=16 average over beta = 1.0.\n";
  return 0;
}
