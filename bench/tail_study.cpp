// Million-trial tail study of the max-ratio distribution (experiment E17).
//
// The paper's theorems bound the WORST case; the ratio experiment reports
// means.  This harness runs the max-sink trial engine at tail scale and
// prints, per (algorithm, N) cell, the p50/p90/p99/p99.9 and observed max
// of the performance ratio next to the proven upper bound -- the empirical
// question being how much daylight the tail leaves below the theorem.
//
// Usage:
//   lbb_bench tail_study                       quick budgeted run
//   lbb_bench tail_study --trials=1048576 --logn=10,14 --algos=ba,hf
//   lbb_bench tail_study --threads=8           same output bytes
//   lbb_bench tail_study --csv=tail.csv
//   lbb_bench tail_study --smoke               max sink vs full partitions
//                                              (U[0.01,0.5] and
//                                              U[0.02,0.04], threads 1/2);
//                                              exit 1 on any divergence
#include <cstdint>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_cli.hpp"
#include "bench/experiment_registry.hpp"
#include "experiments/tail_study.hpp"
#include "stats/table.hpp"

namespace {

using lbb::experiments::TailStudyCell;
using lbb::experiments::TailStudyConfig;
using lbb::experiments::TailStudyResult;

TailStudyConfig config_from_cli(const lbb::bench::Cli& cli) {
  TailStudyConfig config;
  config.dist = lbb::problems::AlphaDistribution::uniform(
      cli.get_double("lo", 0.01), cli.get_double("hi", 0.5));
  config.beta = cli.get_double("beta", 1.0);
  config.trials = cli.get_int("trials", config.trials);
  config.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  config.threads = cli.threads();
  config.bisection_budget = cli.get_int("budget", config.bisection_budget);
  config.hist_max = cli.get_double("hist-max", config.hist_max);
  config.hist_bins = cli.get_int32("bins", config.hist_bins);
  config.time_limit_seconds = cli.get_double("time-limit", 0.0);
  if (const auto algos = cli.get_list("algos"); !algos.empty()) {
    config.algos = algos;
  }
  if (auto logn = cli.get_int_list("logn"); !logn.empty()) {
    config.log2_n = std::move(logn);
  }
  return config;
}

/// True when every reported number of the two runs agrees bit-for-bit,
/// cell by cell in order: the fixed-order RunningStats, the bisection
/// totals, and each integer histogram bin.  Algorithm names may differ.
bool cells_identical(const TailStudyResult& a, const TailStudyResult& b) {
  if (a.cells.size() != b.cells.size()) return false;
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    const TailStudyCell& x = a.cells[i];
    const TailStudyCell& y = b.cells[i];
    if (x.log2_n != y.log2_n || x.trials != y.trials ||
        x.bisections != y.bisections) {
      return false;
    }
    if (x.ratio.count() != y.ratio.count() ||
        x.ratio.mean() != y.ratio.mean() || x.ratio.min() != y.ratio.min() ||
        x.ratio.max() != y.ratio.max()) {
      return false;
    }
    if (x.tail.count() != y.tail.count() || x.tail.min() != y.tail.min() ||
        x.tail.max() != y.tail.max() || x.tail.bins() != y.tail.bins()) {
      return false;
    }
    for (std::int32_t bin = 0; bin < x.tail.bins(); ++bin) {
      if (x.tail.bin_count(bin) != y.tail.bin_count(bin)) return false;
    }
  }
  return true;
}

/// --smoke: a small study of the builtin families, which run under the max
/// sink, at one and two threads, each required to be bit-identical to the
/// same study built from full partitions: par:ba, par:ba_star and par:ba_hf
/// (on a thread pool, byte-identical to BA, BA' and BA-HF) and phf:oracle
/// (PHF, whose pieces equal HF's as a multiset), which the engine runs
/// through the erased interface.  Two distributions: the default
/// U[0.01, 0.5], whose HF runs take the tree walk, and the narrow
/// U[0.02, 0.04], whose HF runs give it up and fall back to the selection
/// queue.
int run_smoke() {
  const lbb::problems::AlphaDistribution dists[] = {
      lbb::problems::AlphaDistribution::uniform(0.01, 0.5),
      lbb::problems::AlphaDistribution::uniform(0.02, 0.04)};
  int failures = 0;
  for (const auto& dist : dists) {
    TailStudyConfig base;
    base.dist = dist;
    base.trials = 256;
    base.log2_n = {6, 9};
    base.bisection_budget = 0;
    base.hist_bins = 64;
    base.seed = 7;

    TailStudyConfig full = base;
    full.algos = {"par:ba", "par:ba_star", "par:ba_hf", "phf:oracle"};
    full.threads = 1;
    const TailStudyResult reference = lbb::experiments::run_tail_study(full);

    for (const std::int32_t threads : {1, 2}) {
      TailStudyConfig config = base;
      config.algos = {"ba", "ba_star", "ba_hf", "hf"};
      config.threads = threads;
      const TailStudyResult result = lbb::experiments::run_tail_study(config);
      const bool ok = cells_identical(reference, result);
      std::cout << "tail_study smoke: " << dist.describe()
                << " threads=" << threads
                << (ok ? " identical" : " DIVERGED") << "\n";
      if (!ok) ++failures;
    }
  }
  if (failures > 0) {
    std::cerr << "tail_study --smoke: FAILED (" << failures
              << " run(s) diverged from the full partitions)\n";
    return 1;
  }
  std::cout << "tail_study smoke: all max-sink runs byte-identical to full "
               "partitions\n";
  return 0;
}

}  // namespace

int lbb::bench::run_tail_study(int argc, char** argv) {
  const bench::Cli cli(argc, argv);
  if (cli.flag("smoke")) {
    return run_smoke();
  }

  const TailStudyConfig config = config_from_cli(cli);
  std::cout << "Tail study: alpha-hat ~ " << config.dist.describe()
            << ", beta = " << config.beta << ", trials <= " << config.trials
            << (config.bisection_budget > 0 ? " (budget-capped)" : "")
            << "\n\n";

  const TailStudyResult result = lbb::experiments::run_tail_study(config);

  stats::TextTable table;
  table.set_header({"algo", "logN", "trials", "ub", "mean", "p50", "p90",
                    "p99", "p99.9", "max"});
  std::string last_algo;
  for (const TailStudyCell& cell : result.cells) {
    if (cell.algo != last_algo) {
      table.add_separator();
      last_algo = cell.algo;
    }
    table.add_row({cell.display, std::to_string(cell.log2_n),
                   std::to_string(cell.trials),
                   stats::fmt(cell.upper_bound, 3),
                   stats::fmt(cell.ratio.mean(), 4),
                   stats::fmt(cell.tail.quantile(0.50), 4),
                   stats::fmt(cell.tail.quantile(0.90), 4),
                   stats::fmt(cell.tail.quantile(0.99), 4),
                   stats::fmt(cell.tail.quantile(0.999), 4),
                   stats::fmt(cell.ratio.max(), 4)});
  }
  table.print(std::cout);

  const std::string csv_path = cli.get_string("csv");
  if (!csv_path.empty()) {
    experiments::write_tail_csv(result, csv_path);
    std::cout << "\n(csv written to " << csv_path << ")\n";
  }
  return 0;
}
