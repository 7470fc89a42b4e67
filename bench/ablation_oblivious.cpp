// Ablation: what does weight information buy?
//
// Compares the paper's weight-aware algorithms (HF, BA) against
// weight-oblivious baselines (level-order, LIFO, random victim) that
// perform the same N-1 bisections but pick the victim without looking at
// weights (related work treats weights as unknown -- "alpha-splitting").
//
// Expected shape: HF's average ratio is constant in N; the oblivious
// strategies degrade with N (BFS mildly, random worse, DFS
// catastrophically), because without weights nothing stops the heavy
// branch from being starved.
//
// Usage: ablation_oblivious [--trials=N]
#include <iostream>

#include "bench/bench_cli.hpp"
#include "bench/experiment_registry.hpp"
#include "core/hf.hpp"
#include "core/ba.hpp"
#include "core/oblivious.hpp"
#include "problems/alpha_dist.hpp"
#include "problems/synthetic.hpp"
#include "stats/rng.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"

int lbb::bench::run_ablation_oblivious(int argc, char** argv) {
  using namespace lbb;

  const bench::Cli cli(argc, argv);
  const auto trials = cli.get_int32("trials", 100);
  const auto dist = problems::AlphaDistribution::uniform(0.1, 0.5);
  const std::vector<std::int32_t> log2_n = {4, 6, 8, 10, 12};

  std::cout << "Weight-information ablation: alpha-hat ~ " << dist.describe()
            << ", " << trials << " trials, average ratio\n\n";

  stats::TextTable table;
  std::vector<std::string> header = {"strategy"};
  for (const auto k : log2_n) header.push_back("logN=" + std::to_string(k));
  table.set_header(std::move(header));

  auto sweep = [&](const std::string& name, auto run) {
    std::vector<std::string> row = {name};
    for (const auto k : log2_n) {
      const std::int32_t n = 1 << k;
      stats::RunningStats acc;
      for (std::int32_t t = 0; t < trials; ++t) {
        problems::SyntheticProblem p(
            stats::mix64(17, static_cast<std::uint64_t>(t)), dist);
        acc.add(run(p, n, static_cast<std::uint64_t>(t)));
      }
      row.push_back(stats::fmt(acc.mean(), 2));
    }
    table.add_row(std::move(row));
  };

  sweep("HF (weight-aware)",
        [](const problems::SyntheticProblem& p, std::int32_t n,
           std::uint64_t) { return core::hf_partition(p, n).ratio(); });
  sweep("BA (weight-aware)",
        [](const problems::SyntheticProblem& p, std::int32_t n,
           std::uint64_t) { return core::ba_partition(p, n).ratio(); });
  for (const auto strategy : {core::ObliviousStrategy::kBreadthFirst,
                              core::ObliviousStrategy::kRandom,
                              core::ObliviousStrategy::kDepthFirst}) {
    sweep(core::oblivious_strategy_name(strategy),
          [strategy](const problems::SyntheticProblem& p, std::int32_t n,
                     std::uint64_t seed) {
            return core::oblivious_partition(p, n, strategy, seed).ratio();
          });
  }
  table.print(std::cout);
  std::cout << "\nHF stays flat; every oblivious strategy degrades with N "
               "-- the weights are what keep the balance bounded.\n";
  return 0;
}
