// End-to-end substrate study (extension of the paper's Section 4): the
// algorithms applied to the application problem classes the paper motivates
// -- FE-trees from adaptive substructuring, adaptive quadrature regions,
// 2-D domain decomposition, and random-pivot lists -- next to the synthetic
// model.  For each class we report the empirically realized bisector
// quality (min alpha-hat seen) and the achieved ratios.
//
// Usage: applications [--n=64] [--trials=20]
#include <algorithm>
#include <iostream>
#include <memory>

#include "bench/bench_cli.hpp"
#include "bench/experiment_registry.hpp"
#include "core/lbb.hpp"
#include "problems/alpha_dist.hpp"
#include "problems/fe_tree.hpp"
#include "problems/grid_domain.hpp"
#include "problems/pivot_list.hpp"
#include "problems/quadrature.hpp"
#include "problems/synthetic.hpp"
#include "stats/histogram.hpp"
#include "stats/rng.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"

namespace {

using namespace lbb;

struct Row {
  std::string name;
  stats::RunningStats hf, ba, ba_hf;
  stats::RunningStats min_alpha;
  stats::Histogram alpha_hist{0.0, 0.5, 24};
};

// Partition with all algorithms, recording ratios and the worst alpha-hat
// realized anywhere in HF's bisection tree.
template <core::Bisectable P>
void measure(Row& row, const P& problem, std::int32_t n, double alpha_guess) {
  core::PartitionOptions opt;
  opt.record_tree = true;
  const auto hf = core::hf_partition(problem, n, opt);
  row.hf.add(hf.ratio());
  row.ba.add(core::ba_partition(problem, n).ratio());
  row.ba_hf.add(
      core::ba_hf_partition(problem, n,
                            core::BaHfParams{alpha_guess, 1.0})
          .ratio());
  double min_alpha = 0.5;
  for (std::size_t i = 0; i < hf.tree.size(); ++i) {
    const auto& node = hf.tree.node(static_cast<core::NodeId>(i));
    if (node.left == core::kNoNode) continue;
    const auto& light = hf.tree.node(node.right);
    const double alpha_hat = light.weight / node.weight;
    min_alpha = std::min(min_alpha, alpha_hat);
    row.alpha_hist.add(alpha_hat);
  }
  row.min_alpha.add(min_alpha);
}

}  // namespace

int lbb::bench::run_applications(int argc, char** argv) {
  const bench::Cli cli(argc, argv);
  const auto n = cli.get_int32("n", 64);
  const auto trials = cli.get_int32("trials", 20);

  std::cout << "Application substrates, N = " << n << ", " << trials
            << " instances each\n\n";

  std::vector<Row> rows;

  {
    Row row;
    row.name = "synthetic U[0.1,0.5]";
    for (std::int32_t t = 0; t < trials; ++t) {
      problems::SyntheticProblem p(
          stats::mix64(1, static_cast<std::uint64_t>(t)),
          problems::AlphaDistribution::uniform(0.1, 0.5));
      measure(row, p, n, 0.1);
    }
    rows.push_back(std::move(row));
  }
  {
    Row row;
    row.name = "FE-tree (graded mesh)";
    for (std::int32_t t = 0; t < trials; ++t) {
      const auto tree = problems::FeTree::adaptive_refinement(
          stats::mix64(2, static_cast<std::uint64_t>(t)), 40 * n,
          /*focus=*/2.5);
      measure(row, problems::FeTreeProblem(tree), n, 1.0 / 3.0);
    }
    rows.push_back(std::move(row));
  }
  {
    Row row;
    row.name = "quadrature (peaked)";
    for (std::int32_t t = 0; t < trials; ++t) {
      const double peak =
          0.1 + 0.8 * stats::hash_to_unit(stats::mix64(3, t));
      problems::Integrand f = [peak](std::span<const double> x) {
        const double d = x[0] - peak;
        return 1.0 / (d * d + 2e-4);
      };
      const double lo = 0.0;
      const double hi = 1.0;
      problems::QuadratureProblem p(
          std::move(f), problems::QuadratureConfig{1e-5, 40}, 1,
          std::span<const double>(&lo, 1), std::span<const double>(&hi, 1));
      measure(row, p, n, 0.05);
    }
    rows.push_back(std::move(row));
  }
  {
    Row row;
    row.name = "grid domain (hotspots)";
    for (std::int32_t t = 0; t < trials; ++t) {
      const auto field = std::make_shared<const problems::GridField>(
          problems::GridField::random_hotspots(
              stats::mix64(4, static_cast<std::uint64_t>(t)), 160, 160, 6));
      measure(row, problems::GridProblem(field), n, 1.0 / 3.0);
    }
    rows.push_back(std::move(row));
  }
  {
    Row row;
    row.name = "pivot list";
    for (std::int32_t t = 0; t < trials; ++t) {
      problems::PivotListProblem p(
          stats::mix64(5, static_cast<std::uint64_t>(t)), 200000);
      measure(row, p, n, 0.01);
    }
    rows.push_back(std::move(row));
  }

  stats::TextTable table;
  table.set_header({"substrate", "HF avg", "BA avg", "BA-HF avg",
                    "HF worst", "min alpha-hat", "alpha-hat dist (0..0.5)"});
  for (const Row& row : rows) {
    table.add_row({row.name, stats::fmt(row.hf.mean(), 3),
                   stats::fmt(row.ba.mean(), 3),
                   stats::fmt(row.ba_hf.mean(), 3),
                   stats::fmt(row.hf.max(), 3),
                   stats::fmt(row.min_alpha.min(), 3),
                   "|" + row.alpha_hist.sparkline() + "|"});
  }
  table.print(std::cout);
  std::cout << "\n'min alpha-hat' is the worst realized bisection fraction "
               "across all instances (the empirical bisector quality of the "
               "class).\n";
  return 0;
}
