// Validates the analytic bounds of Section 3.1 empirically:
//
//   * PHF's phase-2 iteration count vs the bound (1/alpha) ln(1/alpha);
//   * the phase-1 bisection-tree depth vs log_{1/(1-alpha)} N;
//   * the share of bisections done in the (cheap, asynchronous) phase 1
//     versus the (collective-heavy) phase 2.
//
// Usage: phf_iterations [--trials=N] [--n=4096]
#include <iostream>

#include "bench/bench_cli.hpp"
#include "bench/experiment_registry.hpp"
#include "core/bounds.hpp"
#include "problems/alpha_dist.hpp"
#include "problems/synthetic.hpp"
#include "sim/phf.hpp"
#include "stats/rng.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"

int lbb::bench::run_phf_iterations(int argc, char** argv) {
  using namespace lbb;

  const bench::Cli cli(argc, argv);
  const auto n = cli.get_int32("n", 4096);
  const auto trials = cli.get_int32("trials", 50);

  std::cout << "PHF phase structure, N = " << n << ", alpha-hat ~ "
            << "U[alpha, 0.5], " << trials << " trials per row\n\n";

  stats::TextTable table;
  table.set_header({"alpha", "p2 iters avg", "p2 iters max", "bound",
                    "p1 share avg", "tree depth max", "depth bound"});

  for (const double alpha : {0.05, 0.1, 0.15, 0.2, 0.25, 1.0 / 3.0, 0.45}) {
    stats::RunningStats iters;
    stats::RunningStats p1_share;
    stats::RunningStats depth;
    for (std::int32_t t = 0; t < trials; ++t) {
      problems::SyntheticProblem p(
          stats::mix64(33, static_cast<std::uint64_t>(t)),
          problems::AlphaDistribution::uniform(alpha, 0.5));
      const auto r = sim::phf_simulate(p, n, alpha);
      iters.add(r.metrics.phase2_iterations);
      p1_share.add(static_cast<double>(r.metrics.phase1_bisections) /
                   static_cast<double>(r.metrics.bisections));
      depth.add(r.partition.max_depth);
    }
    table.add_row({stats::fmt(alpha, 3), stats::fmt(iters.mean(), 1),
                   stats::fmt(iters.max(), 0),
                   stats::fmt_int(core::phase2_iteration_bound(alpha)),
                   stats::fmt(p1_share.mean(), 3),
                   stats::fmt(depth.max(), 0),
                   stats::fmt_int(core::phase1_depth_bound(alpha, n) +
                                  core::phase2_iteration_bound(alpha))});
  }
  table.print(std::cout);
  std::cout << "\n'p1 share' = fraction of all N-1 bisections already done "
               "in the asynchronous first phase.\n";
  return 0;
}
