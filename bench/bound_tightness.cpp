// Bound-tightness study (ablation): how close do adversarial instances get
// to the worst-case bounds of Theorems 2, 7, 8?
//
// The most adversarial instance within a class of alpha-bisectors is the
// point-mass: every bisection splits exactly (alpha, 1-alpha).  For each
// alpha we report the maximum observed ratio over N = 2..N_max for that
// instance, as a fraction of the theoretical bound -- i.e. how much of the
// bound adversarial inputs can actually realize.
//
// Usage: bound_tightness [--nmax=2048]
#include <algorithm>
#include <iostream>

#include "bench/bench_cli.hpp"
#include "bench/experiment_registry.hpp"
#include "core/lbb.hpp"
#include "problems/alpha_dist.hpp"
#include "problems/synthetic.hpp"
#include "stats/table.hpp"

int lbb::bench::run_bound_tightness(int argc, char** argv) {
  using namespace lbb;

  const bench::Cli cli(argc, argv);
  const auto n_max = cli.get_int32("nmax", 2048);

  std::cout << "Adversarial point-mass instances (every split exactly "
               "(alpha, 1-alpha)), worst ratio over N = 2.." << n_max
            << "\n\n";

  stats::TextTable table;
  table.set_header({"alpha", "HF worst", "HF bound", "HF tight%",
                    "BA worst", "BA bound", "BA tight%", "BA-HF worst",
                    "BA-HF bound(b=1)"});

  for (const double alpha :
       {0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 1.0 / 3.0, 0.4, 0.45, 0.5}) {
    const problems::SyntheticProblem p(
        7, problems::AlphaDistribution::point(alpha));
    double hf_worst = 0.0;
    double ba_worst = 0.0;
    double bahf_worst = 0.0;
    double ba_bound = 0.0;
    double bahf_bound = 0.0;
    for (std::int32_t n = 2; n <= n_max;
         n = std::max(n + 1, n + n / 8)) {
      hf_worst = std::max(hf_worst, core::hf_partition(p, n).ratio());
      ba_worst = std::max(ba_worst, core::ba_partition(p, n).ratio());
      bahf_worst = std::max(
          bahf_worst,
          core::ba_hf_partition(p, n, core::BaHfParams{alpha, 1.0}).ratio());
      ba_bound = std::max(ba_bound, core::ba_ratio_bound(alpha, n));
      bahf_bound =
          std::max(bahf_bound, core::ba_hf_ratio_bound(alpha, 1.0, n));
    }
    const double hf_bound = core::hf_ratio_bound(alpha);
    table.add_row({stats::fmt(alpha, 3), stats::fmt(hf_worst, 3),
                   stats::fmt(hf_bound, 3),
                   stats::fmt(100.0 * hf_worst / hf_bound, 0) + "%",
                   stats::fmt(ba_worst, 3), stats::fmt(ba_bound, 3),
                   stats::fmt(100.0 * ba_worst / ba_bound, 0) + "%",
                   stats::fmt(bahf_worst, 3), stats::fmt(bahf_bound, 3)});
  }
  table.print(std::cout);
  std::cout << "\n'tight%' = worst observed ratio as a share of the "
               "theoretical bound; the point-mass adversary is the worst "
               "i.i.d. instance but not necessarily the global worst case, "
               "so 100% is not expected.\n";
  return 0;
}
