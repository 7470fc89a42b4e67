// Topology ablation: the paper assumes unit-cost transfers; Section 3.4
// cites hypercube embeddings and distributed data structures for the free-
// processor management.  This bench re-runs the simulated executions under
// distance-sensitive transfer costs (hypercube hops, 2-D mesh Manhattan
// distance) to expose the locality structure of the algorithms:
//
//   * BA ships every subproblem to P_{i+N1} inside its own range --
//     transfers stay short;
//   * PHF's oracle manager hands out arbitrary free processors -- phase-1
//     transfers cross the whole machine;
//   * PHF's BA'-based manager inherits BA's locality for phase 1.
//
// With --loss / --slow the simulated machine is additionally degraded by
// the fault layer (sim/fault_model.hpp); the second table then reports the
// fault accounting per topology.  Faults never change the partition, so
// the ablation stays apples-to-apples.
//
// Usage: topology_ablation [--logn=12] [--trials=10] [--loss=0.1]
//                          [--slow=0.25]
#include <iostream>

#include "bench/bench_cli.hpp"
#include "bench/experiment_registry.hpp"
#include "problems/alpha_dist.hpp"
#include "problems/synthetic.hpp"
#include "sim/fault_model.hpp"
#include "sim/par_ba.hpp"
#include "sim/phf.hpp"
#include "stats/rng.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"

int lbb::bench::run_topology_ablation(int argc, char** argv) {
  using namespace lbb;

  const bench::Cli cli(argc, argv);
  const auto logn = cli.get_int32("logn", 12);
  const auto trials = cli.get_int32("trials", 10);
  const std::int32_t n = 1 << logn;
  const double alpha = 0.1;
  const auto dist = problems::AlphaDistribution::uniform(alpha, 0.5);

  sim::FaultConfig faults;
  faults.message_loss_rate = cli.get_double("loss", 0.0);
  faults.slow_proc_fraction = cli.get_double("slow", 0.0);

  std::cout << "Transfer-cost topology ablation, N = " << n
            << ", alpha-hat ~ " << dist.describe() << ", " << trials
            << " trials (mean makespan)";
  if (faults.any()) {
    std::cout << ", faults: loss=" << faults.message_loss_rate
              << " slow=" << faults.slow_proc_fraction;
  }
  std::cout << "\n\n";

  struct Topo {
    const char* name;
    sim::CostModel::SendTopology topology;
  };
  const Topo topologies[] = {
      {"uniform (paper)", sim::CostModel::SendTopology::kUniform},
      {"hypercube", sim::CostModel::SendTopology::kHypercube},
      {"2-D mesh", sim::CostModel::SendTopology::kMesh2D},
  };

  stats::TextTable table;
  table.set_header({"topology", "BA", "BA-HF", "PHF(oracle)", "PHF(BA')"});
  stats::TextTable fault_table;
  fault_table.set_header(
      {"topology", "retries", "lost", "backoff", "partition"});
  for (const Topo& topo : topologies) {
    sim::CostModel cm;
    cm.send_topology = topo.topology;
    stats::RunningStats ba, bahf, phf_oracle, phf_bap;
    stats::RunningStats retries, lost, backoff;
    bool identical = true;
    for (std::int32_t t = 0; t < trials; ++t) {
      problems::SyntheticProblem p(
          stats::mix64(51, static_cast<std::uint64_t>(t)), dist);
      ba.add(sim::ba_simulate(p, n, cm, {}, nullptr, faults)
                 .metrics.makespan);
      bahf.add(sim::ba_hf_simulate(p, n, alpha, 1.0, cm, {}, nullptr,
                                   sim::BaHfSecondPhase::kSequentialHf,
                                   faults)
                   .metrics.makespan);
      sim::PhfSimOptions oracle;
      oracle.manager = sim::FreeProcManager::kOracle;
      oracle.faults = faults;
      const auto oracle_run = sim::phf_simulate(p, n, alpha, cm, oracle);
      phf_oracle.add(oracle_run.metrics.makespan);
      retries.add(static_cast<double>(oracle_run.metrics.retries));
      lost.add(static_cast<double>(oracle_run.metrics.lost_messages));
      backoff.add(oracle_run.metrics.backoff_time);
      if (faults.any()) {
        sim::PhfSimOptions ideal = oracle;
        ideal.faults = {};
        const auto clean = sim::phf_simulate(p, n, alpha, cm, ideal);
        if (clean.partition.sorted_weights() !=
            oracle_run.partition.sorted_weights()) {
          identical = false;
        }
      }
      sim::PhfSimOptions bap;
      bap.manager = sim::FreeProcManager::kBaPrime;
      bap.faults = faults;
      phf_bap.add(sim::phf_simulate(p, n, alpha, cm, bap).metrics.makespan);
    }
    table.add_row({topo.name, stats::fmt(ba.mean(), 1),
                   stats::fmt(bahf.mean(), 1),
                   stats::fmt(phf_oracle.mean(), 1),
                   stats::fmt(phf_bap.mean(), 1)});
    fault_table.add_row({topo.name, stats::fmt(retries.mean(), 1),
                         stats::fmt(lost.mean(), 1),
                         stats::fmt(backoff.mean(), 1),
                         identical ? "identical" : "DIVERGED"});
  }
  table.print(std::cout);
  if (faults.any()) {
    std::cout << "\nFault accounting, PHF(oracle) means per trial:\n";
    fault_table.print(std::cout);
  }
  std::cout << "\nBA's range-based placement keeps transfers short on "
               "distance-sensitive networks; PHF pays for arbitrary "
               "free-processor targets (mostly in phase 1 and in the "
               "worst send of each phase-2 round).\n";
  return 0;
}
