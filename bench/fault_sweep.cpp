// Fault-injection sweep: the simulated machine degraded along the fault
// axes of sim/fault_model.hpp (message loss, extra latency, slow
// processors, unresponsive probe targets).  The headline claim the sweep
// verifies at every point: faults stretch the makespan and add retries,
// re-sends and backoff time, but the partition stays byte-identical to the
// ideal machine's -- the load-balancing result is fault-oblivious even
// though the execution is not.
//
// Usage: fault_sweep [--logn=10] [--trials=5] [--alpha=0.1]
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_cli.hpp"
#include "bench/experiment_registry.hpp"
#include "problems/alpha_dist.hpp"
#include "problems/synthetic.hpp"
#include "sim/fault_model.hpp"
#include "sim/phf.hpp"
#include "stats/rng.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"

namespace {

struct Profile {
  const char* name;
  lbb::sim::FaultConfig faults;
};

std::vector<Profile> profiles() {
  std::vector<Profile> out;
  out.push_back({"ideal", {}});
  {
    lbb::sim::FaultConfig f;
    f.message_loss_rate = 0.1;
    out.push_back({"loss 10%", f});
  }
  {
    lbb::sim::FaultConfig f;
    f.message_delay_rate = 0.3;
    out.push_back({"delay 30%", f});
  }
  {
    lbb::sim::FaultConfig f;
    f.slow_proc_fraction = 0.25;
    out.push_back({"slow 25%", f});
  }
  {
    lbb::sim::FaultConfig f;
    f.unresponsive_rate = 0.3;
    out.push_back({"unresp 30%", f});
  }
  {
    lbb::sim::FaultConfig f;
    f.message_loss_rate = 0.1;
    f.message_delay_rate = 0.3;
    f.slow_proc_fraction = 0.25;
    f.unresponsive_rate = 0.3;
    out.push_back({"all of it", f});
  }
  return out;
}

}  // namespace

int lbb::bench::run_fault_sweep(int argc, char** argv) {
  using namespace lbb;

  const bench::Cli cli(argc, argv);
  const auto logn = cli.get_int32("logn", 10);
  const auto trials = cli.get_int32("trials", 5);
  const double alpha = cli.get_double("alpha", 0.1);
  const std::int32_t n = 1 << logn;
  const auto dist = problems::AlphaDistribution::uniform(alpha, 0.5);

  struct Manager {
    const char* name;
    sim::FreeProcManager manager;
  };
  const Manager managers[] = {
      {"oracle", sim::FreeProcManager::kOracle},
      {"BA'", sim::FreeProcManager::kBaPrime},
      {"probe", sim::FreeProcManager::kRandomProbe},
  };

  std::cout << "Fault-injection sweep, PHF on N = " << n << ", alpha-hat ~ "
            << dist.describe() << ", " << trials << " trials (means)\n\n";

  stats::TextTable table;
  table.set_header({"faults", "manager", "makespan", "retries", "lost",
                    "delayed", "backoff", "partition"});
  for (const Profile& profile : profiles()) {
    for (const Manager& mgr : managers) {
      stats::RunningStats makespan, retries, lost, delayed, backoff;
      bool identical = true;
      for (std::int32_t t = 0; t < trials; ++t) {
        problems::SyntheticProblem p(
            stats::mix64(77, static_cast<std::uint64_t>(t)), dist);
        sim::PhfSimOptions ideal;
        ideal.manager = mgr.manager;
        sim::PhfSimOptions degraded = ideal;
        degraded.faults = profile.faults;
        degraded.faults.seed = static_cast<std::uint64_t>(t + 1);
        const auto clean = sim::phf_simulate(p, n, alpha, {}, ideal);
        const auto run = sim::phf_simulate(p, n, alpha, {}, degraded);
        makespan.add(run.metrics.makespan);
        retries.add(static_cast<double>(run.metrics.retries));
        lost.add(static_cast<double>(run.metrics.lost_messages));
        delayed.add(static_cast<double>(run.metrics.delayed_messages));
        backoff.add(run.metrics.backoff_time);
        if (clean.partition.sorted_weights() !=
            run.partition.sorted_weights()) {
          identical = false;
        }
        for (std::size_t i = 0; i < clean.partition.pieces.size(); ++i) {
          if (clean.partition.pieces[i].processor !=
              run.partition.pieces[i].processor) {
            identical = false;
          }
        }
      }
      table.add_row({profile.name, mgr.name, stats::fmt(makespan.mean(), 1),
                     stats::fmt(retries.mean(), 1), stats::fmt(lost.mean(), 1),
                     stats::fmt(delayed.mean(), 1),
                     stats::fmt(backoff.mean(), 1),
                     identical ? "identical" : "DIVERGED"});
    }
  }
  table.print(std::cout);
  std::cout << "\nEvery row must read \"identical\": the fault layer "
               "degrades time and communication only, never the computed "
               "partition (see docs/ALGORITHMS.md).\n";
  return 0;
}
