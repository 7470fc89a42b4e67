#include "bench/experiment_registry.hpp"

namespace lbb::bench {

// The flags column is the single source of truth for each experiment's
// options: --help renders it verbatim and the driver refuses any option
// not in it (lbb_bench.cpp), so a new option is added HERE, next to the
// entry, not in a hand-maintained usage string.
const std::vector<Experiment>& experiments() {
  static const std::vector<Experiment> kExperiments = {
      {"table1", "table1_ratios",
       "performance ratios vs N for BA/BA*/BA-HF/HF (Table 1)",
       "--trials --seed --threads --algos --lo --hi --beta --budget --csv "
       "--time-limit --full",
       run_table1},
      {"fig5", "fig5_avg_ratio",
       "average performance ratio vs log2(N), ASCII plot (Figure 5)",
       "--trials --seed --threads --algos --lo --hi --beta --budget --csv "
       "--time-limit --full",
       run_fig5},
      {"beta_sweep", "",
       "BA-HF ratio as a function of the beta switch parameter",
       "--trials --seed --threads --lo --hi --full", run_beta_sweep},
      {"interval_sweep", "",
       "ratios across [alpha_lo, alpha_hi] bisector-quality intervals",
       "--trials --seed --threads --full", run_interval_sweep},
      {"runtime_scaling", "",
       "simulated makespan/messages/collectives of PHF/BA/BA-HF vs N",
       "--trials --lo --hi --beta", run_runtime_scaling},
      {"phf_iterations", "",
       "PHF phase-2 iteration counts vs the Theorem 3 bound",
       "--trials --n", run_phf_iterations},
      {"applications", "",
       "all algorithms on every application substrate (FEM, quadrature, ...)",
       "--trials --n", run_applications},
      {"collective_costs", "",
       "network collective round counts vs the CostModel's charges", "",
       run_collective_costs},
      {"ablation_oblivious", "",
       "weight-oblivious baselines (BFS/DFS/random) vs weight-aware HF",
       "--trials", run_ablation_oblivious},
      {"bound_tightness", "",
       "observed vs proven worst-case ratios on point-mass instances",
       "--nmax", run_bound_tightness},
      {"topology_ablation", "",
       "simulated algorithms across machine topologies and fault profiles",
       "--trials --logn --loss --slow", run_topology_ablation},
      {"fault_sweep", "",
       "PHF free-processor managers under message loss/delay profiles",
       "--trials --logn --alpha", run_fault_sweep},
      {"noise_robustness", "",
       "partition quality under multiplicative weight-estimate noise",
       "--trials --logn --threads", run_noise_robustness},
      {"fem_speedup", "",
       "end-to-end speedups on adaptive FEM refinement trees",
       "--trials --elements --focus", run_fem_speedup},
      {"tail_study", "",
       "million-trial max-ratio tail (p50/p99/p99.9 vs the proven bounds)",
       "--trials --logn --algos --threads --lo --hi --beta --budget --seed "
       "--hist-max --bins --csv --time-limit --smoke",
       run_tail_study},
      {"micro_core", "",
       "google-benchmark microbenchmarks of the core partitioners",
       "--benchmark_filter --benchmark_repetitions", run_micro_core,
       /*own_options=*/true},
      {"micro_sim", "",
       "google-benchmark microbenchmarks of the simulated machine",
       "--benchmark_filter --benchmark_repetitions", run_micro_sim,
       /*own_options=*/true},
  };
  return kExperiments;
}

const Experiment* find_experiment(std::string_view name) {
  for (const Experiment& exp : experiments()) {
    if (exp.name == name) return &exp;
    if (!exp.legacy_alias.empty() && exp.legacy_alias == name) return &exp;
  }
  return nullptr;
}

}  // namespace lbb::bench
