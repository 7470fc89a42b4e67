// The lbb_bench experiment table: one declarative entry per reproduction
// harness, replacing the 17 standalone bench binaries.
//
//   lbb_bench table1 --trials=48 --csv=out.csv
//   lbb_bench fault_sweep --logn=8 --trials=3
//   lbb_bench micro_core --benchmark_filter=BM_HfPartition
//
// Each entry points at a run_*() function that is the former binary's
// main() verbatim (argv[0] is the subcommand name, options start at
// argv[1]); output stays byte-identical to the pre-driver binaries, which
// the golden tests under tests/golden/ pin down.  Historical binary names
// ("table1_ratios", "fig5_avg_ratio") remain accepted as aliases.
#pragma once

#include <string_view>
#include <vector>

namespace lbb::bench {

/// One subcommand of the lbb_bench driver.
struct Experiment {
  std::string_view name;          ///< subcommand, e.g. "table1"
  std::string_view legacy_alias;  ///< pre-driver binary name ("" if same)
  std::string_view description;   ///< one line for --help
  std::string_view flags;         ///< every --option, rendered by --help
  int (*run)(int argc, char** argv);
  /// True when run() hands its arguments to a parser that rejects unknown
  /// ones itself (google-benchmark), so the driver does not check them
  /// against `flags`, which then lists only the main ones.
  bool own_options = false;
};

/// The experiment table, in help/display order.
[[nodiscard]] const std::vector<Experiment>& experiments();

/// Looks up a subcommand by name or legacy alias; nullptr when unknown.
[[nodiscard]] const Experiment* find_experiment(std::string_view name);

// Entry points (one per former bench binary).
int run_table1(int argc, char** argv);
int run_fig5(int argc, char** argv);
int run_beta_sweep(int argc, char** argv);
int run_interval_sweep(int argc, char** argv);
int run_runtime_scaling(int argc, char** argv);
int run_phf_iterations(int argc, char** argv);
int run_applications(int argc, char** argv);
int run_collective_costs(int argc, char** argv);
int run_ablation_oblivious(int argc, char** argv);
int run_bound_tightness(int argc, char** argv);
int run_topology_ablation(int argc, char** argv);
int run_fault_sweep(int argc, char** argv);
int run_noise_robustness(int argc, char** argv);
int run_fem_speedup(int argc, char** argv);
int run_tail_study(int argc, char** argv);
int run_micro_core(int argc, char** argv);
int run_micro_sim(int argc, char** argv);

}  // namespace lbb::bench
