// Machine-readable performance report for the parallel experiment engine.
//
// Runs two pinned ratio experiments (the Table-1 distribution U[0.01, 0.5]
// and the Figure-5 distribution U[0.1, 0.5]) on a reduced grid and writes
// per-cell wall time, bisection counts and throughput to a JSON file, so CI
// and PRs can track the hot-path kernels and thread scaling over time.
//
// Each cell is measured twice -- through the batched lane kernels (the
// production default) and through the scalar batch=1 path -- and the report
// carries both throughputs plus their ratio (batch_speedup).  Both runs must
// agree bit-for-bit on the statistics (the batched engine's core contract);
// perf_report exits nonzero if they ever diverge, so every perf run doubles
// as an identity check.
//
// Usage: lbb_bench perf_report [--out=BENCH_ratio_experiment.json]
//                              [--threads=K] [--trials=N] [--batch=B]
//
// The statistics in the report are byte-identical for every --threads and
// --batch value (see src/experiments/ratio_experiment.hpp); only the wall
// times change.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

#include "bench/bench_cli.hpp"
#include "bench/experiment_registry.hpp"
#include "experiments/batch_trials.hpp"
#include "experiments/ratio_experiment.hpp"
#include "stats/alloc_stats.hpp"
#include "stats/json.hpp"

int lbb::bench::run_perf_report(int argc, char** argv) {
  using namespace lbb;

  const bench::Cli cli(argc, argv);
  const std::string out_path =
      cli.get_string("out").empty() ? "BENCH_ratio_experiment.json"
                                    : cli.get_string("out");
  const std::int32_t threads = cli.threads();
  const auto trials = static_cast<std::int32_t>(cli.get_int("trials", 200));
  const auto batch = static_cast<std::int32_t>(
      cli.get_int("batch", experiments::kDefaultTrialBatch));

  struct Pinned {
    const char* name;
    double lo, hi;
  };
  const std::vector<Pinned> pinned = {
      {"table1_U[0.01,0.5]", 0.01, 0.5},
      {"fig5_U[0.1,0.5]", 0.1, 0.5},
  };

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "perf_report: cannot open " << out_path << " for writing\n";
    return 1;
  }
  stats::JsonWriter json(out);
  json.begin_object();
  json.member("benchmark", "ratio_experiment");
  json.member("threads", threads);
  json.member("trials", trials);
  json.member("batch", batch);
  // lbb_bench links the interposing allocation probe, so the alloc_* cell
  // members below are live; they read 0 in a binary without the probe.
  json.member("alloc_probe", stats::alloc_probe_linked());
  // Same-hardware guard for tools/bench_diff.py: batch_speedup compares
  // wall-clock rates, so it is only judged between matching machines.
  json.member("hardware_concurrency",
              static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  json.key("experiments");
  json.begin_array();

  bool identical = true;
  for (const Pinned& pin : pinned) {
    experiments::RatioExperimentConfig config;
    config.dist = problems::AlphaDistribution::uniform(pin.lo, pin.hi);
    config.trials = trials;
    config.seed = 1;
    config.threads = threads;
    config.log2_n = {6, 10, 14};
    config.algos = {"ba", "ba_star", "ba_hf", "hf"};
    config.bisection_budget = std::int64_t{1} << 22;

    config.batch = batch;
    const auto result = experiments::run_ratio_experiment(config);
    config.batch = 1;
    const auto scalar = experiments::run_ratio_experiment(config);

    json.begin_object();
    json.member("name", pin.name);
    json.member("alpha_lo", pin.lo);
    json.member("alpha_hi", pin.hi);
    json.key("cells");
    json.begin_array();
    for (std::size_t i = 0; i < result.cells.size(); ++i) {
      const auto& cell = result.cells[i];
      const auto& scell = scalar.cells[i];
      // Batched-vs-scalar identity: the statistics must agree exactly.
      if (cell.ratio.mean() != scell.ratio.mean() ||
          cell.ratio.max() != scell.ratio.max() ||
          cell.bisections != scell.bisections) {
        std::cerr << "perf_report: batched and scalar statistics DIVERGED in "
                  << pin.name << " " << cell.algo << " n=2^" << cell.log2_n
                  << "\n";
        identical = false;
      }
      const double bisections_per_sec =
          cell.wall_seconds > 0.0
              ? static_cast<double>(cell.bisections) / cell.wall_seconds
              : 0.0;
      const double scalar_bisections_per_sec =
          scell.wall_seconds > 0.0
              ? static_cast<double>(scell.bisections) / scell.wall_seconds
              : 0.0;
      json.begin_object(/*inline_mode=*/true);
      json.member("algo", cell.display);
      json.member("log2_n", cell.log2_n);
      json.member("trials", cell.trials);
      const double allocs_per_bisection =
          cell.bisections > 0
              ? static_cast<double>(cell.alloc_count) /
                    static_cast<double>(cell.bisections)
              : 0.0;
      json.member("wall_seconds", cell.wall_seconds);
      json.member("bisections", cell.bisections);
      json.member("bisections_per_sec", bisections_per_sec);
      json.member("scalar_bisections_per_sec", scalar_bisections_per_sec);
      json.member("batch_speedup",
                  scalar_bisections_per_sec > 0.0
                      ? bisections_per_sec / scalar_bisections_per_sec
                      : 0.0);
      json.member("mean_ratio", cell.ratio.mean());
      json.member("alloc_count", cell.alloc_count);
      json.member("alloc_bytes", cell.alloc_bytes);
      json.member("allocs_per_bisection", allocs_per_bisection);
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  json.finish();

  if (!identical) {
    std::cerr << "perf_report: FAILED batched-vs-scalar identity\n";
    return 1;
  }
  std::cout << "perf report written to " << out_path << " (threads = "
            << threads << ", trials <= " << trials << ", batch = " << batch
            << ")\n";
  return 0;
}
