#include "experiments/ratio_experiment.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/partitioner.hpp"
#include "experiments/batch_trials.hpp"
#include "experiments/trial_engine.hpp"
#include "stats/csv.hpp"

namespace lbb::experiments {

using lbb::core::Partitioner;
using lbb::core::PartitionerConfig;
using lbb::core::PartitionerRegistry;

namespace detail {

/// 1 = sequential, 0 = hardware concurrency, k = exactly k workers.
unsigned resolve_threads(std::int32_t threads) {
  if (threads < 0) {
    throw std::invalid_argument("experiments: threads must be >= 0");
  }
  if (threads == 0) return std::max(1u, std::thread::hardware_concurrency());
  return static_cast<unsigned>(threads);
}

}  // namespace detail

const RatioCell& RatioExperimentResult::cell(std::string_view algo,
                                             std::int32_t log2_n) const {
  for (const RatioCell& c : cells) {
    if (c.algo == algo && c.log2_n == log2_n) return c;
  }
  throw std::out_of_range("RatioExperimentResult::cell: no such cell");
}

void write_ratio_csv(const RatioExperimentResult& result,
                     const std::string& path) {
  lbb::stats::CsvWriter csv;
  csv.set_header({"algo", "log2_n", "trials", "upper_bound", "min", "mean",
                  "max", "stddev"});
  for (const RatioCell& cell : result.cells) {
    csv.add_row({cell.display, std::to_string(cell.log2_n),
                 std::to_string(cell.trials), std::to_string(cell.upper_bound),
                 std::to_string(cell.ratio.min()),
                 std::to_string(cell.ratio.mean()),
                 std::to_string(cell.ratio.max()),
                 std::to_string(cell.ratio.stddev())});
  }
  csv.write_file(path);
}

RatioExperimentResult run_ratio_experiment(
    const RatioExperimentConfig& config) {
  if (config.trials < 1) {
    throw std::invalid_argument("run_ratio_experiment: trials must be >= 1");
  }
  for (const std::int32_t k : config.log2_n) {
    if (k < 0 || k > 30) {
      throw std::invalid_argument("run_ratio_experiment: bad log2_n");
    }
  }
  RatioExperimentResult result;
  result.config = config;
  const double alpha = config.dist.lower_bound();

  // Resolve every algorithm up front: unknown names fail before any trial
  // runs, and each partitioner is instantiated exactly once (they are
  // stateless and safe to share across worker threads).
  const auto& registry = PartitionerRegistry::instance();
  std::vector<std::unique_ptr<Partitioner>> partitioners;
  partitioners.reserve(config.algos.size());
  for (const std::string& name : config.algos) {
    partitioners.push_back(registry.create(
        name, PartitionerConfig{alpha, config.beta, 0, {}}));
  }

  detail::TrialEngine engine(config.threads, config.time_limit_seconds);

  for (std::size_t a = 0; a < config.algos.size(); ++a) {
    const Partitioner& part = *partitioners[a];
    for (const std::int32_t k : config.log2_n) {
      const std::int32_t n = 1 << k;
      std::int32_t trials = config.trials;
      if (config.bisection_budget > 0) {
        // The minimum is taken in 64 bits: a budget above 2^31 * n would
        // wrap if the cap were narrowed first.
        trials = static_cast<std::int32_t>(std::min<std::int64_t>(
            trials,
            std::max<std::int64_t>(
                config.bisection_budget / std::max<std::int64_t>(n, 1),
                config.min_trials)));
      }
      RatioCell cell;
      cell.algo = config.algos[a];
      cell.display = part.info().display;
      cell.log2_n = k;
      cell.trials = trials;
      cell.upper_bound = part.ratio_bound(n);

      // Fixed chunks, reduced in chunk order: the cell is bit-identical
      // for every thread count.
      engine.run_cell(part, config.dist, config.seed, n, trials,
                      config.cancel, "ratio experiment cancelled", cell.ratio,
                      cell.bisections, [](const BatchTrialOutcome*,
                                          std::int64_t) {});
      result.cells.push_back(std::move(cell));
    }
  }
  return result;
}

}  // namespace lbb::experiments
