#include "experiments/tail_study.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/partitioner.hpp"
#include "core/sync.hpp"
#include "experiments/batch_trials.hpp"
#include "experiments/ratio_experiment.hpp"
#include "experiments/trial_engine.hpp"
#include "stats/csv.hpp"

namespace lbb::experiments {

using lbb::core::Partitioner;
using lbb::core::PartitionerConfig;
using lbb::core::PartitionerRegistry;

namespace {

/// Worker-thread tail scratch: one preallocated accumulator per thread,
/// reset at the start of every chunk and merged into the cell's shared
/// accumulator when the chunk finishes.  Per-CHUNK accumulators would cost
/// chunks * bins memory (prohibitive at 10^6 trials); merging integer bins
/// in completion order is exact, so this is free of determinism cost.
lbb::stats::TailAccumulator& thread_tail_scratch(double lo, double hi,
                                                 std::int32_t bins) {
  thread_local lbb::stats::TailAccumulator acc;
  if (acc.bins() != bins || acc.lo() != lo || acc.hi() != hi) {
    acc = lbb::stats::TailAccumulator(lo, hi, bins);
  }
  return acc;
}

}  // namespace

TailStudyResult run_tail_study(const TailStudyConfig& config) {
  if (config.trials < 1) {
    throw std::invalid_argument("run_tail_study: trials must be >= 1");
  }
  for (const std::int32_t k : config.log2_n) {
    if (k < 0 || k > 30) {
      throw std::invalid_argument("run_tail_study: bad log2_n");
    }
  }
  if (!(config.hist_max > 1.0)) {
    throw std::invalid_argument("run_tail_study: hist_max must be > 1");
  }
  if (config.hist_bins < 1) {
    throw std::invalid_argument("run_tail_study: hist_bins must be >= 1");
  }

  TailStudyResult result;
  result.config = config;
  const double alpha = config.dist.lower_bound();

  const auto& registry = PartitionerRegistry::instance();
  std::vector<std::unique_ptr<Partitioner>> partitioners;
  partitioners.reserve(config.algos.size());
  for (const std::string& name : config.algos) {
    partitioners.push_back(
        registry.create(name, PartitionerConfig{alpha, config.beta, 0, {}}));
  }

  detail::TrialEngine engine(config.threads, config.time_limit_seconds);

  for (std::size_t a = 0; a < config.algos.size(); ++a) {
    const Partitioner& part = *partitioners[a];
    for (const std::int32_t k : config.log2_n) {
      const std::int32_t n = 1 << k;
      std::int64_t trials = config.trials;
      if (config.bisection_budget > 0) {
        trials = std::min<std::int64_t>(
            trials,
            std::max<std::int64_t>(
                config.bisection_budget / std::max<std::int64_t>(n, 1),
                config.min_trials));
      }
      TailStudyCell cell;
      cell.algo = config.algos[a];
      cell.display = part.info().display;
      cell.log2_n = k;
      cell.trials = trials;
      cell.upper_bound = part.ratio_bound(n);
      cell.tail =
          lbb::stats::TailAccumulator(1.0, config.hist_max, config.hist_bins);

      lbb::core::Mutex tail_mu;
      engine.run_cell(
          part, config.dist, config.seed, n, trials, config.cancel,
          "tail study cancelled", cell.ratio, cell.bisections,
          [&](const BatchTrialOutcome* out, std::int64_t count) {
            lbb::stats::TailAccumulator& tail_scratch = thread_tail_scratch(
                1.0, config.hist_max, config.hist_bins);
            tail_scratch.reset();
            for (std::int64_t i = 0; i < count; ++i) {
              tail_scratch.add(out[i].ratio);
            }
            // Integer bin merge: exact in any completion order.
            lbb::core::MutexLock lock(tail_mu);
            cell.tail.merge(tail_scratch);
          });
      result.cells.push_back(std::move(cell));
    }
  }
  return result;
}

void write_tail_csv(const TailStudyResult& result, const std::string& path) {
  lbb::stats::CsvWriter csv;
  csv.set_header({"algo", "log2_n", "trials", "upper_bound", "mean", "p50",
                  "p90", "p99", "p999", "max"});
  for (const TailStudyCell& cell : result.cells) {
    csv.add_row({cell.display, std::to_string(cell.log2_n),
                 std::to_string(cell.trials), std::to_string(cell.upper_bound),
                 std::to_string(cell.ratio.mean()),
                 std::to_string(cell.tail.quantile(0.50)),
                 std::to_string(cell.tail.quantile(0.90)),
                 std::to_string(cell.tail.quantile(0.99)),
                 std::to_string(cell.tail.quantile(0.999)),
                 std::to_string(cell.tail.max())});
  }
  csv.write_file(path);
}

}  // namespace lbb::experiments
