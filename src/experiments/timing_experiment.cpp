#include "experiments/timing_experiment.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "experiments/trial_engine.hpp"
#include "problems/synthetic.hpp"
#include "sim/par_ba.hpp"
#include "sim/phf.hpp"
#include "stats/rng.hpp"

namespace lbb::experiments {

using lbb::problems::SyntheticProblem;

const char* par_algo_name(ParAlgo algo) {
  switch (algo) {
    case ParAlgo::kPHFOracle:
      return "PHF(oracle)";
    case ParAlgo::kPHFBaPrime:
      return "PHF(BA')";
    case ParAlgo::kPHFProbe:
      return "PHF(probe)";
    case ParAlgo::kBA:
      return "BA";
    case ParAlgo::kBAHF:
      return "BA-HF";
    case ParAlgo::kSeqHF:
      return "HF(seq)";
  }
  return "?";
}

namespace {

/// One simulated execution of `algo` on `problem` (kSeqHF: the analytic
/// model, no simulation).  PHF's probing manager draws from `seed`.
lbb::sim::SimMetrics simulate(ParAlgo algo, SyntheticProblem problem,
                              std::int32_t n, double alpha, double beta,
                              const lbb::sim::CostModel& cost,
                              std::uint64_t seed) {
  using lbb::sim::FreeProcManager;
  lbb::sim::PhfSimOptions phf;
  phf.probe_seed = seed;
  switch (algo) {
    case ParAlgo::kPHFOracle:
      phf.manager = FreeProcManager::kOracle;
      break;
    case ParAlgo::kPHFBaPrime:
      phf.manager = FreeProcManager::kBaPrime;
      break;
    case ParAlgo::kPHFProbe:
      phf.manager = FreeProcManager::kRandomProbe;
      break;
    case ParAlgo::kBA:
      return lbb::sim::ba_simulate(problem, n, cost).metrics;
    case ParAlgo::kBAHF:
      return lbb::sim::ba_hf_simulate(problem, n, alpha, beta, cost).metrics;
    case ParAlgo::kSeqHF: {
      lbb::sim::SimMetrics m;
      m.makespan = sequential_hf_time(n, cost);
      m.messages = n - 1;
      return m;
    }
  }
  return lbb::sim::phf_simulate(problem, n, alpha, cost, phf).metrics;
}

/// Per-chunk accumulator mirroring TimingCell's statistics fields.
struct ChunkStats {
  lbb::stats::RunningStats makespan;
  lbb::stats::RunningStats messages;
  lbb::stats::RunningStats collective_ops;
  lbb::stats::RunningStats phase2_iterations;
};

}  // namespace

const TimingCell& TimingExperimentResult::cell(ParAlgo algo,
                                               std::int32_t log2_n) const {
  for (const TimingCell& c : cells) {
    if (c.algo == algo && c.log2_n == log2_n) return c;
  }
  throw std::out_of_range("TimingExperimentResult::cell: no such cell");
}

double sequential_hf_time(std::int32_t n, const lbb::sim::CostModel& cost) {
  if (n < 1) throw std::invalid_argument("sequential_hf_time: n < 1");
  return static_cast<double>(n - 1) * (cost.t_bisect + cost.t_send);
}

TimingExperimentResult run_timing_experiment(
    const TimingExperimentConfig& config) {
  TimingExperimentResult result;
  result.config = config;
  const double alpha = config.dist.lower_bound();

  detail::TrialEngine engine(config.threads, config.time_limit_seconds);

  for (const ParAlgo algo : config.algos) {
    for (const std::int32_t k : config.log2_n) {
      const std::int32_t n = 1 << k;
      TimingCell cell;
      cell.algo = algo;
      cell.log2_n = k;

      const std::int64_t trials = config.trials;
      const std::int64_t chunks = detail::TrialEngine::chunk_count(trials);
      std::vector<ChunkStats> chunk_stats(
          static_cast<std::size_t>(std::max<std::int64_t>(chunks, 0)));
      const auto run_chunk = [&](std::int64_t chunk, std::int64_t lo,
                                 std::int64_t hi) {
        ChunkStats local;
        for (std::int64_t t = lo; t < hi; ++t) {
          engine.ensure_alive(config.cancel, "timing experiment cancelled");
          const std::uint64_t instance_seed =
              lbb::stats::mix64(config.seed, static_cast<std::uint64_t>(t));
          const lbb::sim::SimMetrics m = simulate(
              algo, SyntheticProblem(instance_seed, config.dist), n, alpha,
              config.beta, config.cost, instance_seed);
          local.makespan.add(m.makespan);
          local.messages.add(static_cast<double>(m.messages));
          local.collective_ops.add(static_cast<double>(m.collective_ops));
          local.phase2_iterations.add(m.phase2_iterations);
        }
        chunk_stats[static_cast<std::size_t>(chunk)] = local;
      };

      engine.run_chunks(trials, run_chunk);
      // Fixed-order reduction (ascending chunk index): bit-stable for
      // every thread count.
      for (const ChunkStats& local : chunk_stats) {
        cell.makespan.merge(local.makespan);
        cell.messages.merge(local.messages);
        cell.collective_ops.merge(local.collective_ops);
        cell.phase2_iterations.merge(local.phase2_iterations);
      }
      result.cells.push_back(std::move(cell));
    }
  }
  return result;
}

}  // namespace lbb::experiments
