#include "experiments/ratio_experiment.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/lbb.hpp"
#include "core/partitioner.hpp"
#include "core/workspace.hpp"
#include "experiments/batch_trials.hpp"
#include "experiments/trial_engine.hpp"
#include "problems/synthetic.hpp"
#include "stats/csv.hpp"
#include "stats/rng.hpp"

namespace lbb::experiments {

using lbb::core::Partitioner;
using lbb::core::PartitionerConfig;
using lbb::core::PartitionerRegistry;
using lbb::core::RunContext;
using lbb::problems::AlphaDistribution;
using lbb::problems::SyntheticProblem;

const char* algo_name(Algo algo) {
  switch (algo) {
    case Algo::kBA:
      return "BA";
    case Algo::kBAStar:
      return "BA*";
    case Algo::kBAHF:
      return "BA-HF";
    case Algo::kHF:
      return "HF";
  }
  return "?";
}

const char* algo_key(Algo algo) {
  switch (algo) {
    case Algo::kBA:
      return "ba";
    case Algo::kBAStar:
      return "ba_star";
    case Algo::kBAHF:
      return "ba_hf";
    case Algo::kHF:
      return "hf";
  }
  return "?";
}

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

namespace {

std::string cell_key(std::string_view algo, std::int32_t log2_n) {
  std::string key(algo);
  key += ':';
  key += std::to_string(log2_n);
  return key;
}

struct TrialOutcome {
  double ratio = 0.0;
  std::int64_t bisections = 0;
};

/// The calling thread's trial workspace: scratch buffers, piece pool and
/// arena reused by every trial chunk this thread executes.  One per worker
/// thread, so trials never contend for it; steady-state trials allocate
/// nothing (the `perf` gate pins this for the builtin families).
lbb::core::TrialWorkspace<SyntheticProblem>& thread_workspace() {
  thread_local lbb::core::TrialWorkspace<SyntheticProblem> ws;
  return ws;
}

/// The calling thread's batched-trial runner (SoA workspace).  Like
/// thread_workspace(), capacity is retained across chunks and cells, so
/// steady-state batched chunks allocate nothing.
BatchTrialRunner& thread_batch_runner() {
  thread_local BatchTrialRunner runner;
  return runner;
}

/// One trial through the registry's typed escape hatch (the builtin
/// families monomorphize on SyntheticProblem exactly like the former
/// per-algorithm switch); custom partitioners go through the erased
/// interface.  The context carries the instance seed, so seed-deriving
/// strategies (oblivious:random, phf:probe) stay deterministic per trial.
/// Typed partitions borrow `ws`'s storage and are recycled back into it
/// once the trial statistics are extracted.
TrialOutcome run_trial(const Partitioner& part, RunContext& ctx,
                       lbb::core::TrialWorkspace<SyntheticProblem>& ws,
                       std::uint64_t seed, const AlphaDistribution& dist,
                       std::int32_t n) {
  SyntheticProblem root(seed, dist);
  if (auto typed =
          lbb::core::try_typed_partition(part, ctx, ws, std::move(root), n)) {
    const TrialOutcome outcome{typed->ratio(), typed->bisections};
    ws.recycle(std::move(*typed));
    ws.reset();
    return outcome;
  }
  const auto erased =
      part.run(ctx, lbb::core::AnyProblem(SyntheticProblem(seed, dist)), n);
  return {erased.ratio(), erased.bisections};
}

}  // namespace

double ratio_of(Algo algo, std::uint64_t seed, const AlphaDistribution& dist,
                std::int32_t n, double beta) {
  const auto part = PartitionerRegistry::instance().create(
      algo_key(algo), PartitionerConfig{dist.lower_bound(), beta, 0, {}});
  RunContext ctx(seed);
  return run_trial(*part, ctx, thread_workspace(), seed, dist, n).ratio;
}

const RatioCell& RatioExperimentResult::cell(std::string_view algo,
                                             std::int32_t log2_n) const {
  if (!cell_index.empty()) {
    const auto it = cell_index.find(cell_key(algo, log2_n));
    if (it == cell_index.end()) {
      throw std::out_of_range("RatioExperimentResult::cell: no such cell");
    }
    return cells[it->second];
  }
  for (const RatioCell& c : cells) {
    if (c.algo == algo && c.log2_n == log2_n) return c;
  }
  throw std::out_of_range("RatioExperimentResult::cell: no such cell");
}

const RatioCell& RatioExperimentResult::cell(Algo algo,
                                             std::int32_t log2_n) const {
  return cell(std::string_view(algo_key(algo)), log2_n);
}

void RatioExperimentResult::rebuild_index() {
  cell_index.clear();
  cell_index.reserve(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    cell_index[cell_key(cells[i].algo, cells[i].log2_n)] = i;
  }
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
  if (config.batch < 0) {
    throw std::invalid_argument("run_ratio_experiment: batch must be >= 0");
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
    // Builtin piece-free families run through the SoA batch kernels when a
    // lane width > 1 is configured; everything else keeps the scalar path.
    // Either way the outcomes are bitwise equal (see batch_trials.hpp).
    const lbb::core::BuiltinAlgo builtin = part.builtin();
    const bool batched =
        config.batch > 1 && BatchTrialRunner::supports(builtin);
    const std::int32_t batch_width =
        batched ? std::min<std::int32_t>(config.batch,
                                         lbb::core::batch::BatchWorkspace::
                                             kMaxWidth)
                : 1;
    for (const std::int32_t k : config.log2_n) {
      const std::int32_t n = 1 << k;
      std::int32_t trials = config.trials;
      if (config.bisection_budget > 0) {
        const auto cap = static_cast<std::int32_t>(std::max<std::int64_t>(
            config.bisection_budget / std::max<std::int64_t>(n, 1),
            config.min_trials));
        trials = std::min(trials, cap);
      }
      RatioCell cell;
      cell.algo = config.algos[a];
      cell.display = part.info().display;
      cell.log2_n = k;
      cell.trials = trials;
      cell.upper_bound = part.ratio_bound(n);

      // Fan the trials out in fixed chunks of kTrialChunk.  Chunking and
      // the merge order below depend only on `trials`, so the cell is
      // bit-identical for every thread count.
      const std::int64_t chunks = detail::TrialEngine::chunk_count(trials);
      std::vector<lbb::stats::RunningStats> chunk_ratio(
          static_cast<std::size_t>(chunks));
      std::vector<std::int64_t> chunk_bisections(
          static_cast<std::size_t>(chunks), 0);
      const auto run_chunk = [&](std::int64_t chunk, std::int64_t lo,
                                 std::int64_t hi) {
        lbb::stats::RunningStats local;
        std::int64_t bisections = 0;
        if (batched) {
          BatchTrialOutcome outcomes[kTrialChunk];
          for (std::int64_t t = lo; t < hi; t += batch_width) {
            engine.ensure_alive(config.cancel, "ratio experiment cancelled");
            thread_batch_runner().run(
                builtin, config.dist, config.seed, t,
                std::min<std::int64_t>(t + batch_width, hi), n, batch_width,
                outcomes + (t - lo));
          }
          // Accumulate in trial order: identical to the scalar loop below.
          for (std::int64_t t = lo; t < hi; ++t) {
            local.add(outcomes[t - lo].ratio);
            bisections += outcomes[t - lo].bisections;
          }
        } else {
          lbb::core::TrialWorkspace<SyntheticProblem>& ws = thread_workspace();
          for (std::int64_t t = lo; t < hi; ++t) {
            engine.ensure_alive(config.cancel, "ratio experiment cancelled");
            // Instance seed depends on the trial only: all algorithms and
            // all N share instances where possible (paired comparison).
            const std::uint64_t instance_seed =
                lbb::stats::mix64(config.seed, static_cast<std::uint64_t>(t));
            RunContext ctx(instance_seed);
            ctx.set_cancel_token(config.cancel);
            const TrialOutcome outcome =
                run_trial(part, ctx, ws, instance_seed, config.dist, n);
            local.add(outcome.ratio);
            bisections += outcome.bisections;
          }
        }
        chunk_ratio[static_cast<std::size_t>(chunk)] = local;
        chunk_bisections[static_cast<std::size_t>(chunk)] = bisections;
      };

      engine.run_chunks(trials, run_chunk);
      // Fixed-order reduction (ascending chunk index).
      for (std::int64_t c = 0; c < chunks; ++c) {
        cell.ratio.merge(chunk_ratio[static_cast<std::size_t>(c)]);
        cell.bisections += chunk_bisections[static_cast<std::size_t>(c)];
      }
      result.cells.push_back(std::move(cell));
    }
  }
  result.rebuild_index();
  return result;
}

}  // namespace lbb::experiments
