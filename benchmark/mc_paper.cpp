// Workload mc_paper: what a reproducer of Table 1 and Fig. 5 runs.
//
// The measured phase is a sequence of passes over the ratio grid (both
// distributions x {ba, ba_star, ba_hf, hf} x log2 N in {6, 10, 14}) at 4
// threads, one run_ratio_experiment call per (distribution, algorithm) so
// each algorithm's share is timed from outside the engine.  It also runs
// the tail study once and a threads=1 pass of the Fig. 5 grid, which must be
// bit-identical to the first 4-thread pass.  Time goes to the experiments
// chunk engine, the batch lanes, the stats merges and ThreadPool scaling;
// HfHeap at large N, work stealing and the service are never touched.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/partitioner.hpp"
#include "experiments/batch_trials.hpp"
#include "experiments/ratio_experiment.hpp"
#include "experiments/tail_study.hpp"
#include "harness.hpp"
#include "problems/alpha_dist.hpp"
#include "problems/synthetic.hpp"
#include "stats/rng.hpp"

namespace lbb::perf {
namespace {

using experiments::RatioCell;
using experiments::RatioExperimentConfig;
using experiments::RatioExperimentResult;
using problems::AlphaDistribution;

constexpr std::int32_t kThreads = 4;
constexpr std::int64_t kBudget = std::int64_t{1} << 25;

const std::vector<std::string>& pass_algos() {
  static const std::vector<std::string> algos = {"ba", "ba_star", "ba_hf",
                                                 "hf"};
  return algos;
}

struct Dist {
  double lo;
  double hi;
};
// Table 1 uses U[0.01, 0.5]; Fig. 5 uses U[0.1, 0.5].
constexpr Dist kTable1{0.01, 0.5};
constexpr Dist kFig5{0.1, 0.5};

RatioExperimentConfig grid_config(const Dist& dist, const std::string& algo,
                                  std::int32_t trials, std::uint64_t seed,
                                  std::int32_t threads) {
  RatioExperimentConfig config;
  config.dist = AlphaDistribution::uniform(dist.lo, dist.hi);
  config.log2_n = {6, 10, 14};
  config.trials = trials;
  config.seed = seed;
  config.algos = {algo};
  config.bisection_budget = kBudget;
  config.threads = threads;
  return config;
}

struct Timed {
  RatioExperimentResult result;
  double seconds = 0.0;
};

Timed timed_ratio(const RatioExperimentConfig& config) {
  Span span("experiments.run_ratio_experiment", config.trials);
  const std::int64_t t0 = now_ns();
  RatioExperimentResult result = experiments::run_ratio_experiment(config);
  return {std::move(result), seconds_between(t0, now_ns())};
}

/// One pass over the grid: per-algorithm seconds (both distributions) and
/// every cell it produced, Fig. 5 cells kept apart for the identity check.
struct Pass {
  std::vector<double> algo_seconds;
  double fig5_seconds = 0.0;
  double seconds = 0.0;
  std::int64_t bisections = 0;
  std::int64_t trials = 0;
  std::vector<RatioCell> cells;
  std::vector<RatioCell> fig5_cells;
};

Pass run_pass(std::int32_t trials, std::uint64_t seed, std::int32_t threads,
              bool fig5_only) {
  Pass pass;
  for (const std::string& algo : pass_algos()) {
    double algo_seconds = 0.0;
    for (const Dist* dist : {&kTable1, &kFig5}) {
      if (fig5_only && dist != &kFig5) continue;
      Timed t = timed_ratio(grid_config(*dist, algo, trials, seed, threads));
      algo_seconds += t.seconds;
      if (dist == &kFig5) pass.fig5_seconds += t.seconds;
      for (RatioCell& cell : t.result.cells) {
        pass.bisections += cell.bisections;
        pass.trials += cell.trials;
        if (dist == &kFig5) pass.fig5_cells.push_back(cell);
        pass.cells.push_back(std::move(cell));
      }
    }
    pass.algo_seconds.push_back(algo_seconds);
    pass.seconds += algo_seconds;
  }
  return pass;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// mix64 fold over the identity of a cell and the bits of its statistics.
std::uint64_t fold_cell(std::uint64_t h, const std::string& algo,
                        std::int64_t log2_n, std::int64_t trials,
                        std::int64_t bisections,
                        const stats::RunningStats& ratio) {
  for (const char ch : algo) h = stats::mix64(h, static_cast<std::uint8_t>(ch));
  for (const std::uint64_t v :
       {static_cast<std::uint64_t>(log2_n), static_cast<std::uint64_t>(trials),
        static_cast<std::uint64_t>(bisections), bits(ratio.mean()),
        bits(ratio.min()), bits(ratio.max())}) {
    h = stats::mix64(h, v);
  }
  return h;
}

bool same_cell(const RatioCell& a, const RatioCell& b) {
  return a.algo == b.algo && a.log2_n == b.log2_n && a.trials == b.trials &&
         a.bisections == b.bisections &&
         a.ratio.count() == b.ratio.count() &&
         bits(a.ratio.mean()) == bits(b.ratio.mean()) &&
         bits(a.ratio.variance()) == bits(b.ratio.variance()) &&
         bits(a.ratio.min()) == bits(b.ratio.min()) &&
         bits(a.ratio.max()) == bits(b.ratio.max());
}

/// Checks every cell's observed maximum against its proven bound; returns
/// the trials of cells that break it.
std::int64_t bound_failures(const std::vector<RatioCell>& cells,
                            Report& report) {
  std::int64_t failed = 0;
  for (const RatioCell& c : cells) {
    if (c.upper_bound > 0.0 && !(c.ratio.max() <= c.upper_bound)) {
      report.check("mc_paper.bound " + c.algo + " n=2^" +
                       std::to_string(c.log2_n),
                   false,
                   "max ratio " + std::to_string(c.ratio.max()) +
                       " > bound " + std::to_string(c.upper_bound));
      failed += c.trials;
    }
  }
  return failed;
}

/// Single-threaded replay of the kernels a ratio-grid pass executes, for
/// the engine-overhead split: the same trials, seeds and lane width,
/// without the engine's chunk dispatch, merges and pool.
double replay_kernels_seconds(const std::vector<RatioCell>& cells,
                              const Dist& dist, std::uint64_t seed) {
  const AlphaDistribution alpha_dist =
      AlphaDistribution::uniform(dist.lo, dist.hi);
  core::PartitionerConfig pc;
  pc.alpha = dist.lo;
  pc.beta = 1.0;
  double total = 0.0;
  experiments::BatchTrialRunner runner;
  std::vector<experiments::BatchTrialOutcome> out(experiments::kTrialChunk);
  core::TrialWorkspace<problems::SyntheticProblem> ws;
  for (const RatioCell& cell : cells) {
    const auto part =
        core::PartitionerRegistry::instance().create(cell.algo, pc);
    const core::BuiltinAlgo builtin = part->builtin();
    const std::int32_t n = std::int32_t{1} << cell.log2_n;
    Span span("experiments.replay", cell.trials);
    const std::int64_t t0 = now_ns();
    if (experiments::BatchTrialRunner::supports(builtin)) {
      for (std::int64_t lo = 0; lo < cell.trials;
           lo += experiments::kTrialChunk) {
        const std::int64_t hi =
            std::min<std::int64_t>(lo + experiments::kTrialChunk, cell.trials);
        for (std::int64_t t = lo; t < hi; t += 8) {
          runner.run(builtin, alpha_dist, seed, t,
                     std::min<std::int64_t>(t + 8, hi), n, 8,
                     out.data() + (t - lo));
        }
        keep(out[0].ratio);
      }
      total += seconds_between(t0, now_ns());
      continue;
    }
    for (std::int64_t t = 0; t < cell.trials; ++t) {
      const std::uint64_t instance = stats::mix64(seed, static_cast<std::uint64_t>(t));
      core::RunContext ctx(instance);
      auto p = core::try_typed_partition(
          *part, ctx, ws, problems::SyntheticProblem(instance, alpha_dist), n);
      keep(p->bisections);
      ws.recycle(std::move(*p));
      ws.reset();
    }
    total += seconds_between(t0, now_ns());
  }
  return total;
}

}  // namespace

void run_mc_paper(const Options& opt, Report& report) {
  Span workload("benchmark.mc_paper");
  // Fixed work per pass, so the checksum and the counts do not depend on
  // --seconds or --smoke (which only shortens the run).
  constexpr std::int32_t kTrials = 250;
  constexpr std::int64_t kTailTrials = std::int64_t{1} << 15;
  const int min_passes = opt.smoke ? 2 : 3;

  // Set-up: a 32-trial pass touches every code path once (registry,
  // interned distributions, allocator growth, pool start-up).
  std::vector<double> setup;
  for (int i = 0; i < 3; ++i) {
    Span span("benchmark.setup");
    const std::int64_t t0 = now_ns();
    (void)run_pass(32, stats::mix64(opt.seed, 0x5e7u), kThreads, false);
    setup.push_back(seconds_between(t0, now_ns()));
  }

  std::vector<Pass> passes;
  Pass single;
  experiments::TailStudyResult tail;
  double tail_seconds = 0.0;
  std::int64_t failed = 0;
  const std::uint64_t seed0 = stats::mix64(opt.seed, 0);
  {
    Span measure("benchmark.measure");
    const std::int64_t start = now_ns();
    {
      experiments::TailStudyConfig tc;
      tc.log2_n = {10};
      tc.trials = kTailTrials;
      tc.algos = {"hf", "ba_hf"};
      tc.seed = stats::mix64(opt.seed, 0x7a11u);
      tc.threads = kThreads;
      Span span("experiments.run_tail_study", kTailTrials);
      const std::int64_t t0 = now_ns();
      tail = experiments::run_tail_study(tc);
      tail_seconds = seconds_between(t0, now_ns());
    }
    passes.push_back(run_pass(kTrials, seed0, kThreads, false));
    single = run_pass(kTrials, seed0, 1, /*fig5_only=*/true);
    for (std::uint64_t p = 1;
         static_cast<int>(passes.size()) < min_passes ||
         seconds_between(start, now_ns()) < opt.seconds;
         ++p) {
      passes.push_back(
          run_pass(kTrials, stats::mix64(opt.seed, p), kThreads, false));
    }
  }

  // Correctness (off the clock).
  {
    Span span("benchmark.check");
    std::int64_t attempted = single.trials;
    for (const Pass& p : passes) {
      attempted += p.trials;
      failed += bound_failures(p.cells, report);
    }
    failed += bound_failures(single.cells, report);
    bool identical = single.fig5_cells.size() == passes[0].fig5_cells.size();
    for (std::size_t i = 0; identical && i < single.fig5_cells.size(); ++i) {
      identical = same_cell(single.fig5_cells[i], passes[0].fig5_cells[i]);
    }
    report.check("mc_paper.threads1_equals_threads4", identical,
                 identical ? "" : "threads=1 Fig. 5 cells differ");
    if (!identical) failed += single.trials;
    std::uint64_t checksum = 0;
    for (const RatioCell& c : passes[0].cells) {
      checksum = fold_cell(checksum, c.algo, c.log2_n, c.trials, c.bisections,
                           c.ratio);
    }
    for (const auto& c : tail.cells) {
      attempted += c.trials;
      checksum = fold_cell(checksum, c.algo, c.log2_n, c.trials, c.bisections,
                           c.ratio);
      if (c.upper_bound > 0.0 && !(c.ratio.max() <= c.upper_bound)) {
        report.check("mc_paper.tail_bound " + c.algo, false,
                     "max ratio above bound");
        failed += c.trials;
      }
    }
    char hex[19];
    std::snprintf(hex, sizeof hex, "0x%016llx",
                  static_cast<unsigned long long>(checksum));
    report.info("mc_paper.checksum", hex);
    report.count(attempted, failed);
    report.check("mc_paper.no_failed_trials", failed == 0);
  }

  // End-to-end metrics.
  const auto n_passes = static_cast<std::int64_t>(passes.size());
  report.metric("setup_s", median(setup), "s",
                static_cast<std::int64_t>(setup.size()));
  const std::vector<std::string>& algos = pass_algos();
  for (std::size_t a = 0; a < algos.size(); ++a) {
    if (algos[a] == "ba_star") continue;
    std::vector<double> ms;
    for (const Pass& p : passes) ms.push_back(p.algo_seconds[a] * 1e3);
    report.metric(algos[a] + "_ms_p50", median(ms), "ms", n_passes);
  }
  double wall = tail_seconds;
  double bisections = 0.0;
  for (const experiments::TailStudyCell& c : tail.cells) {
    bisections += static_cast<double>(c.bisections);
  }
  for (const Pass& p : passes) {
    wall += p.seconds;
    bisections += static_cast<double>(p.bisections);
  }
  report.metric("throughput_per_s", bisections / wall, "1/s", n_passes);

  if (!opt.layers) return;
  // Per-layer metrics of the experiments layer.
  report.metric("experiments.trials", static_cast<double>(passes[0].trials),
                "count", 1);
  report.metric("experiments.bisections",
                static_cast<double>(passes[0].bisections), "count", 1);
  std::vector<double> fig5;
  for (const Pass& p : passes) fig5.push_back(p.fig5_seconds);
  report.metric("experiments.scaling_4t", single.fig5_seconds / median(fig5),
                "x", n_passes);
  // The overhead is a few percent of either side, less than the host's
  // drift between two moments, so each threads=1 engine pass is paired
  // with a replay right after it and the median pair is reported.
  const int pairs = opt.smoke ? 1 : 3;
  std::vector<double> overhead;
  for (int i = 0; i < pairs; ++i) {
    const Pass engine = run_pass(kTrials, seed0, 1, /*fig5_only=*/true);
    const double replay =
        replay_kernels_seconds(engine.fig5_cells, kFig5, seed0);
    overhead.push_back(1.0 - replay / engine.fig5_seconds);
  }
  report.metric("experiments.engine_overhead_frac", median(overhead), "frac",
                pairs);
}

}  // namespace lbb::perf
