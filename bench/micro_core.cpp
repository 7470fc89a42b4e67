// Google-benchmark microbenchmarks of the core algorithms: engineering
// ablation for the sequential costs behind the simulation experiments
// (HF's heap, BA's recursion, per-bisection cost of the problem classes).
#include <benchmark/benchmark.h>

#include "bench/experiment_registry.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/hf.hpp"
#include "core/lbb.hpp"
#include "core/partitioner.hpp"
#include "core/workspace.hpp"
#include "experiments/batch_trials.hpp"
#include "problems/alpha_dist.hpp"
#include "problems/fe_tree.hpp"
#include "problems/grid_domain.hpp"
#include "problems/pivot_list.hpp"
#include "problems/synthetic.hpp"
#include "runtime/par_partition.hpp"
#include "runtime/thread_pool.hpp"
#include "stats/alloc_stats.hpp"
#include "stats/rng.hpp"

namespace {

using lbb::problems::AlphaDistribution;
using lbb::problems::SyntheticProblem;

void BM_HfPartition(benchmark::State& state) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  const SyntheticProblem p(1, AlphaDistribution::uniform(0.1, 0.5));
  for (auto _ : state) {
    auto part = lbb::core::hf_partition(p, n);
    benchmark::DoNotOptimize(part.pieces.data());
  }
  state.SetItemsProcessed(state.iterations() * (n - 1));
}

void BM_BaPartition(benchmark::State& state) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  const SyntheticProblem p(1, AlphaDistribution::uniform(0.1, 0.5));
  for (auto _ : state) {
    auto part = lbb::core::ba_partition(p, n);
    benchmark::DoNotOptimize(part.pieces.data());
  }
  state.SetItemsProcessed(state.iterations() * (n - 1));
}

void BM_BaHfPartition(benchmark::State& state) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  const SyntheticProblem p(1, AlphaDistribution::uniform(0.1, 0.5));
  for (auto _ : state) {
    auto part = lbb::core::ba_hf_partition(
        p, n, lbb::core::BaHfParams{0.1, 1.0});
    benchmark::DoNotOptimize(part.pieces.data());
  }
  state.SetItemsProcessed(state.iterations() * (n - 1));
}

/// Attaches allocations-per-iteration and allocations-per-bisection
/// counters to a partitioning benchmark (live because lbb_bench links the
/// allocation probe; harmless zeros otherwise).
void set_alloc_counters(benchmark::State& state,
                        const lbb::stats::AllocStats& delta, std::int32_t n) {
  const auto iters = static_cast<double>(state.iterations());
  if (iters <= 0.0) return;
  const double per_iter = static_cast<double>(delta.count) / iters;
  state.counters["allocs_per_op"] = per_iter;
  state.counters["allocs_per_bisection"] =
      n > 1 ? per_iter / static_cast<double>(n - 1) : 0.0;
}

/// BM_HfPartitionWorkspace's distributions, by its second argument: the
/// two wide uniform classes and the two that tie on every level.
AlphaDistribution hf_distribution(std::int64_t which) {
  switch (which) {
    case 1:
      return AlphaDistribution::uniform(0.01, 0.5);
    case 2:
      return AlphaDistribution::point(0.5);
    case 3:
      return AlphaDistribution::two_point(0.1, 0.5);
    default:
      return AlphaDistribution::uniform(0.1, 0.5);
  }
}

/// Instance mix64(1, i) of `dist` for the i-th call, as large_n draws one
/// per round: HF's walk then starts from the previous instance's answer
/// (TrialWorkspace::hf_walk_start), not from a replay of this one's.
SyntheticProblem hf_instance(std::uint64_t i, const AlphaDistribution& dist) {
  return SyntheticProblem(lbb::stats::mix64(1, i), dist);
}

// Workspace variants of the partition benchmarks: the steady-state hot
// path of the experiment engine (warm TrialWorkspace, pieces recycled).
// The allocs_per_op counter reads 0 here -- the `perf` ctest gate asserts
// exactly that -- while the workspace-free variants above pay the
// per-call scratch allocations.
void BM_HfPartitionWorkspace(benchmark::State& state) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  const AlphaDistribution dist = hf_distribution(state.range(1));
  state.SetLabel(dist.describe());
  lbb::core::TrialWorkspace<SyntheticProblem> ws;
  std::uint64_t call = 0;
  ws.recycle(lbb::core::hf_partition(ws, hf_instance(call++, dist), n));
  const auto before = lbb::stats::alloc_stats();
  for (auto _ : state) {
    auto part = lbb::core::hf_partition(ws, hf_instance(call++, dist), n);
    benchmark::DoNotOptimize(part.pieces.data());
    ws.recycle(std::move(part));
  }
  set_alloc_counters(state, lbb::stats::alloc_stats() - before, n);
  state.SetItemsProcessed(state.iterations() * (n - 1));
}

/// One path of HF's full partitions, by the third argument, at any n: 0
/// the band queue (the walk flag cleared before each call), 1 the
/// threshold path (detail::hf_threshold_run, called directly, so it runs
/// below kHfThresholdMinPieces too; a run that gives it up is skipped).
/// Each call partitions the next instance (hf_instance).
/// Run with --benchmark_repetitions and
/// --benchmark_enable_random_interleaving=true, so both paths alternate
/// in one process: the ratio of their medians per (n, distribution) is
/// the cut-over table of DESIGN.md section 7.7.
void BM_HfFullPath(benchmark::State& state) {
  namespace core = lbb::core;
  const auto n = static_cast<std::int32_t>(state.range(0));
  const AlphaDistribution dist = hf_distribution(state.range(1));
  const bool threshold = state.range(2) != 0;
  state.SetLabel(dist.describe() + (threshold ? " threshold" : " queue"));
  core::TrialWorkspace<SyntheticProblem> ws;
  std::uint64_t call = 0;
  const auto run = [&] {
    const SyntheticProblem p = hf_instance(call++, dist);
    if (!threshold) {
      ws.hf_walk = false;
      return core::hf_partition(ws, p, n);
    }
    core::Partition<SyntheticProblem> out;
    out.processors = n;
    out.total_weight = p.weight();
    out.pieces = ws.take_pieces(static_cast<std::size_t>(n));
    core::detail::BuildContext<SyntheticProblem> ctx(out, false);
    if (!core::detail::hf_threshold_run(ctx, ws, p, n,
                                        {0, 0, core::kNoNode})) {
      state.SkipWithError("the path gave up: overflow, failed check or tie");
    }
    return out;
  };
  ws.recycle(run());  // warm-up
  for (auto _ : state) {
    auto part = run();
    benchmark::DoNotOptimize(part.pieces.data());
    ws.recycle(std::move(part));
  }
  state.SetItemsProcessed(state.iterations() * (n - 1));
}

/// One mc_paper cell under the max sink: 250 trials of `algo` at 2^log2_n
/// through experiments::BatchTrialRunner::run, in calls of 8 trials (as
/// the experiment engine's chunks make them), on Table 1's or Fig. 5's
/// distribution with beta = 1.  Items are the reported bisections, so
/// items/s counts the bisections a cell accounts, made or not.  Run with
/// --benchmark_enable_random_interleaving=true under taskset for the
/// per-cell tables of DESIGN.md section 10.1.
void BM_MaxSinkTrials(benchmark::State& state, const char* algo,
                      std::int32_t log2_n, const AlphaDistribution& dist) {
  namespace experiments = lbb::experiments;
  constexpr std::int64_t kTrials = 250;
  constexpr std::int64_t kCall = 8;
  const std::int32_t n = std::int32_t{1} << log2_n;
  state.SetLabel(dist.describe());
  const lbb::core::BuiltinAlgo builtin =
      lbb::core::PartitionerRegistry::instance()
          .create(algo, lbb::core::PartitionerConfig{dist.lower_bound(), 1.0,
                                                     0, {}})
          ->builtin();
  experiments::BatchTrialRunner runner;
  experiments::BatchTrialOutcome out[kCall];
  std::int64_t bisections = 0;
  const auto cell = [&] {
    for (std::int64_t lo = 0; lo < kTrials; lo += kCall) {
      const std::int64_t hi = std::min(lo + kCall, kTrials);
      runner.run(builtin, dist, /*base_seed=*/1, lo, hi, n,
                 static_cast<std::int32_t>(kCall), out);
      for (std::int64_t t = 0; t < hi - lo; ++t) {
        bisections += out[t].bisections;
      }
    }
  };
  cell();  // warm-up
  bisections = 0;
  for (auto _ : state) cell();
  state.SetItemsProcessed(bisections);
}

void BM_BaPartitionWorkspace(benchmark::State& state) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  const SyntheticProblem p(1, AlphaDistribution::uniform(0.1, 0.5));
  lbb::core::TrialWorkspace<SyntheticProblem> ws;
  ws.recycle(lbb::core::ba_partition(ws, p, n));  // warm-up
  const auto before = lbb::stats::alloc_stats();
  for (auto _ : state) {
    auto part = lbb::core::ba_partition(ws, p, n);
    benchmark::DoNotOptimize(part.pieces.data());
    ws.recycle(std::move(part));
  }
  set_alloc_counters(state, lbb::stats::alloc_stats() - before, n);
  state.SetItemsProcessed(state.iterations() * (n - 1));
}

void BM_BaHfPartitionWorkspace(benchmark::State& state) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  const SyntheticProblem p(1, AlphaDistribution::uniform(0.1, 0.5));
  const lbb::core::BaHfParams params{0.1, 1.0};
  lbb::core::TrialWorkspace<SyntheticProblem> ws;
  ws.recycle(lbb::core::ba_hf_partition(ws, p, n, params));  // warm-up
  const auto before = lbb::stats::alloc_stats();
  for (auto _ : state) {
    auto part = lbb::core::ba_hf_partition(ws, p, n, params);
    benchmark::DoNotOptimize(part.pieces.data());
    ws.recycle(std::move(part));
  }
  set_alloc_counters(state, lbb::stats::alloc_stats() - before, n);
  state.SetItemsProcessed(state.iterations() * (n - 1));
}

// Erased bisect on the small-buffer path: both children are constructed
// in place inside the child handles (no heap traffic; the allocs_per_op
// counter pins it).
void BM_AnyProblemBisect(benchmark::State& state) {
  const SyntheticProblem p(1, AlphaDistribution::uniform(0.1, 0.5));
  const auto before = lbb::stats::alloc_stats();
  for (auto _ : state) {
    lbb::core::AnyProblem erased{SyntheticProblem(p)};
    auto children = erased.bisect();
    benchmark::DoNotOptimize(children.first.weight());
  }
  set_alloc_counters(state, lbb::stats::alloc_stats() - before, 2);
}

void BM_HfWithTreeRecording(benchmark::State& state) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  const SyntheticProblem p(1, AlphaDistribution::uniform(0.1, 0.5));
  lbb::core::PartitionOptions opt;
  opt.record_tree = true;
  for (auto _ : state) {
    auto part = lbb::core::hf_partition(p, n, opt);
    benchmark::DoNotOptimize(part.tree.size());
  }
  state.SetItemsProcessed(state.iterations() * (n - 1));
}

// The heap that orders HF's "always split the heaviest" loop, isolated
// from the bisection work: push n entries in a scrambled weight order,
// then pop them all.  This is the pattern hf_run drives (interleaved in
// reality, but push-all/pop-all bounds both sift directions).
void BM_HfHeapPushPop(benchmark::State& state) {
  const auto n = static_cast<std::int64_t>(state.range(0));
  std::vector<double> weights(static_cast<std::size_t>(n));
  std::uint64_t x = 0x9e3779b97f4a7c15ull;  // splitmix-style scramble
  for (auto& w : weights) {
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    w = static_cast<double>(z ^ (z >> 31)) * 0x1p-64;
  }
  for (auto _ : state) {
    lbb::core::detail::HfHeap heap;
    heap.reserve(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) {
      heap.push({weights[static_cast<std::size_t>(i)], i,
                 static_cast<std::int32_t>(i)});
    }
    double sink = 0.0;
    while (!heap.empty()) sink += heap.pop().weight;
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * n);
}

// Pop-side sift-down of the 4-ary HF heap in isolation: refill the heap
// from a pre-scrambled entry pool (timing paused), then drain it.  This is
// the loop the child-cacheline software prefetch in HfHeap::pop targets;
// compare against seed baselines at n >= 8192 where the heap outgrows L1/L2
// and the prefetch starts paying.
void BM_HfSiftDown(benchmark::State& state) {
  const auto n = static_cast<std::int64_t>(state.range(0));
  std::vector<lbb::core::detail::HfHeapEntry> pool(
      static_cast<std::size_t>(n));
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (std::int64_t i = 0; i < n; ++i) {
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    pool[static_cast<std::size_t>(i)] = {
        static_cast<double>(z ^ (z >> 31)) * 0x1p-64, i,
        static_cast<std::int32_t>(i)};
  }
  lbb::core::detail::HfHeap heap;
  heap.reserve(static_cast<std::size_t>(n));
  for (auto _ : state) {
    state.PauseTiming();
    heap.clear();
    for (const auto& e : pool) heap.push(e);
    state.ResumeTiming();
    double sink = 0.0;
    while (!heap.empty()) sink += heap.pop().weight;
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_SyntheticBisect(benchmark::State& state) {
  const SyntheticProblem p(1, AlphaDistribution::uniform(0.1, 0.5));
  for (auto _ : state) {
    auto children = p.bisect();
    benchmark::DoNotOptimize(children.first.weight());
  }
}

void BM_PivotListBisect(benchmark::State& state) {
  const lbb::problems::PivotListProblem p(1, 1 << 20);
  for (auto _ : state) {
    auto children = p.bisect();
    benchmark::DoNotOptimize(children.first.count());
  }
}

void BM_FeTreeBisect(benchmark::State& state) {
  const auto tree = lbb::problems::FeTree::adaptive_refinement(
      3, static_cast<std::int32_t>(state.range(0)));
  const lbb::problems::FeTreeProblem p(tree);
  for (auto _ : state) {
    auto children = p.bisect();
    benchmark::DoNotOptimize(children.first.weight());
  }
  state.SetComplexityN(state.range(0));
}

void BM_GridBisect(benchmark::State& state) {
  const auto field = std::make_shared<const lbb::problems::GridField>(
      lbb::problems::GridField::random_hotspots(5, 512, 512));
  const lbb::problems::GridProblem p(field);
  for (auto _ : state) {
    auto children = p.bisect();
    benchmark::DoNotOptimize(children.first.weight());
  }
}

void BM_SplitProcessors(benchmark::State& state) {
  double heavier = 0.7;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        lbb::core::ba_split_processors(heavier, 1.0 - heavier + 0.3, 1024));
  }
}

// Task-submission cost of the ThreadPool, batched so queue/wake effects
// amortize like in the experiment engine.  Since the move-only
// UniqueFunction rewrite each submit_task costs exactly two allocations
// (the future's shared state + the heap-stored closure -- promise makes it
// larger than the SBO buffer); the old shared_ptr<packaged_task> wrapper
// paid three plus two atomic refcount bumps per hop.  allocs_per_op pins
// the new number.
void BM_ThreadPoolSubmitTask(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  lbb::runtime::ThreadPool pool(1);
  std::vector<std::future<std::uint64_t>> futures;
  futures.reserve(batch);
  const auto before = lbb::stats::alloc_stats();
  for (auto _ : state) {
    for (std::size_t i = 0; i < batch; ++i) {
      futures.push_back(pool.submit_task([i] {
        return static_cast<std::uint64_t>(i) * 2654435761u;
      }));
    }
    std::uint64_t sum = 0;
    for (auto& f : futures) sum += f.get();
    benchmark::DoNotOptimize(sum);
    futures.clear();
  }
  const auto delta = lbb::stats::alloc_stats() - before;
  const auto ops =
      static_cast<double>(state.iterations()) * static_cast<double>(batch);
  if (ops > 0.0) {
    state.counters["allocs_per_op"] =
        static_cast<double>(delta.count) / ops;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch));
}

// Move-only fire-and-forget path (no future): one heap allocation per task
// when the closure outgrows the SBO buffer, zero when it fits.
void BM_ThreadPoolSubmitInline(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  lbb::runtime::ThreadPool pool(1);
  std::atomic<std::uint64_t> sink{0};
  const auto before = lbb::stats::alloc_stats();
  for (auto _ : state) {
    for (std::size_t i = 0; i < batch; ++i) {
      pool.submit([&sink, i] {
        sink.fetch_add(i, std::memory_order_relaxed);
      });
    }
    pool.wait_idle();
    benchmark::DoNotOptimize(sink.load());
  }
  const auto delta = lbb::stats::alloc_stats() - before;
  const auto ops =
      static_cast<double>(state.iterations()) * static_cast<double>(batch);
  if (ops > 0.0) {
    state.counters["allocs_per_op"] =
        static_cast<double>(delta.count) / ops;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch));
}

// Parallel BA over a warm single-worker pool: BM_BaPartitionWorkspace plus
// the runtime's frontier descent, dispatch and join of the frames' runs.
// allocs_per_op counts the calling thread only; the perf gate
// (AllocGate.ParBaSteadyStateIsAllocationFree) holds the caller and the
// worker to zero.
void BM_ParBaPartitionWorkspace(benchmark::State& state) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  const SyntheticProblem p(1, AlphaDistribution::uniform(0.1, 0.5));
  lbb::runtime::ThreadPool pool(1);
  lbb::core::TrialWorkspace<SyntheticProblem> ws;
  for (int warm = 0; warm < 2; ++warm) {
    ws.recycle(lbb::runtime::par_ba_partition(pool, ws, p, n));
  }
  const auto before = lbb::stats::alloc_stats();
  for (auto _ : state) {
    auto part = lbb::runtime::par_ba_partition(pool, ws, p, n);
    benchmark::DoNotOptimize(part.pieces.data());
    ws.recycle(std::move(part));
  }
  set_alloc_counters(state, lbb::stats::alloc_stats() - before, n);
  state.SetItemsProcessed(state.iterations() * (n - 1));
}

/// Registers this file's benchmarks with google-benchmark.  Called by
/// run_micro_core() so `lbb_bench micro_core` runs exactly this set even
/// though the other micro suite is linked into the same binary.
void register_micro_core_benchmarks() {
  benchmark::RegisterBenchmark("BM_HfPartition", BM_HfPartition)
      ->RangeMultiplier(8)
      ->Range(64, 1 << 15);
  benchmark::RegisterBenchmark("BM_BaPartition", BM_BaPartition)
      ->RangeMultiplier(8)
      ->Range(64, 1 << 15);
  benchmark::RegisterBenchmark("BM_BaHfPartition", BM_BaHfPartition)
      ->RangeMultiplier(8)
      ->Range(64, 1 << 15);
  // (n, distribution): U[0.1,0.5] from 64 to 2^20, and all four at
  // 2^12-2^17 and 2^20, for parent/change runs across HF's threshold path.
  benchmark::RegisterBenchmark("BM_HfPartitionWorkspace",
                               BM_HfPartitionWorkspace)
      ->Apply([](benchmark::internal::Benchmark* b) {
        for (const std::int64_t n : {64, 512, 1 << 12, 1 << 13, 1 << 14,
                                     1 << 15, 1 << 16, 1 << 18, 1 << 20}) {
          b->Args({n, 0});
        }
        for (std::int64_t dist = 1; dist < 4; ++dist) {
          for (std::int64_t n = 1 << 12; n <= (1 << 17); n *= 2) {
            b->Args({n, dist});
          }
          b->Args({1 << 20, dist});
        }
      });
  benchmark::RegisterBenchmark("BM_HfFullPath", BM_HfFullPath)
      ->Apply([](benchmark::internal::Benchmark* b) {
        for (std::int64_t dist = 0; dist < 4; ++dist) {
          for (std::int64_t n = 1 << 12; n <= (1 << 17); n *= 2) {
            b->Args({n, dist, 0});
            b->Args({n, dist, 1});
          }
          b->Args({1 << 20, dist, 0});
          b->Args({1 << 20, dist, 1});
        }
      });
  // BM_MaxSinkTrials/<algo>/<log2 n>/<dist>: mc_paper's max-sink cells.
  for (const char* algo : {"hf", "ba", "ba_hf"}) {
    for (const std::int32_t log2_n : {6, 10, 14}) {
      for (const auto& [name, dist] :
           {std::pair{"table1", AlphaDistribution::uniform(0.01, 0.5)},
            std::pair{"fig5", AlphaDistribution::uniform(0.1, 0.5)}}) {
        const std::string id = std::string("BM_MaxSinkTrials/") + algo +
                               "/" + std::to_string(log2_n) + "/" + name;
        benchmark::RegisterBenchmark(id.c_str(), BM_MaxSinkTrials, algo,
                                     log2_n, dist)
            ->Unit(benchmark::kMillisecond);
      }
    }
  }
  benchmark::RegisterBenchmark("BM_BaPartitionWorkspace",
                               BM_BaPartitionWorkspace)
      ->RangeMultiplier(8)
      ->Range(64, 1 << 15);
  benchmark::RegisterBenchmark("BM_BaHfPartitionWorkspace",
                               BM_BaHfPartitionWorkspace)
      ->RangeMultiplier(8)
      ->Range(64, 1 << 15);
  benchmark::RegisterBenchmark("BM_AnyProblemBisect", BM_AnyProblemBisect);
  benchmark::RegisterBenchmark("BM_HfWithTreeRecording", BM_HfWithTreeRecording)
      ->Arg(4096);
  benchmark::RegisterBenchmark("BM_HfHeapPushPop", BM_HfHeapPushPop)
      ->RangeMultiplier(8)
      ->Range(64, 1 << 15);
  benchmark::RegisterBenchmark("BM_HfSiftDown", BM_HfSiftDown)
      ->RangeMultiplier(8)
      ->Range(512, 1 << 15);
  benchmark::RegisterBenchmark("BM_SyntheticBisect", BM_SyntheticBisect);
  benchmark::RegisterBenchmark("BM_PivotListBisect", BM_PivotListBisect);
  benchmark::RegisterBenchmark("BM_FeTreeBisect", BM_FeTreeBisect)
      ->RangeMultiplier(4)
      ->Range(256, 1 << 13);
  benchmark::RegisterBenchmark("BM_GridBisect", BM_GridBisect);
  benchmark::RegisterBenchmark("BM_SplitProcessors", BM_SplitProcessors);
  benchmark::RegisterBenchmark("BM_ThreadPoolSubmitTask",
                               BM_ThreadPoolSubmitTask)
      ->Arg(256);
  benchmark::RegisterBenchmark("BM_ThreadPoolSubmitInline",
                               BM_ThreadPoolSubmitInline)
      ->Arg(256);
  benchmark::RegisterBenchmark("BM_ParBaPartitionWorkspace",
                               BM_ParBaPartitionWorkspace)
      ->RangeMultiplier(8)
      ->Range(64, 1 << 15);
}

}  // namespace

int lbb::bench::run_micro_core(int argc, char** argv) {
  register_micro_core_benchmarks();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
