// Google-benchmark microbenchmarks of the core algorithms: engineering
// ablation for the sequential costs behind the simulation experiments
// (HF's heap, BA's recursion, per-bisection cost of the problem classes).
#include <benchmark/benchmark.h>

#include "bench/experiment_registry.hpp"

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <vector>

#include "core/hf.hpp"
#include "core/lbb.hpp"
#include "core/workspace.hpp"
#include "problems/alpha_dist.hpp"
#include "problems/fe_tree.hpp"
#include "problems/grid_domain.hpp"
#include "problems/pivot_list.hpp"
#include "problems/synthetic.hpp"
#include "runtime/par_partition.hpp"
#include "runtime/thread_pool.hpp"
#include "stats/alloc_stats.hpp"

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

// Workspace variants of the partition benchmarks: the steady-state hot
// path of the experiment engine (warm TrialWorkspace, pieces recycled).
// The allocs_per_op counter reads 0 here -- the `perf` ctest gate asserts
// exactly that -- while the workspace-free variants above pay the
// per-call scratch allocations.
void BM_HfPartitionWorkspace(benchmark::State& state) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  const SyntheticProblem p(1, AlphaDistribution::uniform(0.1, 0.5));
  lbb::core::TrialWorkspace<SyntheticProblem> ws;
  ws.recycle(lbb::core::hf_partition(ws, p, n));  // warm-up
  const auto before = lbb::stats::alloc_stats();
  for (auto _ : state) {
    auto part = lbb::core::hf_partition(ws, p, n);
    benchmark::DoNotOptimize(part.pieces.data());
    ws.recycle(std::move(part));
  }
  set_alloc_counters(state, lbb::stats::alloc_stats() - before, n);
  state.SetItemsProcessed(state.iterations() * (n - 1));
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

// Parallel BA over a warm single-worker pool: the same contract as
// BM_BaPartitionWorkspace (allocs_per_op == 0 steady-state, asserted by
// the perf gate) plus the runtime's frontier/frame/compaction overhead.
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
  benchmark::RegisterBenchmark("BM_HfPartitionWorkspace",
                               BM_HfPartitionWorkspace)
      ->RangeMultiplier(8)
      ->Range(64, 1 << 15);
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
