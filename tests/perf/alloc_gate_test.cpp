// Zero-allocation regression gate (ctest label `perf`).
//
// This binary links tools/alloc_probe/alloc_probe.cpp, so the global
// operator new/delete are interposed and lbb::stats::alloc_stats() reports
// live per-thread counters.  The gate asserts the core contract of the
// trial-workspace subsystem: once a TrialWorkspace is warm, the HF / BA /
// BA* / BA-HF hot loops perform EXACTLY ZERO heap allocations per
// partition call -- scratch comes from the workspace, pieces from its pool,
// and inline (small-buffer) erased problems bisect in place.
//
// If this test starts failing, some change re-introduced an allocation on
// the per-trial path; find it before it lands (compare the
// allocs_per_bisection counters of `lbb_bench micro_core`).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <latch>
#include <utility>
#include <vector>

#include "core/ba.hpp"
#include "core/ba_hf.hpp"
#include "core/hf.hpp"
#include "core/partitioner.hpp"
#include "core/problem.hpp"
#include "core/workspace.hpp"
#include "experiments/batch_trials.hpp"
#include "problems/alpha_dist.hpp"
#include "problems/synthetic.hpp"
#include "runtime/par_partition.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/thread_pool.hpp"
#include "service/partition_service.hpp"
#include "stats/alloc_stats.hpp"
#include "stats/tail_accumulator.hpp"

namespace lbb::core {
namespace {

using lbb::problems::AlphaDistribution;
using lbb::problems::SyntheticProblem;

constexpr std::int32_t kN = 1024;
constexpr int kTrials = 16;

SyntheticProblem make_problem(std::uint64_t seed) {
  return SyntheticProblem(seed, AlphaDistribution::uniform(0.1, 0.5));
}

/// Runs `body(ws, trial)` kTrials times on a warm workspace and returns
/// the allocation delta of the steady-state trials.
template <typename Body>
lbb::stats::AllocStats steady_state_allocs(Body&& body) {
  TrialWorkspace<SyntheticProblem> ws;
  // Warm-up: first calls size the scratch buffers, the piece pool, and the
  // AlphaDistribution intern pool.  Two rounds so every lazily-grown buffer
  // reaches its steady-state capacity.
  for (int warm = 0; warm < 2; ++warm) body(ws, warm);
  const auto before = lbb::stats::alloc_stats();
  for (int t = 0; t < kTrials; ++t) body(ws, 100 + t);
  return lbb::stats::alloc_stats() - before;
}

TEST(AllocGate, ProbeIsLinked) {
  // If this fails the gate below would pass vacuously -- the probe TU must
  // be compiled into this test binary (tests/CMakeLists.txt).
  ASSERT_TRUE(lbb::stats::alloc_probe_linked());
  const auto before = lbb::stats::alloc_stats();
  // Call the replaced operator directly: a `new int` expression could be
  // legally elided by the optimizer, a direct operator new call cannot.
  void* p = ::operator new(64);
  const auto delta = lbb::stats::alloc_stats() - before;
  ::operator delete(p);
  EXPECT_GE(delta.count, 1);
  EXPECT_GE(delta.bytes, 64);
}

TEST(AllocGate, HfPartitionSteadyStateIsAllocationFree) {
  const auto delta = steady_state_allocs(
      [](TrialWorkspace<SyntheticProblem>& ws, std::uint64_t seed) {
        auto part = hf_partition(ws, make_problem(seed), kN);
        ASSERT_EQ(part.pieces.size(), static_cast<std::size_t>(kN));
        ws.recycle(std::move(part));
      });
  EXPECT_EQ(delta.count, 0) << "HF hot loop allocated " << delta.bytes
                            << " bytes across " << kTrials << " warm trials";
}

TEST(AllocGate, HfPartitionLargeNSteadyStateIsAllocationFree) {
  // At 2^16 pieces HF builds the partition by threshold selection, whose
  // walk, sort and slot buffers must be sized by n alone: the seeds
  // measured here differ from the warm-up seeds.
  constexpr std::int32_t kLargeN = std::int32_t{1} << 16;
  static_assert(kLargeN >= detail::kHfThresholdMinPieces);
  const auto delta = steady_state_allocs(
      [](TrialWorkspace<SyntheticProblem>& ws, std::uint64_t seed) {
        auto part = hf_partition(ws, make_problem(seed), kLargeN);
        EXPECT_EQ(part.pieces.size(), static_cast<std::size_t>(kLargeN));
        EXPECT_TRUE(ws.hf_walk) << "the threshold path gave up";
        ws.recycle(std::move(part));
      });
  EXPECT_EQ(delta.count, 0) << "hf_partition at n=2^16 allocated "
                            << delta.bytes << " bytes across " << kTrials
                            << " warm trials";
}

TEST(AllocGate, HfPartitionFallbackSteadyStateIsAllocationFree) {
  // U[0.02, 0.04] overflows the walk's budget at 2^16, and point(0.5)'s
  // walk fits it but its nodes tie.  With the walk flag set again before
  // every call, each call walks, gives up (on the overflow, or in the
  // threshold path on the tie) and builds the partition with the
  // weight-band queue, whose chunk pool must be sized by n alone
  // (thousands of bands are in use); no path may allocate once warm.
  constexpr std::int32_t kLargeN = std::int32_t{1} << 16;
  for (const AlphaDistribution& dist : {AlphaDistribution::uniform(0.02, 0.04),
                                        AlphaDistribution::point(0.5)}) {
    const auto delta = steady_state_allocs(
        [&dist](TrialWorkspace<SyntheticProblem>& ws, std::uint64_t seed) {
          ws.hf_walk = true;
          auto part = hf_partition(ws, SyntheticProblem(seed, dist), kLargeN);
          EXPECT_EQ(part.pieces.size(), static_cast<std::size_t>(kLargeN));
          EXPECT_FALSE(ws.hf_walk)
              << dist.describe() << ": the walk did not give up";
          ws.recycle(std::move(part));
        });
    EXPECT_EQ(delta.count, 0)
        << "hf_partition's fallback at n=2^16 on " << dist.describe()
        << " allocated " << delta.bytes << " bytes across " << kTrials
        << " warm trials";
  }
}

TEST(AllocGate, BaPartitionSteadyStateIsAllocationFree) {
  const auto delta = steady_state_allocs(
      [](TrialWorkspace<SyntheticProblem>& ws, std::uint64_t seed) {
        auto part = ba_partition(ws, make_problem(seed), kN);
        ASSERT_EQ(part.pieces.size(), static_cast<std::size_t>(kN));
        ws.recycle(std::move(part));
      });
  EXPECT_EQ(delta.count, 0) << "BA hot loop allocated " << delta.bytes
                            << " bytes across " << kTrials << " warm trials";
}

TEST(AllocGate, BaStarPartitionSteadyStateIsAllocationFree) {
  const auto delta = steady_state_allocs(
      [](TrialWorkspace<SyntheticProblem>& ws, std::uint64_t seed) {
        auto part = ba_star_partition(ws, make_problem(seed), kN, 0.1);
        ws.recycle(std::move(part));
      });
  EXPECT_EQ(delta.count, 0);
}

TEST(AllocGate, BaHfPartitionSteadyStateIsAllocationFree) {
  const auto delta = steady_state_allocs(
      [](TrialWorkspace<SyntheticProblem>& ws, std::uint64_t seed) {
        auto part =
            ba_hf_partition(ws, make_problem(seed), kN, BaHfParams{0.1, 1.0});
        ASSERT_EQ(part.pieces.size(), static_cast<std::size_t>(kN));
        ws.recycle(std::move(part));
      });
  EXPECT_EQ(delta.count, 0) << "BA-HF hot loop allocated " << delta.bytes
                            << " bytes across " << kTrials << " warm trials";
}

TEST(AllocGate, InlineErasedBisectIsAllocationFree) {
  // Small-buffer path of AnyProblem: wrap + bisect of an inline problem
  // must not touch the heap (children are built in place in the handles).
  AnyProblem warm(make_problem(1));
  auto warm_children = warm.bisect();
  const auto before = lbb::stats::alloc_stats();
  for (int t = 0; t < kTrials; ++t) {
    AnyProblem erased(make_problem(static_cast<std::uint64_t>(t + 2)));
    auto [a, b] = erased.bisect();
    auto [aa, ab] = a.bisect();
    AnyProblem moved(std::move(aa));
    ASSERT_TRUE(moved.has_value());
  }
  const auto delta = lbb::stats::alloc_stats() - before;
  EXPECT_EQ(delta.count, 0)
      << "inline erased wrap/bisect/move allocated " << delta.bytes
      << " bytes";
}

// ---------------------------------------------------------------------------
// Parallel path: the warm par:* runtime must allocate nothing per
// partition call -- the frontier and the per-frame result slots live in
// the caller's thread-local scratch, frame scratch in worker-thread-local
// workspaces, pieces in the caller's TrialWorkspace, and the dispatch is
// parallel_for_chunks' allocation-free fork-join.  The gates count the
// caller's thread and every pool worker: whatever a worker allocates
// between two worker_allocs() reads counts, inside a frame or not.

/// Sum of `pool`'s workers' allocation counters.  Runs one chunk per
/// worker and holds each at a latch until all have started, so no worker
/// runs two of them and each reads its own thread's counter once.
std::int64_t worker_allocs(runtime::ThreadPool& pool) {
  const auto workers = static_cast<std::int64_t>(pool.size());
  std::latch started(workers);
  std::atomic<std::int64_t> total{0};
  runtime::parallel_for_chunks(
      pool, 0, workers, 1, [&](std::int64_t, std::int64_t, std::int64_t) {
        started.arrive_and_wait();
        total += lbb::stats::alloc_stats().count;
      });
  return total.load();
}

/// Allocations of one warm parallel call, on the caller and on every
/// worker of `pool`.
template <typename Run>
std::int64_t par_trial_allocs(runtime::ThreadPool& pool, Run&& run) {
  const std::int64_t workers_before = worker_allocs(pool);
  const auto before = lbb::stats::alloc_stats();
  run();
  const auto caller = lbb::stats::alloc_stats() - before;
  return caller.count + worker_allocs(pool) - workers_before;
}

TEST(AllocGate, WorkerProbeCountsEveryWorker) {
  // The par gates below would pass vacuously if worker_allocs() missed a
  // worker: chunks that each allocate once must raise it by exactly the
  // chunk count, whichever workers run them.
  runtime::ThreadPool pool(4);
  constexpr std::int64_t kChunks = 64;
  const auto allocate_once = [](std::int64_t, std::int64_t, std::int64_t) {
    void* p = ::operator new(64);
    ::operator delete(p);
  };
  // Warm-up: both dispatches grow the pool's task ring once.
  runtime::parallel_for_chunks(pool, 0, kChunks, 1, allocate_once);
  (void)worker_allocs(pool);
  for (int t = 0; t < kTrials; ++t) {
    const std::int64_t before = worker_allocs(pool);
    runtime::parallel_for_chunks(pool, 0, kChunks, 1, allocate_once);
    EXPECT_EQ(worker_allocs(pool) - before, kChunks) << "trial " << t;
  }
}

TEST(AllocGate, ParBaSteadyStateIsAllocationFree) {
  // A single-worker pool makes worker-side warm-up deterministic: the one
  // worker executes every frame, so two rounds size its thread-local
  // workspace exactly like the sequential gates above.
  runtime::ThreadPool pool(1);
  TrialWorkspace<SyntheticProblem> ws;
  const auto run = [&] {
    auto part = runtime::par_ba_partition(pool, ws, make_problem(3), kN);
    ASSERT_EQ(part.pieces.size(), static_cast<std::size_t>(kN));
    ws.recycle(std::move(part));
  };
  for (int warm = 0; warm < 2; ++warm) run();
  for (int t = 0; t < kTrials; ++t) {
    EXPECT_EQ(par_trial_allocs(pool, run), 0) << "trial " << t;
  }
}

TEST(AllocGate, ParBaHfSteadyStateIsAllocationFree) {
  runtime::ThreadPool pool(1);
  const BaHfParams params{0.1, 1.0};
  std::vector<Piece<SyntheticProblem>> recycled;
  const auto run = [&] {
    auto part =
        runtime::par_ba_hf_partition(pool, make_problem(5), kN, params);
    ASSERT_EQ(part.pieces.size(), static_cast<std::size_t>(kN));
    recycled = std::move(part.pieces);  // keep capacity live across trials
  };
  for (int warm = 0; warm < 2; ++warm) run();
  // The workspace-free overload allocates the output pieces vector per
  // call by design; everything else must be silent.  Hold the previous
  // vector so the allocator sees a steady malloc/free pattern, and allow
  // exactly that one allocation.
  for (int t = 0; t < kTrials; ++t) {
    EXPECT_LE(par_trial_allocs(pool, run), 1) << "trial " << t;
  }
}

TEST(AllocGate, ParBaMultiWorkerSteadyStateStabilizes) {
  // With two workers the warm-up is schedule-dependent (a worker sizes its
  // thread-local workspace the first time it executes a frame), so warm
  // until consecutive calls are allocation-free, then hold it to zero.  A
  // per-call regression fails every attempt; a late worker wake-up only
  // restarts the stabilization loop.
  runtime::ThreadPool pool(2);
  TrialWorkspace<SyntheticProblem> ws;
  const auto run = [&] {
    auto part = runtime::par_ba_partition(pool, ws, make_problem(7), kN);
    ASSERT_EQ(part.pieces.size(), static_cast<std::size_t>(kN));
    ws.recycle(std::move(part));
  };
  int consecutive_clean = 0;
  int calls = 0;
  while (consecutive_clean < kTrials && calls < 400) {
    ++calls;
    if (par_trial_allocs(pool, run) == 0) {
      ++consecutive_clean;
    } else {
      consecutive_clean = 0;
    }
  }
  EXPECT_EQ(consecutive_clean, kTrials)
      << "parallel path never reached an allocation-free steady state in "
      << calls << " calls";
}

TEST(AllocGate, ParallelForChunksSteadyStateIsAllocationFree) {
  // The experiment engine's dispatch of every Monte-Carlo cell: runner
  // tasks sit inline in the pool's warm ring, and the join lives in the
  // caller's frame, so the calling thread allocates nothing.
  runtime::ThreadPool pool(4);
  const auto run = [&] {
    runtime::parallel_for_chunks(
        pool, 0, 256 * 32, 32,
        [](std::int64_t, std::int64_t, std::int64_t) {});
  };
  for (int warm = 0; warm < 2; ++warm) run();
  for (int t = 0; t < kTrials; ++t) {
    const auto before = lbb::stats::alloc_stats();
    run();
    EXPECT_EQ((lbb::stats::alloc_stats() - before).count, 0) << "trial " << t;
  }
}

// ---------------------------------------------------------------------------
// Resident service: warm cache-hit serving must be end-to-end
// allocation-free.  A hit is answered inside try_submit, on the caller's
// thread: the key, the cache lookup, the latency sample and the completion
// touch only preallocated state, and wait() returns at once.  No pool task
// runs, so the worker side -- which the service attributes itself by
// measuring alloc_stats() deltas around every task it handles -- must stay
// at zero too.

TEST(AllocGate, ServiceWarmCacheHitsAreAllocationFree) {
  service::ServiceConfig cfg;
  cfg.workers = 1;
  service::PartitionService svc(cfg);
  service::RequestSpec spec;
  spec.algo = "ba";
  spec.n = 256;
  service::PartitionRequest req;
  // Warm: the first call computes and caches; a few hits exercise every
  // lazily-sized structure on the hit path.
  for (int warm = 0; warm < 5; ++warm) {
    req.spec = spec;
    svc.submit(req);
    ASSERT_EQ(req.wait(), service::ServiceStatus::kOk);
    if (warm > 0) {
      ASSERT_TRUE(req.served_from_cache());
    }
  }
  const auto svc_before = svc.snapshot();
  const auto caller_before = lbb::stats::alloc_stats();
  for (int t = 0; t < kTrials; ++t) {
    req.spec = spec;
    svc.submit(req);
    ASSERT_EQ(req.wait(), service::ServiceStatus::kOk);
    ASSERT_TRUE(req.served_from_cache());
  }
  const auto caller_delta = lbb::stats::alloc_stats() - caller_before;
  const auto svc_after = svc.snapshot();
  EXPECT_EQ(caller_delta.count, 0)
      << "caller-side submit/wait allocated " << caller_delta.bytes
      << " bytes across " << kTrials << " warm cache hits";
  EXPECT_EQ(svc_after.alloc_count - svc_before.alloc_count, 0)
      << "worker-side cache-hit serving allocated "
      << (svc_after.alloc_bytes - svc_before.alloc_bytes) << " bytes";
  EXPECT_EQ(svc_after.cache_hits - svc_before.cache_hits, kTrials);
}

TEST(AllocGate, BatchedTrialRunnerSteadyStateIsAllocationFree) {
  // The max-sink runner's contract: once its workspace is sized for n, a
  // full sweep -- BA frame stacks, HF's tree walks and selections --
  // performs EXACTLY ZERO heap allocations, for every supported kind.
  // (Held to the same bar as the full-partition kernels above; lbb-lint
  // covers the kernels statically, this covers them dynamically.)
  const AlphaDistribution dist = AlphaDistribution::uniform(0.1, 0.5);
  constexpr std::int32_t kWidth = 8;
  for (const char* algo : {"hf", "ba", "ba_star", "ba_hf"}) {
    const auto part = PartitionerRegistry::instance().create(
        algo, PartitionerConfig{0.1, 1.0, 0, {}});
    const BuiltinAlgo builtin = part->builtin();
    ASSERT_TRUE(lbb::experiments::BatchTrialRunner::supports(builtin))
        << algo;
    lbb::experiments::BatchTrialRunner runner;
    lbb::experiments::BatchTrialOutcome outcomes[kWidth];
    for (int warm = 0; warm < 2; ++warm) {
      runner.run(builtin, dist, /*base_seed=*/1, 0, kWidth, kN, kWidth,
                 outcomes);
    }
    const auto before = lbb::stats::alloc_stats();
    for (std::int64_t t = 0; t < kTrials; ++t) {
      runner.run(builtin, dist, /*base_seed=*/1, t * kWidth, (t + 1) * kWidth,
                 kN, kWidth, outcomes);
    }
    const auto delta = lbb::stats::alloc_stats() - before;
    EXPECT_EQ(delta.count, 0)
        << algo << " batched kernel allocated " << delta.bytes
        << " bytes across " << kTrials << " warm batches";
    for (const auto& outcome : outcomes) {
      EXPECT_GE(outcome.ratio, 1.0) << algo;
    }
  }
}

TEST(AllocGate, BatchedHfLargeNSteadyStateIsAllocationFree) {
  // HF under the max sink at 2^14 finds each trial's heaviest piece with
  // the workspace's tree walk and bucket selection, whose buffers the
  // runner sized from its n; 16 batches of fresh seeds after warm-up on
  // others must not allocate.
  constexpr std::int32_t kLargeN = std::int32_t{1} << 14;
  constexpr std::int32_t kWidth = 2;
  const AlphaDistribution dist = AlphaDistribution::uniform(0.1, 0.5);
  const auto part = PartitionerRegistry::instance().create(
      "hf", PartitionerConfig{0.1, 1.0, 0, {}});
  lbb::experiments::BatchTrialRunner runner;
  lbb::experiments::BatchTrialOutcome outcomes[kWidth];
  for (std::int64_t warm = 0; warm < 2; ++warm) {
    runner.run(part->builtin(), dist, /*base_seed=*/3, warm * kWidth,
               (warm + 1) * kWidth, kLargeN, kWidth, outcomes);
  }
  const auto before = lbb::stats::alloc_stats();
  for (std::int64_t t = 100; t < 100 + kTrials; ++t) {
    runner.run(part->builtin(), dist, /*base_seed=*/3, t * kWidth,
               (t + 1) * kWidth, kLargeN, kWidth, outcomes);
  }
  const auto delta = lbb::stats::alloc_stats() - before;
  EXPECT_EQ(delta.count, 0) << "batched hf at n=2^14 allocated "
                            << delta.bytes << " bytes across " << kTrials
                            << " warm batches";
  for (const auto& outcome : outcomes) EXPECT_GE(outcome.ratio, 1.0);
}

TEST(AllocGate, BatchedHfFallbackSteadyStateIsAllocationFree) {
  // U[0.02, 0.04] visits about 8.6 tree nodes per piece at 2^14, far past
  // the walk's budget: the first trial gives the walk up and every trial
  // after it simulates HF with the weight-band queue.  16 batches of fresh
  // seeds after warm-up on others must not allocate on that path either.
  constexpr std::int32_t kLargeN = std::int32_t{1} << 14;
  constexpr std::int32_t kWidth = 2;
  const AlphaDistribution dist = AlphaDistribution::uniform(0.02, 0.04);
  const auto part = PartitionerRegistry::instance().create(
      "hf", PartitionerConfig{0.02, 1.0, 0, {}});
  lbb::experiments::BatchTrialRunner runner;
  lbb::experiments::BatchTrialOutcome outcomes[kWidth];
  for (std::int64_t warm = 0; warm < 2; ++warm) {
    runner.run(part->builtin(), dist, /*base_seed=*/9, warm * kWidth,
               (warm + 1) * kWidth, kLargeN, kWidth, outcomes);
  }
  const auto before = lbb::stats::alloc_stats();
  for (std::int64_t t = 100; t < 100 + kTrials; ++t) {
    runner.run(part->builtin(), dist, /*base_seed=*/9, t * kWidth,
               (t + 1) * kWidth, kLargeN, kWidth, outcomes);
  }
  const auto delta = lbb::stats::alloc_stats() - before;
  EXPECT_EQ(delta.count, 0) << "batched hf fallback at n=2^14 allocated "
                            << delta.bytes << " bytes across " << kTrials
                            << " warm batches";
  for (const auto& outcome : outcomes) EXPECT_GE(outcome.ratio, 1.0);
}

TEST(AllocGate, BatchedBaHfQueuePoolDoesNotDependOnHfPhaseSizes) {
  // BA-HF's HF phase runs hf_run on subproblems of fewer than
  // beta/alpha + 1 processors, walked or banded from
  // detail::kHfBandMinPieces on.  Warm up with beta = 0.4 (HF phases below
  // 41 processors), then measure with beta = 1 (below 101) on the same
  // runner: the walk buffers and the band queue's pool, both sized from
  // the trial's n, must already be large enough for the bigger phases.
  const AlphaDistribution dist = AlphaDistribution::uniform(0.01, 0.5);
  constexpr std::int32_t kWidth = 4;
  BuiltinAlgo algo = PartitionerRegistry::instance()
                         .create("ba_hf", PartitionerConfig{0.01, 1.0, 0, {}})
                         ->builtin();
  lbb::experiments::BatchTrialRunner runner;
  lbb::experiments::BatchTrialOutcome outcomes[kWidth];
  algo.beta = 0.4;
  ASSERT_GT(ba_hf_switch_threshold(algo.alpha, algo.beta),
            detail::kHfBandMinPieces);
  for (std::int64_t warm = 0; warm < 2; ++warm) {
    runner.run(algo, dist, /*base_seed=*/5, warm * kWidth,
               (warm + 1) * kWidth, kN, kWidth, outcomes);
  }
  algo.beta = 1.0;
  const auto before = lbb::stats::alloc_stats();
  for (std::int64_t t = 100; t < 100 + kTrials; ++t) {
    runner.run(algo, dist, /*base_seed=*/5, t * kWidth, (t + 1) * kWidth,
               kN, kWidth, outcomes);
  }
  const auto delta = lbb::stats::alloc_stats() - before;
  EXPECT_EQ(delta.count, 0) << "batched ba_hf allocated " << delta.bytes
                            << " bytes across " << kTrials
                            << " warm batches";
  for (const auto& outcome : outcomes) EXPECT_GE(outcome.ratio, 1.0);
}

TEST(AllocGate, BatchedBaHfSmallPhasesSteadyStateIsAllocationFree) {
  // Under the max sink an HF phase that cannot raise the heaviest piece so
  // far walks only the nodes above it, below the heap's cut-over too.  On
  // U[0.1, 0.5], warm up with beta = 0.4 (HF phases of at most 4 pieces),
  // then measure with beta = 1 (at most 10): the walk's buffers, sized
  // from the trial's n, must already be large enough for the bigger
  // phases, at a trial n below the cut-over as well as above it.
  const AlphaDistribution dist = AlphaDistribution::uniform(0.1, 0.5);
  constexpr std::int32_t kWidth = 4;
  for (const std::int32_t n : {16, kN}) {
    BuiltinAlgo algo = PartitionerRegistry::instance()
                           .create("ba_hf", PartitionerConfig{0.1, 1.0, 0, {}})
                           ->builtin();
    lbb::experiments::BatchTrialRunner runner;
    lbb::experiments::BatchTrialOutcome outcomes[kWidth];
    algo.beta = 0.4;
    ASSERT_EQ(ba_hf_switch_threshold(algo.alpha, algo.beta), 5);
    for (std::int64_t warm = 0; warm < 2; ++warm) {
      runner.run(algo, dist, /*base_seed=*/11, warm * kWidth,
                 (warm + 1) * kWidth, n, kWidth, outcomes);
    }
    algo.beta = 1.0;
    ASSERT_EQ(ba_hf_switch_threshold(algo.alpha, algo.beta), 11);
    const auto before = lbb::stats::alloc_stats();
    for (std::int64_t t = 100; t < 100 + kTrials; ++t) {
      runner.run(algo, dist, /*base_seed=*/11, t * kWidth, (t + 1) * kWidth,
                 n, kWidth, outcomes);
    }
    const auto delta = lbb::stats::alloc_stats() - before;
    EXPECT_EQ(delta.count, 0) << "batched ba_hf at n=" << n << " allocated "
                              << delta.bytes << " bytes across " << kTrials
                              << " warm batches";
    for (const auto& outcome : outcomes) EXPECT_GE(outcome.ratio, 1.0);
  }
}

TEST(AllocGate, TailAccumulatorSteadyStateIsAllocationFree) {
  // The tail_study hot loop adds every trial's ratio to a preallocated
  // accumulator and merges worker scratch per chunk: both must be free of
  // steady-state allocations.
  lbb::stats::TailAccumulator cell(1.0, 8.0, 1024);
  lbb::stats::TailAccumulator scratch(1.0, 8.0, 1024);
  for (int i = 0; i < 100; ++i) scratch.add(1.0 + 0.05 * i);
  cell.merge(scratch);
  const auto before = lbb::stats::alloc_stats();
  for (int t = 0; t < kTrials; ++t) {
    scratch.reset();
    for (int i = 0; i < 1000; ++i) {
      scratch.add(1.0 + 0.001 * static_cast<double>(i * (t + 1)));
    }
    cell.merge(scratch);
  }
  const auto delta = lbb::stats::alloc_stats() - before;
  EXPECT_EQ(delta.count, 0)
      << "tail accumulation allocated " << delta.bytes << " bytes";
}

}  // namespace
}  // namespace lbb::core
