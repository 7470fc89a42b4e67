// Tests for the parallel partitioners on ThreadPool: byte-identical
// parallel output across thread counts and grains, oversized problem
// types, exception propagation, the deadlock guard, concurrent-caller
// stress (the tsan preset's main target -- the `runtime` label is in its
// filter), and the par:* registry entries.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/ba.hpp"
#include "core/ba_hf.hpp"
#include "core/partition.hpp"
#include "core/partitioner.hpp"
#include "core/problem.hpp"
#include "core/run_context.hpp"
#include "core/workspace.hpp"
#include "problems/alpha_dist.hpp"
#include "problems/fe_tree.hpp"
#include "problems/synthetic.hpp"
#include "runtime/par_partition.hpp"
#include "runtime/par_partitioners.hpp"
#include "runtime/thread_pool.hpp"

namespace lbb::runtime {
namespace {

using lbb::core::Partition;
using lbb::problems::AlphaDistribution;
using lbb::problems::SyntheticProblem;

// ---------------------------------------------------------------------------
// Byte-identical parallel output

template <typename P>
void expect_identical(const Partition<P>& par, const Partition<P>& seq,
                      const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(par.processors, seq.processors);
  EXPECT_EQ(par.total_weight, seq.total_weight);  // exact, not near
  EXPECT_EQ(par.bisections, seq.bisections);
  EXPECT_EQ(par.max_depth, seq.max_depth);
  ASSERT_EQ(par.pieces.size(), seq.pieces.size());
  for (std::size_t i = 0; i < seq.pieces.size(); ++i) {
    SCOPED_TRACE("piece " + std::to_string(i));
    EXPECT_EQ(par.pieces[i].weight, seq.pieces[i].weight);
    EXPECT_EQ(par.pieces[i].processor, seq.pieces[i].processor);
    EXPECT_EQ(par.pieces[i].depth, seq.pieces[i].depth);
    EXPECT_EQ(par.pieces[i].node, seq.pieces[i].node);
  }
  ASSERT_EQ(par.tree.size(), seq.tree.size());
  for (std::size_t id = 0; id < seq.tree.size(); ++id) {
    SCOPED_TRACE("node " + std::to_string(id));
    const auto& a = par.tree.node(static_cast<lbb::core::NodeId>(id));
    const auto& b = seq.tree.node(static_cast<lbb::core::NodeId>(id));
    EXPECT_EQ(a.weight, b.weight);
    EXPECT_EQ(a.parent, b.parent);
    EXPECT_EQ(a.left, b.left);
    EXPECT_EQ(a.right, b.right);
    EXPECT_EQ(a.depth, b.depth);
  }
}

SyntheticProblem make_problem(std::uint64_t seed) {
  static const AlphaDistribution dist = AlphaDistribution::uniform(0.2, 0.45);
  return SyntheticProblem(seed, dist);
}

/// " tree" when `record` is set, for the labels of the cases below: with
/// the tree recorded a call runs as one frame, without it the grain cuts
/// it into many.
std::string tree_label(bool record) { return record ? " tree" : ""; }

TEST(ParPartition, BaByteIdenticalAcrossThreadsAndGrains) {
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    for (const std::int32_t grain : {0, 1, 7}) {
      for (const bool record : {false, true}) {
        ParOptions opt;
        opt.partition.record_tree = record;
        opt.grain = grain;
        for (const std::uint64_t seed : {1ull, 42ull}) {
          for (const std::int32_t n : {1, 2, 3, 16, 127, 500}) {
            core::TrialWorkspace<SyntheticProblem> seq_ws;
            const auto seq = core::ba_partition(seq_ws, make_problem(seed), n,
                                                opt.partition);
            const auto par =
                par_ba_partition(pool, make_problem(seed), n, opt);
            expect_identical(par, seq,
                             "threads=" + std::to_string(threads) +
                                 " grain=" + std::to_string(grain) +
                                 " seed=" + std::to_string(seed) +
                                 " n=" + std::to_string(n) +
                                 tree_label(record));
          }
        }
      }
    }
  }
}

TEST(ParPartition, BaStarByteIdentical) {
  constexpr double kAlpha = 0.2;
  for (const unsigned threads : {1u, 4u}) {
    ThreadPool pool(threads);
    // Grain 1 descends on the caller wherever the recursion goes, so every
    // frame is one piece; at grains 0 and 7 frames prune inside
    // themselves, and a frame's run is shorter than its processor range.
    for (const std::int32_t grain : {0, 1, 7}) {
      for (const bool record : {false, true}) {
        ParOptions opt;
        opt.partition.record_tree = record;
        opt.grain = grain;
        for (const std::uint64_t seed : {3ull, 99ull}) {
          for (const std::int32_t n : {1, 2, 13, 64, 333}) {
            core::TrialWorkspace<SyntheticProblem> seq_ws;
            const auto seq = core::ba_star_partition(
                seq_ws, make_problem(seed), n, kAlpha, opt.partition);
            const auto par = par_ba_star_partition(pool, make_problem(seed),
                                                   n, kAlpha, opt);
            expect_identical(par, seq,
                             "threads=" + std::to_string(threads) +
                                 " grain=" + std::to_string(grain) +
                                 " seed=" + std::to_string(seed) +
                                 " n=" + std::to_string(n) +
                                 tree_label(record));
          }
        }
      }
    }
  }
}

TEST(ParPartition, BaHfByteIdentical) {
  const core::BaHfParams params{0.25, 1.0};
  for (const unsigned threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    for (const std::int32_t grain : {0, 1}) {
      for (const bool record : {false, true}) {
        ParOptions opt;
        opt.partition.record_tree = record;
        opt.grain = grain;
        for (const std::uint64_t seed : {5ull, 77ull}) {
          for (const std::int32_t n : {1, 2, 16, 200}) {
            core::TrialWorkspace<SyntheticProblem> seq_ws;
            const auto seq = core::ba_hf_partition(
                seq_ws, make_problem(seed), n, params, opt.partition);
            const auto par = par_ba_hf_partition(pool, make_problem(seed), n,
                                                 params, opt);
            expect_identical(par, seq,
                             "threads=" + std::to_string(threads) +
                                 " grain=" + std::to_string(grain) +
                                 " seed=" + std::to_string(seed) +
                                 " n=" + std::to_string(n) +
                                 tree_label(record));
          }
        }
      }
    }
  }
}

TEST(ParPartition, LargeNByteIdenticalAtEveryThreadCount) {
  // The one large-N schedule: every par:* family at the default
  // grain on U[0.1, 0.5], pieces at N = 2^13 and recorded trees (one
  // frame) at N = 2^12.
  const SyntheticProblem root(1, AlphaDistribution::uniform(0.1, 0.5));
  const core::BaHfParams params{0.25, 1.0};
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    core::TrialWorkspace<SyntheticProblem> par_ws;
    for (const bool record : {false, true}) {
      ParOptions opt;
      opt.partition.record_tree = record;
      const std::int32_t n = record ? 1 << 12 : 1 << 13;
      const std::string label = "threads=" + std::to_string(threads) +
                                " n=" + std::to_string(n) +
                                (record ? " tree" : "");
      core::TrialWorkspace<SyntheticProblem> seq_ws;
      expect_identical(par_ba_partition(pool, par_ws, root, n, opt),
                       core::ba_partition(seq_ws, root, n, opt.partition),
                       "ba " + label);
      expect_identical(
          par_ba_star_partition(pool, root, n, params.alpha, opt),
          core::ba_star_partition(seq_ws, root, n, params.alpha,
                                  opt.partition),
          "ba_star " + label);
      expect_identical(
          par_ba_hf_partition(pool, root, n, params, opt),
          core::ba_hf_partition(seq_ws, root, n, params, opt.partition),
          "ba_hf " + label);
    }
  }
}

TEST(ParPartition, ExpensiveBisectionProblem) {
  // FE-tree separators make bisection genuinely costly, exercising real
  // overlap between frames (and shared_ptr refcounting across threads).
  const auto fe_tree = lbb::problems::FeTree::adaptive_refinement(3, 2000, 2.0);
  const auto make_fe = [&] { return lbb::problems::FeTreeProblem(fe_tree); };
  ThreadPool pool(4);
  for (const bool record : {false, true}) {
    ParOptions opt;
    opt.partition.record_tree = record;
    core::TrialWorkspace<lbb::problems::FeTreeProblem> seq_ws;
    const auto seq = core::ba_partition(seq_ws, make_fe(), 24, opt.partition);
    const auto par = par_ba_partition(pool, make_fe(), 24, opt);
    expect_identical(par, seq, "fe_tree n=24" + tree_label(record));
  }
}

TEST(ParPartition, WorkspaceOverloadMatchesAndRecycles) {
  ThreadPool pool(2);
  core::TrialWorkspace<SyntheticProblem> par_ws;
  core::TrialWorkspace<SyntheticProblem> seq_ws;
  for (int round = 0; round < 3; ++round) {
    auto seq = core::ba_partition(seq_ws, make_problem(11), 64);
    auto par = par_ba_partition(pool, par_ws, make_problem(11), 64);
    expect_identical(par, seq, "round " + std::to_string(round));
    seq_ws.recycle(std::move(seq));
    par_ws.recycle(std::move(par));
  }
}

TEST(ParPartition, StatsCountSpawnsAndBisections) {
  ThreadPool pool(2);
  ParStats stats;
  ParOptions opt;
  opt.grain = 1;
  const auto par = par_ba_partition(pool, make_problem(123), 256, opt, &stats);
  EXPECT_EQ(par.bisections, 255);
  // With grain 1 the frontier descent runs down to the pieces: every piece
  // is a frontier frame.
  EXPECT_EQ(stats.spawns, 256);
  EXPECT_EQ(stats.steals, 0);
  EXPECT_EQ(stats.grain, 1);
  // A recorded tree comes from one frame, whatever grain was asked for.
  opt.partition.record_tree = true;
  const auto tree =
      par_ba_partition(pool, make_problem(123), 256, opt, &stats);
  EXPECT_EQ(tree.bisections, 255);
  EXPECT_EQ(stats.spawns, 1);
  EXPECT_EQ(stats.grain, 256);
}

/// A SyntheticProblem padded past 192 bytes: frontier frames of any size
/// run on the pool.
struct PaddedProblem {
  SyntheticProblem inner;
  std::array<std::byte, 200> pad{};

  [[nodiscard]] double weight() const { return inner.weight(); }
  [[nodiscard]] std::pair<PaddedProblem, PaddedProblem> bisect() const {
    auto [left, right] = inner.bisect();
    return {PaddedProblem{std::move(left)}, PaddedProblem{std::move(right)}};
  }
};
static_assert(sizeof(PaddedProblem) > 192);

TEST(ParPartition, OversizedProblemRunsOnThePool) {
  const core::BaHfParams params{0.25, 1.0};
  ParOptions opt;  // no tree, so that the calls cut into many frames
  constexpr std::int32_t kN = 300;
  for (const unsigned threads : {1u, 4u}) {
    ThreadPool pool(threads);
    const std::string label = "threads=" + std::to_string(threads);
    core::TrialWorkspace<PaddedProblem> seq_ws;
    ParStats stats;
    expect_identical(
        par_ba_partition(pool, PaddedProblem{make_problem(17)}, kN, opt,
                         &stats),
        core::ba_partition(seq_ws, PaddedProblem{make_problem(17)}, kN,
                           opt.partition),
        "ba " + label);
    EXPECT_GT(stats.spawns, 1) << label;
    expect_identical(
        par_ba_hf_partition(pool, PaddedProblem{make_problem(17)}, kN,
                            params, opt, &stats),
        core::ba_hf_partition(seq_ws, PaddedProblem{make_problem(17)}, kN,
                              params, opt.partition),
        "ba_hf " + label);
    EXPECT_GT(stats.spawns, 1) << label;
  }
}

TEST(ParPartition, CallFromPoolWorkerThrows) {
  // The partition's join would wait for the worker it runs on.
  ThreadPool pool(1);
  auto nested = pool.submit_task(
      [&pool] { return par_ba_partition(pool, make_problem(2), 64); });
  EXPECT_THROW((void)nested.get(), std::logic_error);
  // The pool still serves calls from outside.
  EXPECT_EQ(par_ba_partition(pool, make_problem(2), 64).pieces.size(), 64u);
}

TEST(ParPartition, RejectsBadN) {
  ThreadPool pool(2);
  EXPECT_THROW((void)par_ba_partition(pool, make_problem(1), 0),
               std::invalid_argument);
  EXPECT_THROW(
      (void)par_ba_star_partition(pool, make_problem(1), 4, /*alpha=*/0.9),
      std::invalid_argument);
  EXPECT_THROW((void)par_ba_hf_partition(pool, make_problem(1), 4,
                                         core::BaHfParams{0.25, -1.0}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Exceptions

/// Bisectable whose weight() is fine but whose bisect() throws once the
/// weight drops below a trip point -- exercises mid-recursion failure.
struct ThrowingProblem {
  double w = 1.0;
  double trip = 0.1;

  [[nodiscard]] double weight() const noexcept { return w; }
  [[nodiscard]] std::pair<ThrowingProblem, ThrowingProblem> bisect() const {
    if (w < trip) throw std::runtime_error("bisect failed");
    return {ThrowingProblem{w * 0.6, trip}, ThrowingProblem{w * 0.4, trip}};
  }
};

TEST(ParPartition, TaskExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  // Grain 1 throws in the caller's frontier descent; grain 64 stops the
  // descent at weights near 1/8, so frames on the workers throw.
  for (const std::int32_t grain : {1, 64}) {
    ParOptions opt;
    opt.grain = grain;
    EXPECT_THROW((void)par_ba_partition(pool, ThrowingProblem{}, 512, opt),
                 std::runtime_error)
        << "grain=" << grain;
  }
  // The pool survives a failed job and serves later ones.
  const auto seq = [&] {
    core::TrialWorkspace<SyntheticProblem> ws;
    return core::ba_partition(ws, make_problem(9), 32);
  }();
  const auto par = par_ba_partition(pool, make_problem(9), 32);
  expect_identical(par, seq, "after failure");
  // The grain-64 call left result slots half-filled; a sound call of the
  // same shape reuses every one of them.
  ParOptions opt;
  opt.grain = 64;
  const ThrowingProblem sound{1.0, /*trip=*/0.0};
  expect_identical(par_ba_partition(pool, sound, 512, opt),
                   core::ba_partition(sound, 512, opt.partition),
                   "same shape after failure");
}

// ---------------------------------------------------------------------------
// Concurrent callers (tsan stress: many simultaneous jobs on one pool)

TEST(ParPartition, ConcurrentCallersGetIndependentIdenticalResults) {
  constexpr int kCallers = 4;
  constexpr int kRounds = 8;
  ThreadPool pool(4);

  std::vector<std::string> failures(kCallers);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int r = 0; r < kRounds; ++r) {
        const std::uint64_t seed =
            static_cast<std::uint64_t>(c * 1000 + r + 1);
        // Vary shape and grain per caller/round.
        const std::int32_t n = 32 + 61 * ((c + r) % 5);
        ParOptions opt;  // no tree, so that each call cuts into many frames
        opt.grain = 1 + (r % 3);
        core::TrialWorkspace<SyntheticProblem> ws;
        const auto seq = core::ba_partition(ws, make_problem(seed), n);
        const auto par = par_ba_partition(pool, make_problem(seed), n, opt);
        if (par.pieces.size() != seq.pieces.size() ||
            par.bisections != seq.bisections ||
            par.tree.size() != seq.tree.size()) {
          failures[c] = "caller " + std::to_string(c) + " round " +
                        std::to_string(r) + " diverged";
          return;
        }
        for (std::size_t i = 0; i < seq.pieces.size(); ++i) {
          if (par.pieces[i].weight != seq.pieces[i].weight ||
              par.pieces[i].processor != seq.pieces[i].processor ||
              par.pieces[i].node != seq.pieces[i].node) {
            failures[c] = "caller " + std::to_string(c) + " round " +
                          std::to_string(r) + " piece " + std::to_string(i);
            return;
          }
        }
      }
    });
  }
  for (auto& t : callers) t.join();
  for (const auto& f : failures) EXPECT_EQ(f, "");
}

// ---------------------------------------------------------------------------
// Registry entries

TEST(ParRegistry, RegistersAndRunsByteIdentical) {
  register_par_partitioners();
  auto& registry = core::PartitionerRegistry::instance();
  for (const char* name : {"par:ba", "par:ba_star", "par:ba_hf"}) {
    EXPECT_TRUE(registry.contains(name)) << name;
  }

  core::PartitionerConfig config;
  config.alpha = 0.2;
  config.options.record_tree = true;
  config.threads = 2;

  const auto part = registry.create("par:ba_hf", config);
  core::RunContext ctx(7);
  auto par = part->run(ctx, core::AnyProblem(make_problem(21)), 100);

  core::TrialWorkspace<core::AnyProblem> ws;
  auto seq = core::ba_hf_partition(ws, core::AnyProblem(make_problem(21)),
                                   100, core::BaHfParams{0.2, 1.0},
                                   config.options);
  expect_identical(par, seq, "par:ba_hf vs ba_hf");
  EXPECT_GT(part->ratio_bound(100), 0.0);
}

TEST(ParRegistry, SharedPoolReusesPerThreadCount) {
  ThreadPool& a = shared_pool(2);
  ThreadPool& b = shared_pool(2);
  ThreadPool& c = shared_pool(3);
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &c);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(c.size(), 3u);
}

// Regression: shared pools used to have no teardown path other than static
// destruction; resident embedders need an explicit join point.  Exercises
// the full cycle -- use, shutdown, recreate, shutdown again -- with real
// work between the steps so tsan sees the worker threads start and join
// cleanly.
TEST(ParRegistry, SharedPoolShutdownJoinsAndAllowsRecreation) {
  ThreadPool& before = shared_pool(2);
  auto run_once = [](std::uint64_t seed) {
    return par_ba_partition(shared_pool(2), make_problem(seed), 64,
                            ParOptions{});
  };
  const auto first = run_once(11);
  EXPECT_EQ(first.pieces.size(), 64u);

  shutdown_shared_pools();
  // A fresh pool must come up after teardown and serve identical answers.
  ThreadPool& after = shared_pool(2);
  EXPECT_EQ(after.size(), 2u);
  const auto second = run_once(11);
  expect_identical(second, first, "pool recreated after shutdown");

  // Idempotent: a second (and an empty-cache) shutdown is a no-op.
  shutdown_shared_pools();
  shutdown_shared_pools();
  EXPECT_EQ(shared_pool(1).size(), 1u);
  (void)before;
}

// Regression (pinning the resolved-count contract): with threads <= 0 the
// par:* partitioners run on a pool of the worker count shared_pool()
// resolves to (hardware_concurrency, min 1), never the raw config value.
TEST(ParRegistry, ThreadsCounterReportsResolvedWorkerCount) {
  register_par_partitioners();
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t resolved = hw != 0 ? hw : 1u;

  for (const std::int32_t threads : {0, -4}) {
    core::PartitionerConfig config;
    config.threads = threads;
    const auto part =
        core::PartitionerRegistry::instance().create("par:ba", config);
    core::RunContext ctx(5);
    const auto out = part->run(ctx, core::AnyProblem(make_problem(9)), 32);
    EXPECT_EQ(out.pieces.size(), 32u);
    EXPECT_EQ(shared_pool(threads).size(), resolved)
        << "config.threads=" << threads;
  }
}

}  // namespace
}  // namespace lbb::runtime
