// Property test: each kernel under the max sink (detail::MaxSink) reports
// the heaviest piece and the bisection count of the same kernel under
// BuildContext, bit for bit -- max_weight() and bisections of the full
// partition -- on every path it can take.
//
//   * HF on synthetic distributions, wide and narrow, at sizes on both
//     sides of the walk's cut-over, with the walk allowed (the n-th
//     heaviest node of the bisection tree) and not (the selection loop).
//   * HF on two toy problem types that opt into the walk and break its
//     assumptions -- a heavier child that sometimes outweighs its parent,
//     and children that sum to 3/4 of the parent -- under the max sink,
//     and as full partitions on the threshold path against the queue,
//     with a third whose heavier child at one depth weighs its parent.
//   * BaLaneProperty: BA, BA' and BA-HF, instance by instance; and BA's
//     skip of frames and BA-HF's floored HF phases, which cannot raise the
//     maximum, counted by bisect() calls: they fire for a type that
//     declares core::monotone_bisect_v (and, for BA-HF's walk,
//     core::pure_bisect_v), and nowhere else.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>

#include "core/ba.hpp"
#include "core/ba_hf.hpp"
#include "core/bounds.hpp"
#include "core/hf.hpp"
#include "problems/noisy_weight.hpp"
#include "problems/synthetic.hpp"
#include "stats/rng.hpp"

namespace lbb::core::detail {
namespace {

/// A problem whose heavier child outweighs its parent on about one
/// bisection in 220 (one in 128 is scaled by 1.5, which lifts it above its
/// parent when alpha < 1/3): it breaks the alpha-bisector contract.  A walk
/// that visits such a node must hand the run to the queue; one that never
/// does is still exact, because HF bisects only nodes the walk visits.
struct HeavierChildProblem {
  std::uint64_t hash;
  double w;
  [[nodiscard]] double weight() const noexcept { return w; }
  [[nodiscard]] std::pair<HeavierChildProblem, HeavierChildProblem> bisect()
      const noexcept {
    const std::uint64_t r = stats::splitmix64(hash);
    const double alpha = 0.1 + 0.4 * stats::hash_to_unit(r);
    double heavy = (1.0 - alpha) * w;
    if ((r & 127) == 0) heavy *= 1.5;
    return {{stats::mix64(hash, 1), heavy},
            {stats::mix64(hash, 2), alpha * w}};
  }
};

/// A problem whose children sum to 3/4 of their parent: HF's heaviest piece
/// falls below w/n, so the walk's first threshold finds fewer than n nodes
/// and it must lower the threshold and walk again.
struct ShrinkingProblem {
  std::uint64_t hash;
  double w;
  [[nodiscard]] double weight() const noexcept { return w; }
  [[nodiscard]] std::pair<ShrinkingProblem, ShrinkingProblem> bisect()
      const noexcept {
    const double alpha =
        0.1 + 0.4 * stats::hash_to_unit(stats::splitmix64(hash));
    return {{stats::mix64(hash, 1), (1.0 - alpha) * 0.75 * w},
            {stats::mix64(hash, 2), alpha * 0.75 * w}};
  }
};

/// A U[0.1,0.5] problem whose heavier child at depth 34 weighs exactly its
/// parent (the other child alpha * w).  The walk keeps such a child; the
/// threshold path either ranks neither it nor its parent, or meets the two
/// as a tie in one bucket and hands the run to the queue.
struct EqualChildProblem {
  std::uint64_t hash;
  double w;
  std::int32_t depth = 0;
  [[nodiscard]] double weight() const noexcept { return w; }
  [[nodiscard]] std::pair<EqualChildProblem, EqualChildProblem> bisect()
      const noexcept {
    const double alpha =
        0.1 + 0.4 * stats::hash_to_unit(stats::splitmix64(hash));
    const double heavy = depth == 34 ? w : (1.0 - alpha) * w;
    return {{stats::mix64(hash, 1), heavy, depth + 1},
            {stats::mix64(hash, 2), alpha * w, depth + 1}};
  }
};

/// A problem whose root weighs +inf while every child is finite: no
/// threshold of at most +inf/n keeps a child, so a walk that only halved its
/// threshold would never end.  Both walks give up on the root instead.
struct InfiniteRootProblem {
  std::uint64_t hash;
  double w;
  [[nodiscard]] double weight() const noexcept { return w; }
  [[nodiscard]] std::pair<InfiniteRootProblem, InfiniteRootProblem> bisect()
      const noexcept {
    const double alpha =
        0.1 + 0.4 * stats::hash_to_unit(stats::splitmix64(hash));
    const double base = w > 1.0 ? 1.0 : w;
    return {{stats::mix64(hash, 1), (1.0 - alpha) * base},
            {stats::mix64(hash, 2), alpha * base}};
  }
};

/// A SyntheticProblem that counts its bisect() calls in `*calls`.  It
/// declares core::monotone_bisect_v when `Monotone`, and core::pure_bisect_v,
/// which lets HF walk it, when `Pure`.
template <bool Monotone, bool Pure = false>
struct CountingProblem {
  problems::SyntheticProblem inner;
  std::int64_t* calls;
  [[nodiscard]] double weight() const noexcept { return inner.weight(); }
  [[nodiscard]] std::pair<CountingProblem, CountingProblem> bisect() const {
    ++*calls;
    auto [heavy, light] = inner.bisect();
    return {{heavy, calls}, {light, calls}};
  }
};

}  // namespace
}  // namespace lbb::core::detail

// Both toy problems are pure functions of (hash, weight), as the walk
// requires.
template <>
inline constexpr bool
    lbb::core::pure_bisect_v<lbb::core::detail::HeavierChildProblem> = true;
template <>
inline constexpr bool
    lbb::core::pure_bisect_v<lbb::core::detail::ShrinkingProblem> = true;
template <>
inline constexpr bool
    lbb::core::pure_bisect_v<lbb::core::detail::InfiniteRootProblem> = true;
template <>
inline constexpr bool
    lbb::core::pure_bisect_v<lbb::core::detail::EqualChildProblem> = true;
template <bool Pure>
inline constexpr bool lbb::core::monotone_bisect_v<
    lbb::core::detail::CountingProblem<true, Pure>> = true;
template <bool Monotone>
inline constexpr bool lbb::core::pure_bisect_v<
    lbb::core::detail::CountingProblem<Monotone, true>> = true;

namespace lbb::core::detail {
namespace {

using problems::AlphaDistribution;
using problems::SyntheticProblem;

constexpr std::int32_t kCutOver = kHfBandMinPieces;
constexpr std::int32_t kMaxPieces = 4096;
constexpr std::uint64_t kSeeds = 32;

static_assert(TreeWalkable<SyntheticProblem>);
static_assert(TreeWalkable<HeavierChildProblem>);
static_assert(TreeWalkable<ShrinkingProblem>);
static_assert(TreeWalkable<EqualChildProblem>);
static_assert(!TreeWalkable<AnyProblem>);

// BA's skip is opt-in: a type that merely wraps SyntheticProblem, erases it
// or declares a pure bisect() does not get it.
static_assert(monotone_bisect_v<SyntheticProblem>);
static_assert(!monotone_bisect_v<AnyProblem>);
static_assert(
    !monotone_bisect_v<problems::NoisyWeightProblem<SyntheticProblem>>);
static_assert(!monotone_bisect_v<HeavierChildProblem>);

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

struct MaxResult {
  double max = 0.0;
  std::int64_t bisections = 0;
  bool walked = false;  ///< the walk produced the result
};

/// One hf_run under the max sink, with the walk allowed or not.
template <typename P>
MaxResult run_max_hf(TrialWorkspace<P>& ws, P root, std::int32_t n,
                     bool allow_walk) {
  ws.hf_walk = allow_walk;
  MaxSink sink;
  hf_run(sink, ws, std::move(root), n, {});
  return {sink.max, sink.bisections,
          allow_walk && n >= kCutOver && ws.hf_walk};
}

std::string describe(const AlphaDistribution& dist, std::int32_t n,
                     std::uint64_t seed) {
  return dist.describe() + " n=" + std::to_string(n) +
         " seed=" + std::to_string(seed);
}

TEST(HfLaneProperty, MatchesScalarHfOnWalkAndFallback) {
  const AlphaDistribution dists[] = {
      AlphaDistribution::uniform(0.1, 0.5),
      AlphaDistribution::uniform(0.01, 0.5),
      AlphaDistribution::uniform(0.02, 0.04),
      AlphaDistribution::uniform(0.05, 0.1),
      AlphaDistribution::point(0.5),
      AlphaDistribution::point(0.1),
      AlphaDistribution::point(0.01),
      AlphaDistribution::two_point(0.01, 0.5),
  };
  const std::int32_t sizes[] = {kCutOver - 1, kCutOver, 64, 100, 1024,
                                kMaxPieces};
  TrialWorkspace<SyntheticProblem> ws;
  hf_reserve<MaxSink>(ws, kMaxPieces);
  // The reference builds its partitions with the selection queue, which
  // shares no code with the walk.
  TrialWorkspace<SyntheticProblem> full_ws;
  full_ws.hf_walk = false;
  std::int64_t walked = 0;
  std::int64_t fell_back = 0;
  for (const AlphaDistribution& dist : dists) {
    // The wide uniform distributions are what the walk is for: their walks
    // visit 1.7-2.0 nodes per piece, well inside the budget.
    const bool wide = dist.kind() == AlphaDistribution::Kind::kUniform &&
                      dist.upper_bound() == 0.5;
    for (const std::int32_t n : sizes) {
      for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
        const std::uint64_t instance = stats::mix64(0x1a7e, seed);
        const std::string what = describe(dist, n, seed);
        const SyntheticProblem root(instance, dist);
        Partition<SyntheticProblem> want = hf_partition(full_ws, root, n);
        for (const bool allow_walk : {true, false}) {
          const MaxResult got = run_max_hf(ws, root, n, allow_walk);
          ASSERT_EQ(bits(got.max), bits(want.max_weight()))
              << what << (allow_walk ? " walk allowed" : " queue only");
          ASSERT_EQ(got.bisections, want.bisections) << what;
          if (allow_walk && n >= kCutOver) {
            (got.walked ? walked : fell_back) += 1;
            if (wide) {
              EXPECT_TRUE(got.walked) << what << " fell back";
            }
          }
        }
        full_ws.recycle(std::move(want));
      }
    }
  }
  EXPECT_GT(walked, 0);
  EXPECT_GT(fell_back, 0);
}

template <typename P>
void expect_matches_full_hf(std::int64_t& walked, std::int64_t& fell_back,
                            std::int64_t& below_first_threshold) {
  TrialWorkspace<P> ws;
  TrialWorkspace<P> full_ws;
  full_ws.hf_walk = false;  // the queue, as above
  for (const std::int32_t n : {kCutOver, 64, 100, 1024, kMaxPieces}) {
    for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
      const P root{stats::mix64(0x70e, seed), 1.0 + static_cast<double>(seed)};
      Partition<P> want = hf_partition(full_ws, root, n);
      const MaxResult got = run_max_hf(ws, root, n, true);
      ASSERT_EQ(bits(got.max), bits(want.max_weight()))
          << "n=" << n << " seed=" << seed;
      ASSERT_EQ(got.bisections, want.bisections);
      (got.walked ? walked : fell_back) += 1;
      if (got.walked && want.max_weight() < hf_walk_threshold(root.w, n)) {
        ++below_first_threshold;
      }
      full_ws.recycle(std::move(want));
    }
  }
}

TEST(HfLaneProperty, HeavierChildFallsBackToTheQueue) {
  std::int64_t walked = 0;
  std::int64_t fell_back = 0;
  std::int64_t below = 0;
  expect_matches_full_hf<HeavierChildProblem>(walked, fell_back, below);
  EXPECT_GT(fell_back, 0);  // the contract check fired
  EXPECT_GT(walked, 0);     // and clean walks still agreed
}

TEST(HfLaneProperty, ShortWalkLowersTheThresholdAndRetries) {
  std::int64_t walked = 0;
  std::int64_t fell_back = 0;
  std::int64_t below = 0;
  expect_matches_full_hf<ShrinkingProblem>(walked, fell_back, below);
  // Walks whose answer lies below the first threshold found fewer than n
  // nodes there and succeeded on a later, lower one.
  EXPECT_GT(below, 0);
}

/// Full partitions of a toy type from the threshold path's cut-over on,
/// against the selection queue, piece for piece; counts the runs the
/// threshold path built and those it gave up.
template <typename P>
void expect_threshold_path_matches_queue(std::int64_t& selected,
                                         std::int64_t& fell_back) {
  TrialWorkspace<P> ws;
  TrialWorkspace<P> queue_ws;
  queue_ws.hf_walk = false;
  for (const std::int32_t n :
       {kHfThresholdMinPieces, kHfThresholdMinPieces + 1}) {
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      const P root{stats::mix64(0x7e5, seed), 1.0 + static_cast<double>(seed)};
      const std::string what =
          "n=" + std::to_string(n) + " seed=" + std::to_string(seed);
      ws.hf_walk = true;
      const Partition<P> got = hf_partition(ws, root, n);
      (ws.hf_walk ? selected : fell_back) += 1;
      const Partition<P> want = hf_partition(queue_ws, root, n);
      ASSERT_EQ(got.pieces.size(), want.pieces.size()) << what;
      ASSERT_EQ(got.bisections, want.bisections) << what;
      ASSERT_EQ(got.max_depth, want.max_depth) << what;
      for (std::size_t i = 0; i < want.pieces.size(); ++i) {
        const auto& g = got.pieces[i];
        const auto& w = want.pieces[i];
        ASSERT_EQ(bits(g.weight), bits(w.weight)) << what << " piece " << i;
        ASSERT_EQ(g.problem.hash, w.problem.hash) << what << " piece " << i;
        ASSERT_EQ(g.processor, w.processor) << what << " piece " << i;
        ASSERT_EQ(g.depth, w.depth) << what << " piece " << i;
      }
    }
  }
}

TEST(HfLaneProperty, ThresholdPathMatchesTheQueueOnToyProblems) {
  std::int64_t selected = 0;
  std::int64_t fell_back = 0;
  // A heavier child somewhere in the walk sends the run to the queue.
  expect_threshold_path_matches_queue<HeavierChildProblem>(selected,
                                                           fell_back);
  EXPECT_GT(fell_back, 0);
  // Children that sum to 3/4 make the walk lower its threshold and retry.
  const std::int64_t before = selected;
  expect_threshold_path_matches_queue<ShrinkingProblem>(selected, fell_back);
  EXPECT_GT(selected, before);
  // Every one of these walks keeps a child as heavy as its parent (depth 34
  // lies near the walk's threshold at 2^16): some runs never rank the pair
  // and build the partition, others meet it as a tie and give up.
  std::int64_t equal_selected = 0;
  std::int64_t equal_fell_back = 0;
  expect_threshold_path_matches_queue<EqualChildProblem>(equal_selected,
                                                         equal_fell_back);
  EXPECT_GT(equal_selected, 0);
  EXPECT_GT(equal_fell_back, 0);
}

TEST(HfLaneProperty, InfiniteRootGivesUpTheWalk) {
  const InfiniteRootProblem root{7, std::numeric_limits<double>::infinity()};
  for (const std::int32_t n : {kCutOver, kHfThresholdMinPieces}) {
    TrialWorkspace<InfiniteRootProblem> ws;
    const MaxResult got = run_max_hf(ws, root, n, true);
    EXPECT_FALSE(got.walked) << "n=" << n;
    EXPECT_EQ(got.bisections, n - 1) << "n=" << n;
    TrialWorkspace<InfiniteRootProblem> full_ws;
    const Partition<InfiniteRootProblem> part = hf_partition(full_ws, root, n);
    EXPECT_EQ(full_ws.hf_walk, n < kHfThresholdMinPieces) << "n=" << n;
    EXPECT_EQ(part.bisections, n - 1) << "n=" << n;
  }
}

TEST(BaLaneProperty, MatchesScalarBaFamilyLaneByLane) {
  const AlphaDistribution dists[] = {
      AlphaDistribution::uniform(0.1, 0.5),
      AlphaDistribution::uniform(0.01, 0.5),
      AlphaDistribution::uniform(0.02, 0.04),
      AlphaDistribution::point(0.5),
      AlphaDistribution::point(0.01),
      AlphaDistribution::two_point(0.01, 0.5),
  };
  constexpr std::int32_t kInstances = 8;
  for (const AlphaDistribution& dist : dists) {
    const double alpha = dist.lower_bound();
    for (const std::int32_t n : {1, 2, 3, 31, 100, 1000, 4097, 16384}) {
      std::uint64_t instance[kInstances];
      for (std::int32_t i = 0; i < kInstances; ++i) {
        instance[i] = stats::mix64(
            0xba1a, static_cast<std::uint64_t>(n) * kInstances +
                        static_cast<std::uint64_t>(i));
      }
      // Each kernel runs on a fresh workspace, whose frame stack it sizes
      // for exactly this n, so a stack that outgrew it would run off the
      // end of its buffer (point(0.01) peels one processor per bisection,
      // the deepest chain BA can build).
      const auto expect_same = [&](const char* algo, const auto& max_run,
                                   const auto& full) {
        TrialWorkspace<SyntheticProblem> ws;
        for (std::int32_t i = 0; i < kInstances; ++i) {
          const SyntheticProblem root(instance[i], dist);
          MaxSink sink;
          max_run(sink, ws, root);
          const auto want = full(root);
          const std::string what = std::string(algo) + " " +
                                   describe(dist, n, instance[i]) +
                                   " instance=" + std::to_string(i);
          ASSERT_EQ(bits(sink.max), bits(want.max_weight())) << what;
          ASSERT_EQ(sink.bisections, want.bisections) << what;
        }
      };
      expect_same(
          "ba",
          [n](MaxSink& sink, TrialWorkspace<SyntheticProblem>& ws,
              const SyntheticProblem& root) {
            ba_run(sink, ws, root, n, {}, /*prune_below=*/-1.0);
          },
          [n](const SyntheticProblem& root) { return ba_partition(root, n); });
      expect_same(
          "ba_star",
          [n, alpha](MaxSink& sink, TrialWorkspace<SyntheticProblem>& ws,
                     const SyntheticProblem& root) {
            ba_run(sink, ws, root, n, {},
                   phf_phase1_threshold(alpha, root.weight(), n));
          },
          [n, alpha](const SyntheticProblem& root) {
            return ba_star_partition(root, n, alpha);
          });
      // BA-HF's switch threshold puts its HF phases below and above the
      // walk's cut-over, and from its second phase on the max sink floors
      // their walks at the heaviest piece so far, which point(0.5) ties.
      for (const double beta : {0.25, 1.0, 4.0}) {
        const BaHfParams params{alpha, beta};
        const std::string algo = "ba_hf beta=" + std::to_string(beta);
        expect_same(
            algo.c_str(),
            [n, params](MaxSink& sink, TrialWorkspace<SyntheticProblem>& ws,
                        const SyntheticProblem& root) {
              ba_hf_run(sink, ws, root, n, {},
                        ba_hf_switch_threshold(params.alpha, params.beta));
            },
            [n, params](const SyntheticProblem& root) {
              return ba_hf_partition(root, n, params);
            });
      }
    }
  }
}

TEST(BaLaneProperty, MaxSinkBaSkipsOnlyWhereAllowed) {
  const AlphaDistribution dists[] = {
      AlphaDistribution::uniform(0.01, 0.5),
      AlphaDistribution::uniform(0.1, 0.5),
  };
  constexpr std::int32_t kInstances = 32;
  TrialWorkspace<CountingProblem<true>> ws;
  TrialWorkspace<CountingProblem<false>> plain_ws;
  for (const AlphaDistribution& dist : dists) {
    const double alpha = dist.lower_bound();
    for (const std::int32_t n : {64, 1024, 16384}) {
      std::int64_t kept = 0;
      for (std::int32_t i = 0; i < kInstances; ++i) {
        const std::uint64_t instance =
            stats::mix64(0x5c1b, static_cast<std::uint64_t>(n) * kInstances +
                                     static_cast<std::uint64_t>(i));
        const SyntheticProblem root(instance, dist);
        const std::string what = describe(dist, n, instance);
        std::int64_t full_calls = 0;
        const auto want =
            ba_partition(CountingProblem<true>{root, &full_calls}, n);
        ASSERT_EQ(want.bisections, n - 1) << what;
        ASSERT_EQ(full_calls, n - 1) << what;

        // BA on the opted-in type: same answer, fewer bisect() calls.
        std::int64_t calls = 0;
        MaxSink sink;
        ba_run(sink, ws, CountingProblem<true>{root, &calls}, n, {},
               /*prune_below=*/-1.0);
        ASSERT_EQ(bits(sink.max), bits(want.max_weight())) << what;
        ASSERT_EQ(sink.bisections, n - 1) << what;
        ASSERT_LT(calls, n - 1) << what;
        kept += calls;

        // The same problem without the trait: every bisection.
        std::int64_t plain_calls = 0;
        MaxSink plain;
        ba_run(plain, plain_ws, CountingProblem<false>{root, &plain_calls}, n,
               {}, /*prune_below=*/-1.0);
        ASSERT_EQ(bits(plain.max), bits(want.max_weight())) << what;
        ASSERT_EQ(plain.bisections, n - 1) << what;
        ASSERT_EQ(plain_calls, n - 1) << what;

        // BA' on the opted-in type: as many calls as its full partition.
        const double prune_below =
            phf_phase1_threshold(alpha, root.weight(), n);
        std::int64_t star_full_calls = 0;
        const auto star_want = ba_star_partition(
            CountingProblem<true>{root, &star_full_calls}, n, alpha);
        std::int64_t star_calls = 0;
        MaxSink star;
        ba_run(star, ws, CountingProblem<true>{root, &star_calls}, n, {},
               prune_below);
        ASSERT_EQ(bits(star.max), bits(star_want.max_weight())) << what;
        ASSERT_EQ(star.bisections, star_want.bisections) << what;
        ASSERT_EQ(star_calls, star_full_calls) << what;
      }
      // The share of BA's bisections the max sink still makes (DESIGN.md
      // section 10.1 records these).
      std::printf("[   kept   ] BA %s n=%d: %.3f of n-1 bisections\n",
                  dist.describe().c_str(), n,
                  static_cast<double>(kept) /
                      (static_cast<double>(kInstances) * (n - 1)));
    }
  }
}

/// BA-HF under the max sink against its full partition, on root `root` of
/// a type that ba_hf_partition accepts: the same maximum bits and count.
template <typename P>
void expect_ba_hf_matches_full(const P& root, std::int32_t n,
                               const BaHfParams& params,
                               TrialWorkspace<P>& ws, const std::string& what) {
  const auto want = ba_hf_partition(root, n, params);
  MaxSink sink;
  ba_hf_run(sink, ws, root, n, {},
            ba_hf_switch_threshold(params.alpha, params.beta));
  ASSERT_EQ(bits(sink.max), bits(want.max_weight())) << what;
  ASSERT_EQ(sink.bisections, want.bisections) << what;
}

TEST(BaLaneProperty, MaxSinkBaHfBoundsOnlyWhereAllowed) {
  const AlphaDistribution dists[] = {
      AlphaDistribution::uniform(0.01, 0.5),
      AlphaDistribution::uniform(0.1, 0.5),
  };
  constexpr std::int32_t kInstances = 32;
  using Bounded = CountingProblem<true, true>;
  using PureOnly = CountingProblem<false, true>;
  static_assert(TreeWalkable<Bounded> && monotone_bisect_v<Bounded>);
  static_assert(TreeWalkable<PureOnly> && !monotone_bisect_v<PureOnly>);
  TrialWorkspace<Bounded> ws;
  TrialWorkspace<PureOnly> pure_ws;
  for (const AlphaDistribution& dist : dists) {
    const BaHfParams params{dist.lower_bound(), 1.0};
    const std::int32_t threshold =
        ba_hf_switch_threshold(params.alpha, params.beta);
    // Fig. 5's HF phases have at most 10 pieces, below the walk's cut-over:
    // without the floor they run on the heap.
    const bool small_phases = threshold <= kCutOver;
    for (const std::int32_t n : {64, 1024, 16384}) {
      std::int64_t kept = 0;
      for (std::int32_t i = 0; i < kInstances; ++i) {
        const std::uint64_t instance =
            stats::mix64(0xba4f, static_cast<std::uint64_t>(n) * kInstances +
                                     static_cast<std::uint64_t>(i));
        const SyntheticProblem root(instance, dist);
        const std::string what = describe(dist, n, instance);
        const auto want = ba_hf_partition(root, n, params);
        ASSERT_EQ(want.bisections, n - 1) << what;

        // The opted-in type: same answer; once the maximum passes w/n,
        // HF phases that cannot raise it bisect only the nodes above it.
        std::int64_t calls = 0;
        MaxSink sink;
        ba_hf_run(sink, ws, Bounded{root, &calls}, n, {}, threshold);
        ASSERT_EQ(bits(sink.max), bits(want.max_weight())) << what;
        ASSERT_EQ(sink.bisections, n - 1) << what;
        kept += calls;

        // Pure but not monotone: no floor, so small phases take the heap
        // and bisect exactly as the full partition does.
        if (small_phases) {
          std::int64_t pure_calls = 0;
          MaxSink pure;
          ba_hf_run(pure, pure_ws, PureOnly{root, &pure_calls}, n, {},
                    threshold);
          ASSERT_EQ(bits(pure.max), bits(want.max_weight())) << what;
          ASSERT_EQ(pure.bisections, n - 1) << what;
          ASSERT_EQ(pure_calls, n - 1) << what;
        }
      }
      // The share of BA-HF's bisections the max sink still makes (DESIGN.md
      // section 10.1 records these).  Unfloored walks (the first phase, and
      // phases heavier per processor than the maximum so far) bisect about
      // two nodes per piece, so a single trial on U[0.01,0.5] at 1024 may make
      // more than n - 1 calls; the cell's total may not.
      const std::int64_t all = std::int64_t{kInstances} * (n - 1);
      std::printf("[   kept   ] BA-HF %s n=%d: %.3f of n-1 bisections\n",
                  dist.describe().c_str(), n,
                  static_cast<double>(kept) / static_cast<double>(all));
      if (n >= 1024) {
        EXPECT_LT(kept, all) << dist.describe() << " n=" << n;
      }
    }
  }

  // Types that are pure but not monotone get no floor: the walk from 32
  // pieces and the heap below check every bisection they make, here a
  // heavier child that sometimes outweighs its parent and children that
  // shrink.
  for (const BaHfParams params : {BaHfParams{0.01, 1.0}, BaHfParams{0.1, 1.0},
                                  BaHfParams{0.1, 4.0}}) {
    TrialWorkspace<HeavierChildProblem> heavier_ws;
    TrialWorkspace<ShrinkingProblem> shrinking_ws;
    for (const std::int32_t n : {64, 1024, 4096}) {
      for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
        const std::string what = "n=" + std::to_string(n) +
                                 " alpha=" + std::to_string(params.alpha) +
                                 " beta=" + std::to_string(params.beta) +
                                 " seed=" + std::to_string(seed);
        const std::uint64_t hash = stats::mix64(0xba4e, seed);
        const double w = 1.0 + static_cast<double>(seed);
        expect_ba_hf_matches_full(HeavierChildProblem{hash, w}, n, params,
                                  heavier_ws, "heavier child " + what);
        expect_ba_hf_matches_full(ShrinkingProblem{hash, w}, n, params,
                                  shrinking_ws, "shrinking " + what);
      }
    }
  }
}

}  // namespace
}  // namespace lbb::core::detail
