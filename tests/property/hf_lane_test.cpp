// Property test: a batched HF lane (core/batch hf_lane_run) reports the
// scalar HF's heaviest piece bit for bit, and n-1 bisections, on every path
// it can take -- the walk that finds the n-th heaviest node of the
// bisection tree, and the simulated HF selection it falls back to.
//
//   * Synthetic distributions, wide and narrow, at sizes on both sides of
//     the walk's cut-over: against hf_partition(...).max_weight().
//   * Two toy lane models that break the walk's assumptions -- a heavy
//     child that sometimes outweighs its parent, and children that sum to
//     3/4 of the parent -- against hf_lane_select over detail::HfBandQueue.
//
// BaLaneProperty holds the BA-family drivers (ba_batch_run for BA and BA',
// ba_hf_batch_run) to the same bar, lane by lane, against the scalar
// kernels' max_weight() and bisection count.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>

#include "core/ba.hpp"
#include "core/ba_hf.hpp"
#include "core/batch/batch_kernels.hpp"
#include "core/bounds.hpp"
#include "core/hf.hpp"
#include "problems/synthetic.hpp"
#include "problems/synthetic_lanes.hpp"
#include "stats/rng.hpp"

namespace lbb::core::batch {
namespace {

using problems::AlphaDistribution;
using problems::SyntheticLaneModel;
using problems::SyntheticProblem;

constexpr std::int32_t kCutOver = detail::kHfBandMinPieces;
constexpr std::int32_t kMaxPieces = 4096;
constexpr std::uint64_t kSeeds = 32;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

struct LaneResult {
  double max = 0.0;
  std::int64_t bisections = 0;
  bool walked = false;  ///< the walk produced the result
};

/// One hf_lane_run on lane 0 of `ws`, with the walk allowed or not.
template <typename Model>
LaneResult run_lane(BatchWorkspace& ws, const Model& model,
                    std::uint64_t hash, double w, std::int32_t n,
                    bool allow_walk) {
  ws.lane_max[0] = 0.0;
  ws.lane_bisections[0] = 0;
  ws.hf_walk = allow_walk;
  hf_lane_run(ws, model, 0, hash, w, n);
  return {ws.lane_max[0], ws.lane_bisections[0],
          allow_walk && n >= kCutOver && ws.hf_walk};
}

/// HF simulated with the band queue on lane 0's slots: the reference for
/// models without a scalar problem class.
template <typename Model>
double queue_reference(BatchWorkspace& ws, const Model& model,
                       std::uint64_t hash, double w, std::int32_t n) {
  std::uint64_t* sh = ws.slot_hash.data();
  double* sw = ws.slot_weight.data();
  sh[0] = hash;
  sw[0] = w;
  detail::HfBandQueue queue;
  queue.reserve(static_cast<std::size_t>(n));
  hf_lane_select(ws, model, 0, sh, sw, queue, n);
  return *std::max_element(sw, sw + n);
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
  BatchWorkspace ws;
  ws.prepare(1, kMaxPieces);
  std::int64_t walked = 0;
  std::int64_t fell_back = 0;
  for (const AlphaDistribution& dist : dists) {
    const SyntheticLaneModel model(dist);
    // The wide uniform distributions are what the walk is for: their walks
    // visit 1.7-2.0 nodes per piece, well inside the budget.
    const bool wide = dist.kind() == AlphaDistribution::Kind::kUniform &&
                      dist.upper_bound() == 0.5;
    for (const std::int32_t n : sizes) {
      for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
        const std::uint64_t instance = stats::mix64(0x1a7e, seed);
        const std::string what = describe(dist, n, seed);
        const double want =
            hf_partition(SyntheticProblem(instance, dist), n).max_weight();
        const std::uint64_t root = SyntheticLaneModel::root_hash(instance);
        for (const bool allow_walk : {true, false}) {
          const LaneResult got = run_lane(ws, model, root, 1.0, n, allow_walk);
          ASSERT_EQ(bits(got.max), bits(want))
              << what << (allow_walk ? " walk allowed" : " queue only");
          ASSERT_EQ(got.bisections, n - 1) << what;
          if (allow_walk && n >= kCutOver) {
            (got.walked ? walked : fell_back) += 1;
            if (wide) {
              EXPECT_TRUE(got.walked) << what << " fell back";
            }
          }
        }
      }
    }
  }
  EXPECT_GT(walked, 0);
  EXPECT_GT(fell_back, 0);
}

/// A LaneModel whose heavy child outweighs its parent on about one
/// bisection in 220 (one in 128 is scaled by 1.5, which lifts it above its
/// parent when alpha < 1/3): a problem that breaks the alpha-bisector
/// contract.  A walk that visits such a node must hand the lane to the
/// queue; one that never does is still exact, because HF bisects only
/// nodes the walk visits.
struct HeavierChildModel {
  void bisect(std::uint64_t hash, double w, std::uint64_t& heavy_hash,
              double& heavy_w, std::uint64_t& light_hash,
              double& light_w) const noexcept {
    const std::uint64_t r = stats::splitmix64(hash);
    const double alpha = 0.1 + 0.4 * stats::hash_to_unit(r);
    heavy_hash = stats::mix64(hash, 1);
    light_hash = stats::mix64(hash, 2);
    heavy_w = (1.0 - alpha) * w;
    light_w = alpha * w;
    if ((r & 127) == 0) heavy_w *= 1.5;
  }
};

/// A LaneModel whose children sum to 3/4 of their parent: HF's heaviest
/// piece falls below w/n, so the walk's first threshold finds fewer than n
/// nodes and it must lower the threshold and walk again.
struct ShrinkingModel {
  void bisect(std::uint64_t hash, double w, std::uint64_t& heavy_hash,
              double& heavy_w, std::uint64_t& light_hash,
              double& light_w) const noexcept {
    const double alpha =
        0.1 + 0.4 * stats::hash_to_unit(stats::splitmix64(hash));
    heavy_hash = stats::mix64(hash, 1);
    light_hash = stats::mix64(hash, 2);
    heavy_w = (1.0 - alpha) * 0.75 * w;
    light_w = alpha * 0.75 * w;
  }
};

template <typename Model>
void expect_matches_queue(const Model& model, std::int64_t& walked,
                          std::int64_t& fell_back,
                          std::int64_t& below_first_threshold) {
  BatchWorkspace ws;
  ws.prepare(1, kMaxPieces);
  for (const std::int32_t n : {kCutOver, 64, 100, 1024, kMaxPieces}) {
    for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
      const std::uint64_t root = stats::mix64(0x70e, seed);
      const double w = 1.0 + static_cast<double>(seed);
      const double want = queue_reference(ws, model, root, w, n);
      const LaneResult got = run_lane(ws, model, root, w, n, true);
      ASSERT_EQ(bits(got.max), bits(want))
          << "n=" << n << " seed=" << seed;
      ASSERT_EQ(got.bisections, n - 1);
      (got.walked ? walked : fell_back) += 1;
      if (got.walked && want < w / n * (1.0 - 0x1p-20)) {
        ++below_first_threshold;
      }
    }
  }
}

TEST(HfLaneProperty, HeavierChildFallsBackToTheQueue) {
  std::int64_t walked = 0;
  std::int64_t fell_back = 0;
  std::int64_t below = 0;
  expect_matches_queue(HeavierChildModel{}, walked, fell_back, below);
  EXPECT_GT(fell_back, 0);  // the contract check fired
  EXPECT_GT(walked, 0);     // and clean walks still agreed
}

TEST(HfLaneProperty, ShortWalkLowersTheThresholdAndRetries) {
  std::int64_t walked = 0;
  std::int64_t fell_back = 0;
  std::int64_t below = 0;
  expect_matches_queue(ShrinkingModel{}, walked, fell_back, below);
  // Walks whose answer lies below the first threshold found fewer than n
  // nodes there and succeeded on a later, lower one.
  EXPECT_GT(below, 0);
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
  constexpr std::int32_t kLanes = 8;
  constexpr double kRootWeight = 1.0;
  for (const AlphaDistribution& dist : dists) {
    const SyntheticLaneModel model(dist);
    const double alpha = dist.lower_bound();
    for (const std::int32_t n : {1, 2, 3, 31, 100, 1000, 4097, 16384}) {
      // Sized for exactly this n, so a frame stack that outgrew it would
      // run off the end of its buffer (point(0.01) peels one processor
      // per bisection, the deepest chain BA can build).
      BatchWorkspace ws;
      ws.prepare(kLanes, n);
      std::uint64_t instance[kLanes];
      for (std::int32_t l = 0; l < kLanes; ++l) {
        instance[l] = stats::mix64(
            0xba1a, static_cast<std::uint64_t>(n) * kLanes +
                        static_cast<std::uint64_t>(l));
        ws.root_hash[l] = SyntheticLaneModel::root_hash(instance[l]);
        ws.root_weight[l] = kRootWeight;
      }
      const auto expect_lanes = [&](const char* algo, const auto& scalar) {
        for (std::int32_t l = 0; l < kLanes; ++l) {
          const auto want = scalar(SyntheticProblem(instance[l], dist));
          const std::string what = std::string(algo) + " " +
                                   describe(dist, n, instance[l]) +
                                   " lane=" + std::to_string(l);
          ASSERT_EQ(bits(ws.lane_max[l]), bits(want.max_weight())) << what;
          ASSERT_EQ(ws.lane_bisections[l], want.bisections) << what;
        }
      };
      ba_batch_run(ws, model, kLanes, n, /*prune_below=*/-1.0);
      expect_lanes("ba", [n](SyntheticProblem p) {
        return ba_partition(std::move(p), n);
      });
      ba_batch_run(ws, model, kLanes, n,
                   phf_phase1_threshold(alpha, kRootWeight, n));
      expect_lanes("ba_star", [n, alpha](SyntheticProblem p) {
        return ba_star_partition(std::move(p), n, alpha);
      });
      const BaHfParams params{alpha, 1.0};
      ba_hf_batch_run(ws, model, kLanes, n,
                      ba_hf_switch_threshold(params.alpha, params.beta));
      expect_lanes("ba_hf", [n, params](SyntheticProblem p) {
        return ba_hf_partition(std::move(p), n, params);
      });
    }
  }
}

}  // namespace
}  // namespace lbb::core::batch
