// Scratch for the batched trial kernels.
//
// A BatchWorkspace runs B independent trials ("lanes") one after another:
// the drivers in core/batch/batch_kernels.hpp take lane l's root from
// root_hash/root_weight, run it to the end on the single-lane scratch below
// (HF's slots, heap, walk and queue; BA's frame stack), and leave its
// outcome in lane_max/lane_bisections.  Only one lane is live at a time, so
// the scratch is sized for one lane of n pieces, not B of them; only the
// roots and outcomes are per lane.
//
// Like TrialWorkspace, all storage is sized once (prepare()) and recycled
// across batches: once warm, a batch run performs exactly zero heap
// allocations (pinned by tests/perf/alloc_gate_test.cpp).  Kernels take the
// workspace as a parameter named `ws`, which also keeps them inside
// lbb-lint's hot-allocation receiver whitelist.
//
// This layer deliberately stores only what the experiment engine consumes --
// (node hash, weight, processor count) per live subproblem plus per-lane
// max-leaf-weight and bisection counters -- not Piece/BisectionTree objects.
// Callers that need pieces or a recorded tree use the scalar kernels; the
// experiment engine only needs the ratio, which is why the batch path can be
// this lean while staying byte-identical (core/batch/batch_kernels.hpp
// documents the identity argument).
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/detail/scratch.hpp"
#include "core/thread_annotations.hpp"

namespace lbb::core::batch {

using detail::HfHeapEntry;

/// Pushes `e` onto the 4-ary max-heap stored at `h[0..size)`, growing `size`.
/// Exactly HfHeap::push's hole-sift on a raw buffer: same comparator
/// (weight desc, seq asc -- a total order), same parent walk, so a lane heap
/// pops in precisely the order the scalar HfHeap would
/// (tests/property/hf_heap_test.cpp byte-compares the two on dense ties).
LBB_HOT inline void lane_heap_push(HfHeapEntry* h, std::int32_t& size,
                                   HfHeapEntry e) noexcept {
  std::int32_t hole = size++;
  while (hole > 0) {
    const std::int32_t parent = (hole - 1) / 4;
    const HfHeapEntry& p = h[parent];
    const bool e_higher = e.weight != p.weight ? e.weight > p.weight
                                               : e.seq < p.seq;
    if (!e_higher) break;
    h[hole] = p;
    hole = parent;
  }
  h[hole] = e;
}

/// Pops the top of the 4-ary max-heap at `h[0..size)`.  Mirrors HfHeap::pop.
LBB_HOT inline HfHeapEntry lane_heap_pop(HfHeapEntry* h,
                                         std::int32_t& size) noexcept {
  const HfHeapEntry result = h[0];
  const HfHeapEntry last = h[--size];
  if (size > 0) {
    const std::int32_t count = size;
    std::int32_t hole = 0;
    for (;;) {
      const std::int32_t first_child = 4 * hole + 1;
      if (first_child >= count) break;
      const std::int32_t end_child =
          first_child + 4 < count ? first_child + 4 : count;
      std::int32_t best = first_child;
      for (std::int32_t c = first_child + 1; c < end_child; ++c) {
        const bool c_higher = h[c].weight != h[best].weight
                                  ? h[c].weight > h[best].weight
                                  : h[c].seq < h[best].seq;
        if (c_higher) best = c;
      }
      // Overlap the next level's child-cacheline fetch with this level's
      // final compare (same rationale as HfHeap::pop; a prefetch past the
      // live end never faults and changes nothing observable).
      LBB_PREFETCH(h + 4 * best + 1);
      LBB_PREFETCH(h + 4 * best + 4);
      const bool best_higher = h[best].weight != last.weight
                                   ? h[best].weight > last.weight
                                   : h[best].seq < last.seq;
      if (!best_higher) break;
      h[hole] = h[best];
      hole = best;
    }
    h[hole] = last;
  }
  return result;
}

/// A tree node visited by hf_lane_run's walk.
struct WalkNode {
  std::uint64_t hash;
  double weight;
};

/// hf_lane_run's walk budget: a lane of n pieces may visit at most
/// kHfWalkPerPiece * n tree nodes before it gives up and falls back to the
/// selection queue.  An unbounded walk visits the nodes of weight >= w/n:
/// per piece 1.4-2.0 on average on the wide uniform distributions (never
/// above 2.71 for U[0.01,0.5] or U[0.1,0.5] over 400,000 seeds at each of
/// n = 24, 32, 48, 64, 100), but 3.1-27 on narrow or point distributions
/// (U[0.05,0.1], U[0.02,0.04], point(0.1), point(0.01)), where the queue is
/// the cheaper path at small n (the walk measured 1.3-9x slower at
/// n = 32-64).  3n separates the two groups at every n; an additive slack
/// (3n + 64 was tried) lets narrow ones fit at n = 32-64 and lose there.
/// Numbers in DESIGN.md section 7.6.
inline constexpr std::int64_t kHfWalkPerPiece = 3;

/// Most nodes an n-piece walk may visit (see kHfWalkPerPiece).
[[nodiscard]] constexpr std::size_t hf_walk_budget(std::int32_t n) noexcept {
  return static_cast<std::size_t>(kHfWalkPerPiece * n);
}

/// A frame of the BA-family lane stacks: a subproblem awaiting a visit.
struct LaneFrame {
  std::uint64_t hash;
  double weight;
  std::int32_t n;
};

/// Scratch for up to `width` lanes partitioning into up to `n` pieces.  All
/// vectors are plain flat buffers indexed by the kernels; none are resized
/// on the hot path.
class BatchWorkspace {
 public:
  /// Maximum lanes a single prepare() accepts; batches wider than the
  /// engine's 32-trial chunk never occur.
  static constexpr std::int32_t kMaxWidth = 32;

  /// Ensures capacity for `width` lanes of `n` pieces each.  Growth-only
  /// (capacity is retained across calls), so alternating cell sizes do not
  /// thrash; O(1) no-op once warm.
  void prepare(std::int32_t width, std::int32_t n) {
    if (width < 1 || width > kMaxWidth) {
      throw std::invalid_argument(
          "BatchWorkspace::prepare: width must be in [1, 32]");
    }
    if (n < 1) {
      throw std::invalid_argument("BatchWorkspace::prepare: n must be >= 1");
    }
    if (width <= width_ && n <= n_) return;
    width_ = width > width_ ? width : width_;
    n_ = n > n_ ? n : n_;
    const auto lanes = static_cast<std::size_t>(width_);
    const auto slots = static_cast<std::size_t>(n_);
    // HF: one (hash, weight) slot per live subproblem and the 4-ary
    // selection heap over them.
    slot_hash.resize(slots);
    slot_weight.resize(slots);
    heap.resize(slots);
    // HF's walk and selection scratch.  A walk within budget appends at
    // most two nodes past it before it checks.
    const std::size_t budget = hf_walk_budget(n_);
    walk_node.resize(budget + 2);
    walk_hist.resize(slots);
    walk_weight.resize(budget);
    // The band queue hf_lane_run falls back to, sized for n_ rather than
    // for a run's n: BA-HF hands in a different n on every seed, and the
    // first fallback may come on any of them.
    hf_queue.reserve(slots);
    // BA/BA-HF frame stack, never deeper than n - 1 (see ba_lane_run).
    frames.resize(slots);
    // Per-lane inputs and outcomes.
    root_hash.resize(lanes);
    root_weight.resize(lanes);
    lane_max.resize(lanes);
    lane_bisections.resize(lanes);
  }

  // --- Buffers (public by design: kernels index them directly, the same
  // --- scratch idiom as TrialWorkspace's hf_slots/heap/frames). ---
  std::vector<std::uint64_t> slot_hash;
  std::vector<double> slot_weight;
  std::vector<HfHeapEntry> heap;
  std::vector<LaneFrame> frames;
  std::vector<std::uint64_t> root_hash;
  std::vector<double> root_weight;
  std::vector<double> lane_max;
  std::vector<std::int64_t> lane_bisections;
  /// hf_lane_run's walk: the nodes it visited, in visiting order, then the
  /// selection's bucket histogram and the weights of the bucket that holds
  /// the answer.
  std::vector<WalkNode> walk_node;
  std::vector<std::int32_t> walk_hist;
  std::vector<double> walk_weight;
  /// Weight-band selection queue of hf_lane_run at n >=
  /// detail::kHfBandMinPieces when the walk does not run.  Reserved for the
  /// prepared n.
  detail::HfBandQueue hf_queue;
  /// True while hf_lane_run tries the walk.  The first walk that overflows
  /// its budget or meets a child heavier than its parent clears it, and the
  /// lanes select with the queue from then on; experiments::
  /// BatchTrialRunner sets it again when the distribution changes.  Only
  /// speed depends on it: both paths return the same bits.
  bool hf_walk = true;

 private:
  std::int32_t width_ = 0;
  std::int32_t n_ = 0;
};

}  // namespace lbb::core::batch
