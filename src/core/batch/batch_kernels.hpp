// Batched HF / BA / BA' / BA-HF drivers.
//
// Each driver runs B independent trials ("lanes") of the same algorithm over
// a BatchWorkspace, one lane after another, and reports per lane only the
// heaviest piece and the bisection count.  BA and BA' (ba_batch_run) walk a
// lane depth-first like ba_run, keeping the heavier child in hand and
// stacking only the lighter one.  BA-HF (ba_hf_batch_run) does the same
// above its switch threshold and hands each smaller subproblem to
// hf_lane_run, which is also every lane of hf_batch_run: from
// detail::kHfBandMinPieces pieces on it finds the heaviest piece as the
// n-th heaviest node of the bisection tree with a bounded walk and a
// bucketed selection, and below that, or when the walk gives up, it
// simulates HF's selection on the workspace's slot arrays.
// The drivers are templated on a LaneModel -- a problem class expressed as
// a pure function over (node_hash, weight) pairs -- so this layer stays free
// of any problems/ dependency:
//
//   struct LaneModel {
//     // Children of one node; first pair is the heavier-or-equal child and
//     // must match the scalar problem's bisect() bit for bit.
//     void bisect(u64 hash, double w, u64& heavy_hash, double& heavy_w,
//                 u64& light_hash, double& light_w) const;
//   };
//
// Byte-identity to the scalar kernels (the contract the scalar-vs-batched
// golden gate asserts):
//   * Per lane, HF's heaviest piece is the scalar one.  The simulated
//     selection pops in exactly the scalar order -- the HF priority
//     (weight, seq) is a total order, lane_heap_push/pop replicate HfHeap's
//     sift logic, and the weight-band queue pops HfHeap's sequence -- and
//     the walk returns the n-th heaviest node, which is what that order
//     leaves as the heaviest piece (see hf_lane_walk).  A BA lane visits
//     its frames in ba_run's order: the heavier child next, the stacked
//     lighter one when that subtree is done.  Lanes cannot perturb each
//     other because draws are path-hashed (pure functions of the node
//     hash), not consumed from a shared stream.
//   * Every weight is produced by the same inline expression on the same
//     inputs as the scalar path ((1-alpha)*w / alpha*w, no reassociation),
//     so each node's weight is bitwise equal.
//   * The only outputs -- max piece weight and bisection count -- are
//     order-independent reductions of those bitwise-equal values.
//
// The drivers emit no pieces and record no tree: callers needing a
// Partition use the scalar kernels (experiments/batch_trials.cpp routes
// only piece-free builtin configurations here).
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>

#include "core/batch/batch_workspace.hpp"
#include "core/split.hpp"
#include "core/thread_annotations.hpp"

namespace lbb::core::batch {

/// A lane's raw-buffer 4-ary heap (lane_heap_push/pop) behind the queue
/// interface hf_lane_select shares with detail::HfBandQueue.
struct LaneHeap {
  HfHeapEntry* h;
  std::int32_t size = 0;

  LBB_HOT void push(HfHeapEntry e) noexcept { lane_heap_push(h, size, e); }
  LBB_HOT HfHeapEntry pop() noexcept { return lane_heap_pop(h, size); }
  [[nodiscard]] const HfHeapEntry& top() const noexcept { return h[0]; }
};

/// hf_lane_run's selection loop over slot arrays `sh`/`sw` whose slot 0
/// holds the root; `queue` is empty.  Mirrors detail::hf_select, so both
/// queue types pop in HfHeap's total order.
template <typename Model, typename Queue>
LBB_HOT inline void hf_lane_select(BatchWorkspace& ws, const Model& model,
                                   std::int32_t l, std::uint64_t* sh,
                                   double* sw, Queue& queue, std::int32_t n) {
  std::int64_t seq = 0;
  std::int32_t used = 1;
  // Hand-held maximum, exactly as hf_select: the priority is a total order,
  // so keeping the strict max outside the queue changes no pop -- it skips
  // the push + pop pair whenever the heavier child immediately outweighs
  // every queued entry.  Ties go through the queue (smaller seq wins).
  HfHeapEntry hand{sw[0], seq++, 0};
  for (std::int32_t live = 1; live < n; ++live) {
    std::uint64_t hh;
    std::uint64_t lh;
    double hw;
    double lw;
    model.bisect(sh[hand.slot], sw[hand.slot], hh, hw, lh, lw);
    // Canonical order: left child is the heavier-or-equal one (mirrors
    // hf_run's swap; a no-op for models whose heavy output is exact).
    if (hw < lw) {
      const std::uint64_t th = hh;
      hh = lh;
      lh = th;
      const double tw = hw;
      hw = lw;
      lw = tw;
    }
    sh[hand.slot] = hh;
    sw[hand.slot] = hw;
    const HfHeapEntry heavy_entry{hw, seq++, hand.slot};
    sh[used] = lh;
    sw[used] = lw;
    queue.push(HfHeapEntry{lw, seq++, used});
    ++used;
    ++ws.lane_bisections[l];
    if (live + 1 < n && hw > queue.top().weight) {
      hand = heavy_entry;
    } else {
      queue.push(heavy_entry);
      if (live + 1 < n) hand = queue.pop();
    }
    if constexpr (std::is_same_v<Queue, detail::HfBandQueue>) {
      // Fetch the hot top's slot one bisection ahead (see hf_select).
      LBB_PREFETCH(sh + queue.top().slot);
      LBB_PREFETCH(sw + queue.top().slot);
    }
  }
}

/// The n-th largest weight among the `count` nodes of a finished walk,
/// ws.walk_node[0..count), all of them positive and in [t, w].  Buckets the
/// weights by their bit distance from the root weight w,
/// bit_cast<u64>(w) - bit_cast<u64>(x), which grows as x falls (positive
/// doubles order like their bit patterns), then runs nth_element inside
/// the one bucket that holds rank n.  About n buckets over the span keep
/// that bucket a few dozen entries long.
LBB_HOT inline double hf_walk_select(BatchWorkspace& ws, double w, double t,
                                     std::size_t count, std::int32_t n) {
  const WalkNode* node = ws.walk_node.data();
  double* bucket = ws.walk_weight.data();
  std::int32_t* hist = ws.walk_hist.data();
  const std::uint64_t top_bits = std::bit_cast<std::uint64_t>(w);
  const std::uint64_t span = top_bits - std::bit_cast<std::uint64_t>(t);
  // Shift the span down to at most bit_floor(n) buckets.
  const int bucket_bits = std::bit_width(static_cast<std::uint32_t>(n)) - 1;
  const int span_bits = std::bit_width(span);
  const int shift = span_bits > bucket_bits ? span_bits - bucket_bits : 0;
  const auto bucket_of = [&](double x) noexcept {
    return static_cast<std::size_t>(
        (top_bits - std::bit_cast<std::uint64_t>(x)) >> shift);
  };
  std::fill_n(hist, (span >> shift) + 1, 0);
  for (std::size_t i = 0; i < count; ++i) ++hist[bucket_of(node[i].weight)];
  std::size_t b = 0;
  std::int32_t rank = n;  // 1-based, heaviest first, within bucket b
  while (hist[b] < rank) rank -= hist[b++];
  std::size_t size = 0;
  for (std::size_t i = 0; i < count; ++i) {
    bucket[size] = node[i].weight;
    size += static_cast<std::size_t>(bucket_of(node[i].weight) == b);
  }
  double* nth = bucket + (rank - 1);
  std::nth_element(bucket, nth, bucket + size, std::greater<double>());
  return *nth;
}

/// HF's heaviest piece on an n-piece lane without simulating HF.  HF always
/// bisects the heaviest live subproblem, and no child outweighs its parent,
/// so its k-th bisection takes the k-th heaviest node of the whole
/// bisection tree and, after n-1 bisections, its heaviest piece is the n-th
/// heaviest node (a value that ties cannot change).  The nodes of weight
/// >= t form a subtree around the root, since ancestors are heavier, and a
/// walk that bisects every node it visits and keeps only children >= t
/// visits exactly that subtree.  The pieces sum to w, so the answer is at
/// least w/n: the walk starts just below it (the margin absorbs the
/// rounding of the children's sums) and halves t if fewer than n nodes
/// come back.
///
/// The walk is breadth-first over ws.walk_node, which is at once its queue
/// and the list of visited nodes: the next node to bisect never depends on
/// the last bisection, so consecutive bisections overlap in the core (a
/// depth-first stack made every pop wait for the previous children).  Both
/// children are appended and the end advances past each one that is >= t,
/// with no branch.
///
/// Returns false, leaving `nth` unset, when the walk must not be trusted
/// or does not pay: a child heavier than its parent, a non-positive or NaN
/// weight, or more than hf_walk_budget(n) nodes.  The caller then runs the
/// selection queue, which handles all of these.
template <typename Model>
LBB_HOT inline bool hf_lane_walk(BatchWorkspace& ws, const Model& model,
                                 std::uint64_t hash, double w, std::int32_t n,
                                 double& nth) {
  const std::size_t budget = hf_walk_budget(n);
  WalkNode* node = ws.walk_node.data();
  double t = w / static_cast<double>(n) * (1.0 - 0x1p-20);
  for (;;) {
    node[0] = WalkNode{hash, w};
    std::size_t end = 1;
    for (std::size_t i = 0; i < end; ++i) {
      if (end > budget) return false;
      const WalkNode x = node[i];
      std::uint64_t hh;
      std::uint64_t lh;
      double hw;
      double lw;
      model.bisect(x.hash, x.weight, hh, hw, lh, lw);
      if (!(hw <= x.weight && lw <= x.weight && hw > 0.0 && lw > 0.0)) {
        return false;
      }
      node[end] = WalkNode{hh, hw};
      end += static_cast<std::size_t>(hw >= t);
      node[end] = WalkNode{lh, lw};
      end += static_cast<std::size_t>(lw >= t);
    }
    if (end >= static_cast<std::size_t>(n)) {
      nth = hf_walk_select(ws, w, t, end, n);
      return true;
    }
    t *= 0.5;
  }
}

/// Runs HF on lane `l` for a subproblem (`hash`, `w`) owning `n`
/// processors, folding its heaviest piece into ws.lane_max[l] and its n-1
/// bisections into ws.lane_bisections[l].  This is every lane of
/// hf_batch_run and the HF phase of ba_hf_batch_run (sub-threshold
/// subproblems).
///
/// Below detail::kHfBandMinPieces pieces it simulates HF with the lane's
/// raw 4-ary heap.  From there on it tries hf_lane_walk while ws.hf_walk is
/// set, clears that flag when a walk gives up, and otherwise simulates HF
/// with the workspace's weight-band queue (ws.hf_queue, shared by the
/// lanes, which run one after another).  One cut-over serves both: the
/// walk loses to the heap at 16 pieces and breaks even at 24 (DESIGN.md
/// section 7.6).  prepare() sizes the walk's buffers and the queue for its
/// n, so a warm workspace never allocates here for any `n` up to that, on
/// either path.
template <typename Model>
LBB_HOT inline void hf_lane_run(BatchWorkspace& ws, const Model& model,
                                std::int32_t l, std::uint64_t hash, double w,
                                std::int32_t n) {
  if (n == 1) {
    if (w > ws.lane_max[l]) ws.lane_max[l] = w;
    return;
  }
  if (n >= detail::kHfBandMinPieces && ws.hf_walk) {
    double m;
    if (hf_lane_walk(ws, model, hash, w, n, m)) {
      if (m > ws.lane_max[l]) ws.lane_max[l] = m;
      ws.lane_bisections[l] += n - 1;
      return;
    }
    ws.hf_walk = false;
  }
  std::uint64_t* sh = ws.slot_hash.data();
  double* sw = ws.slot_weight.data();
  sh[0] = hash;
  sw[0] = w;
  if (n < detail::kHfBandMinPieces) {
    LaneHeap heap{ws.heap.data()};
    hf_lane_select(ws, model, l, sh, sw, heap, n);
  } else {
    ws.hf_queue.clear();
    hf_lane_select(ws, model, l, sh, sw, ws.hf_queue, n);
  }
  for (std::int32_t i = 0; i < n; ++i) {
    if (sw[i] > ws.lane_max[l]) ws.lane_max[l] = sw[i];
  }
}

/// HF over lanes [0, lanes): each lane runs hf_lane_run from its root
/// (ws.root_hash / ws.root_weight) to ws.lane_max / ws.lane_bisections.
template <typename Model>
LBB_HOT void hf_batch_run(BatchWorkspace& ws, const Model& model,
                          std::int32_t lanes, std::int32_t n) {
  for (std::int32_t l = 0; l < lanes; ++l) {
    ws.lane_max[l] = 0.0;
    ws.lane_bisections[l] = 0;
    hf_lane_run(ws, model, l, ws.root_hash[l], ws.root_weight[l], n);
  }
}

/// One BA-style lane from frame `f`: bisects every frame that `leaf`
/// rejects, splitting its processors like ba_run, and hands every frame
/// that `leaf` accepts to `visit`.  The heavier child stays in hand and
/// only the lighter one goes on ws.frames, so frames come in ba_run's order
/// (ba_run pushes right, then left, and pops left at once).  The stack
/// holds one lighter child per bisection on the path to the frame in hand,
/// and processor counts fall strictly along a path, so it never holds more
/// than n - 1 frames.  Returns the lane's bisection count.
template <typename Model, typename Leaf, typename Visit>
LBB_HOT inline std::int64_t ba_lane_run(BatchWorkspace& ws, const Model& model,
                                        LaneFrame f, const Leaf& leaf,
                                        const Visit& visit) {
  LaneFrame* stack = ws.frames.data();
  std::int32_t top = 0;
  std::int64_t bisections = 0;
  for (;;) {
    if (leaf(f)) {
      visit(f);
      if (top == 0) return bisections;
      f = stack[--top];
      continue;
    }
    std::uint64_t hh;
    std::uint64_t lh;
    double hw;
    double lw;
    model.bisect(f.hash, f.weight, hh, hw, lh, lw);
    if (hw < lw) {
      std::swap(hh, lh);
      std::swap(hw, lw);
    }
    const std::int32_t n1 = ba_split_processors(hw, lw, f.n);
    stack[top++] = LaneFrame{lh, lw, f.n - n1};
    f = LaneFrame{hh, hw, n1};
    ++bisections;
  }
}

/// BA / BA' over lanes [0, lanes), one lane after another.
/// `prune_below >= 0` emits subproblems at or below that weight as leaves
/// regardless of processor count (Algorithm BA'); pass -1 for plain BA.
template <typename Model>
LBB_HOT void ba_batch_run(BatchWorkspace& ws, const Model& model,
                          std::int32_t lanes, std::int32_t n,
                          double prune_below) {
  for (std::int32_t l = 0; l < lanes; ++l) {
    double max = 0.0;
    ws.lane_bisections[l] = ba_lane_run(
        ws, model, LaneFrame{ws.root_hash[l], ws.root_weight[l], n},
        [prune_below](const LaneFrame& f) {
          return f.n == 1 || (prune_below >= 0.0 && f.weight <= prune_below);
        },
        [&max](const LaneFrame& f) {
          if (f.weight > max) max = f.weight;
        });
    ws.lane_max[l] = max;
  }
}

/// BA-HF over lanes [0, lanes), one lane after another: BA-style splitting
/// while a frame owns >= switch_threshold processors, HF (hf_lane_run)
/// below it -- mirroring ba_hf_run frame for frame.
template <typename Model>
LBB_HOT void ba_hf_batch_run(BatchWorkspace& ws, const Model& model,
                             std::int32_t lanes, std::int32_t n,
                             std::int32_t switch_threshold) {
  for (std::int32_t l = 0; l < lanes; ++l) {
    // hf_lane_run folds each HF phase into lane l's outcome as it runs.
    ws.lane_max[l] = 0.0;
    ws.lane_bisections[l] = 0;
    const std::int64_t ba_bisections = ba_lane_run(
        ws, model, LaneFrame{ws.root_hash[l], ws.root_weight[l], n},
        [switch_threshold](const LaneFrame& f) {
          return f.n < switch_threshold;
        },
        [&ws, &model, l](const LaneFrame& f) {
          hf_lane_run(ws, model, l, f.hash, f.weight, f.n);
        });
    ws.lane_bisections[l] += ba_bisections;
  }
}

}  // namespace lbb::core::batch
