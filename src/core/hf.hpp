// Algorithm HF ("Heaviest Problem First", Figure 1 of the paper).
//
// Sequential baseline: starting from {p}, repeatedly bisect a subproblem of
// maximum weight until N subproblems exist (N-1 bisections).  For a class
// with alpha-bisectors, Theorem 2 guarantees
//   max_i w(p_i) <= (w(p)/N) * r_alpha,   r_alpha = hf_ratio_bound(alpha).
//
// Tie-breaking: among equal-weight subproblems the one created earliest is
// bisected first.  Algorithm PHF (src/sim/phf.hpp) uses the identical rule,
// which makes the two partitions equal as multisets of problems, not merely
// equal in ratio.
//
// Selection: the priority (weight descending, then seq ascending) is a
// TOTAL order because seq is unique, so every correct priority queue pops
// the same sequence and the partition does not depend on which one runs.
// hf_run picks by size (detail::kHfBandMinPieces, core/detail/scratch.hpp):
//   * below the cut-over, detail::HfHeap, an inline 4-ary max-heap: half
//     the height of a binary heap, a sift-down level reads 4 contiguous
//     24-byte children (96 bytes, which can span two cache lines), and the
//     comparator inlines with no function-object indirection;
//   * from the cut-over on, detail::HfBandQueue.  HF's pops come out in
//     non-increasing weight order (a child never outweighs its parent), so
//     lighter entries wait in weight bands (256 per octave) that are
//     written and read sequentially, and only the current band sits in a
//     small heap.  At N=2^20 the global heap would be 24 MB and miss cache
//     on almost every sift-down level; the band queue runs HF about 2x
//     faster (DESIGN.md section 7.5).
// Both are checked against std::priority_queue (tests/core/hf_test.cpp and
// tests/property/hf_heap_test.cpp): partitions, recorded trees and goldens
// do not depend on which structure ran.
//
// Output: hf_run writes through a sink (core/detail/build_context.hpp).
// Under the max sink, for problem types that opt in, it finds the heaviest
// piece from the cut-over on with a tree walk (hf_tree_walk).
//
// Memory: every overload routes through a TrialWorkspace.  The
// workspace-taking entry points reuse the slot array, per-slot weights,
// selection structures and Partition::pieces storage across trials (zero
// steady-state allocations -- the `perf` ctest gate pins this); the
// workspace-free overloads keep the historical behavior by running on a
// cold workspace.  Both produce byte-identical partitions.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "core/detail/build_context.hpp"
#include "core/detail/scratch.hpp"
#include "core/partition.hpp"
#include "core/problem.hpp"
#include "core/thread_annotations.hpp"
#include "core/workspace.hpp"

namespace lbb::core {

namespace detail {

/// A problem type HF may walk: it opted in (core::pure_bisect_v), since the
/// walk bisects nodes HF never would and bisects them again when it
/// retries, and it is trivially copyable, since nodes live in raw storage.
template <typename P>
concept TreeWalkable =
    Bisectable<P> && pure_bisect_v<P> && std::is_trivially_copyable_v<P>;

/// The walk's budget: an n-piece walk may visit at most kHfWalkPerPiece * n
/// tree nodes before it gives up and HF falls back to the selection queue.
/// Wide uniform distributions visit 1.4-2.71 nodes per piece, narrow and
/// point ones 3.1-27, where the queue is cheaper; 3n separates the two
/// groups at every n measured (DESIGN.md section 7.6).
inline constexpr std::int64_t kHfWalkPerPiece = 3;

/// Most nodes an n-piece walk may visit (see kHfWalkPerPiece).
[[nodiscard]] constexpr std::size_t hf_walk_budget(std::int32_t n) noexcept {
  return static_cast<std::size_t>(kHfWalkPerPiece * n);
}

/// The n-th largest weight among the `count` nodes of a finished walk,
/// all of them positive and in [t, w]: about n buckets by bit distance from
/// w (positive doubles order like their bit patterns), then nth_element
/// inside the one bucket that holds rank n.
template <TreeWalkable P>
LBB_HOT double hf_walk_select(TrialWorkspace<P>& ws, const P* node, double w,
                              double t, std::size_t count, std::int32_t n) {
  RawBuffer& hist_buf = ws.walk_hist;
  RawBuffer& weight_buf = ws.slot_weight;
  std::int32_t* hist =
      hist_buf.reserve<std::int32_t>(static_cast<std::size_t>(n));
  double* bucket = weight_buf.reserve<double>(hf_walk_budget(n));
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
  for (std::size_t i = 0; i < count; ++i) ++hist[bucket_of(node[i].weight())];
  std::size_t b = 0;
  std::int32_t rank = n;  // 1-based, heaviest first, within bucket b
  while (hist[b] < rank) rank -= hist[b++];
  std::size_t size = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const double x = node[i].weight();
    bucket[size] = x;
    size += static_cast<std::size_t>(bucket_of(x) == b);
  }
  double* nth = bucket + (rank - 1);
  std::nth_element(bucket, nth, bucket + size, std::greater<double>());
  return *nth;
}

/// HF's heaviest piece on `root` with n pieces, into `nth`.  HF always
/// bisects the heaviest live subproblem and no child outweighs its parent,
/// so after n-1 bisections its heaviest piece is the n-th heaviest node of
/// the tree.  The nodes of weight >= t form a subtree around the root, and
/// a walk that bisects every node it visits and keeps only children >= t
/// visits exactly that subtree.  The pieces sum to w, so the answer is at
/// least w/n: the walk starts just below it (the margin absorbs rounding)
/// and halves t if fewer than n nodes come back.
///
/// Breadth-first over ws.hf_slots' storage, at once the queue and the
/// visited list, so consecutive bisections overlap in the core; children are
/// appended branch-free, and without HF's heavier-first swap, which
/// changes no weight it selects from.  Returns false, leaving `nth` unset,
/// on a child heavier than its parent, a non-positive or NaN weight, or
/// more than hf_walk_budget(n) nodes; HF's selection queue handles those.
template <TreeWalkable P>
LBB_HOT bool hf_tree_walk(TrialWorkspace<P>& ws, const P& root,
                          std::int32_t n, double& nth) {
  const std::size_t budget = hf_walk_budget(n);
  RawBuffer& node_buf = ws.hf_slots;
  P* node = node_buf.reserve<P>(budget + 2);
  const double w = root.weight();
  double t = w / static_cast<double>(n) * (1.0 - 0x1p-20);
  for (;;) {
    node[0] = root;
    std::size_t end = 1;
    for (std::size_t i = 0; i < end; ++i) {
      if (end > budget) return false;
      P x = node[i];
      const double xw = x.weight();
      // A non-const pair: GCC 12 then copies the children into the array
      // straight from registers.  With a const one (or a const structured
      // binding) it builds them in a stack temporary whose 16-byte reloads
      // miss store forwarding, which cost the walk 20-30%.
      std::pair<P, P> kids = x.bisect();
      const double aw = kids.first.weight();
      const double bw = kids.second.weight();
      if (!(aw <= xw && bw <= xw && aw > 0.0 && bw > 0.0)) return false;
      node[end] = kids.first;
      end += static_cast<std::size_t>(aw >= t);
      node[end] = kids.second;
      end += static_cast<std::size_t>(bw >= t);
    }
    if (end >= static_cast<std::size_t>(n)) {
      nth = hf_walk_select(ws, node, w, t, end, n);
      return true;
    }
    t *= 0.5;
  }
}

/// True when hf_run under `Sink` may walk the bisection tree instead of
/// selecting (the max sink on an opted-in problem type).
template <typename Sink, typename P>
inline constexpr bool kHfWalks =
    std::is_same_v<Sink, MaxSink> && TreeWalkable<P>;

/// Sizes ws's HF scratch, growth-only, so that no run of up to `n` pieces
/// under `Sink` allocates.  hf_run sizes what it uses itself; this is for
/// callers whose runs vary in size, such as BA-HF's HF phases.
template <typename Sink, Bisectable P>
void hf_reserve(TrialWorkspace<P>& ws, std::int32_t n) {
  const auto size = static_cast<std::size_t>(n);
  RawBuffer& slots = ws.hf_slots;
  RawBuffer& weights = ws.slot_weight;
  (void)slots.reserve<HfSlot<P, Sink>>(size);
  (void)weights.reserve<double>(size);
  ws.heap.reserve(std::min<std::size_t>(size, kHfBandMinPieces - 1));
  if (n < kHfBandMinPieces) return;
  ws.hf_queue.reserve(size);
  if constexpr (kHfWalks<Sink, P>) {
    // The walk's nodes (a walk within budget appends at most two past it
    // before it checks), bucket weights and bucket histogram.
    RawBuffer& hist = ws.walk_hist;
    (void)slots.reserve<P>(hf_walk_budget(n) + 2);
    (void)weights.reserve<double>(hf_walk_budget(n));
    (void)hist.reserve<std::int32_t>(size);
  }
}

/// HF's selection loop on `problem` with `n` >= 2 processors: n-1 times,
/// bisect the heaviest live slot (ties: earliest created), the heavier
/// child reusing the parent's slot; then hand the n pieces to `sink` in
/// slot (creation) order.  `queue` is empty with room for n entries.
/// `Queue` is an HfHeap::Local or the HfBandQueue -- both pop in the same
/// total order, so the output does not depend on which one runs.
template <typename Sink, Bisectable P, typename Queue>
LBB_HOT void hf_select(Sink& sink, TrialWorkspace<P>& ws, Queue& queue,
                       P problem, std::int32_t n,
                       const typename Sink::FrameTag& at) {
  using Slot = HfSlot<P, Sink>;
  const auto size = static_cast<std::size_t>(n);
  RawBuffer& slot_buf = ws.hf_slots;
  RawBuffer& weight_buf = ws.slot_weight;
  RawRecords<Slot> slots(slot_buf.reserve<Slot>(size));
  // Current weight per slot; once the queue reaches n entries this holds
  // every final piece weight, so no ordered drain of the queue is needed.
  double* const weight = weight_buf.reserve<double>(size);
  weight[0] = problem.weight();
  slots.push(std::move(problem), Sink::slot_tag(at));
  std::int64_t next_seq = 0;

  // The next problem to bisect is kept "in hand" instead of round-tripping
  // through the queue.  Because the priority (weight, seq) is a total order,
  // any heap arrangement of the same entries pops in the same sequence, so
  // holding the strict maximum outside the queue changes no pop -- it only
  // skips a push + pop pair whenever the heavier child of the current
  // problem immediately outweighs every queued entry (the common case while
  // descending a heavy chain).  Ties must go through the queue: an
  // equal-weight queued entry has a smaller seq and wins.
  HfHeapEntry hand{weight[0], next_seq++, 0};
  for (std::int32_t live = 1; live < n; ++live) {
    Slot& s = slots[static_cast<std::size_t>(hand.slot)];
    auto [left, right] = s.problem.bisect();
    double wl = left.weight();
    double wr = right.weight();
    // Canonical order: left is the heavier-or-equal child.
    if (wl < wr) {
      std::swap(left, right);
      std::swap(wl, wr);
    }
    const auto [tag_l, tag_r] = sink.split(s.tag, wl, wr);
    // Reuse the parent's slot for the left child.
    s = Slot{std::move(left), tag_l};
    weight[hand.slot] = wl;
    const HfHeapEntry left_entry{wl, next_seq++, hand.slot};
    const auto right_slot = static_cast<std::int32_t>(slots.size());
    slots.push(std::move(right), tag_r);
    weight[right_slot] = wr;
    queue.push(HfHeapEntry{wr, next_seq++, right_slot});
    if (live + 1 < n && wl > queue.top().weight) {
      hand = left_entry;  // strict max: would be popped right back
    } else {
      queue.push(left_entry);
      if (live + 1 < n) hand = queue.pop();
    }
    if constexpr (std::is_same_v<Queue, HfBandQueue>) {
      // The slot arrays outgrow the cache long before the band queue's
      // hot heap does, and the hot top is almost always the next pop:
      // start fetching its slot one bisection ahead.
      const auto next = static_cast<std::size_t>(queue.top().slot);
      LBB_PREFETCH(&slots[next]);
      LBB_PREFETCH(weight + next);
    }
  }

  // Emit in slot (creation) order for determinism.
  for (std::int32_t i = 0; i < n; ++i) {
    Slot& s = slots[static_cast<std::size_t>(i)];
    sink.piece(std::move(s.problem), weight[i], at, i, s.tag);
  }
}

/// Runs HF on `problem` with `n` processors, writing its pieces to `sink`
/// at `at` (under BuildContext: processors at.proc_lo .. at.proc_lo+n-1,
/// depths from at.depth, tree below at.node).  Used directly by
/// hf_partition and as the second phase of BA-HF.  Scratch (slots,
/// weights, selection structure, walk) comes from `ws`, so one warm
/// workspace serves any number of consecutive runs.
template <typename Sink, Bisectable P>
LBB_HOT void hf_run(Sink& sink, TrialWorkspace<P>& ws, P problem,
                    std::int32_t n, const typename Sink::FrameTag& at) {
  if (n == 1) {
    const double w = problem.weight();
    sink.piece(std::move(problem), w, at);
    return;
  }
  if (n < kHfBandMinPieces) {
    ws.heap.reserve(static_cast<std::size_t>(n));
    HfHeap::Local heap = ws.heap.local();
    hf_select(sink, ws, heap, std::move(problem), n, at);
    return;
  }
  if constexpr (kHfWalks<Sink, P>) {
    // The walk loses to the heap below the cut-over (1.5x at n = 16) and
    // breaks even at 24, so the band queue's cut-over serves it too.
    if (ws.hf_walk) {
      double heaviest;
      if (hf_tree_walk(ws, problem, n, heaviest)) {
        sink.add_run(heaviest, n - 1);
        return;
      }
      // Sticky: a distribution whose walk overflowed once would do so
      // again on most seeds.
      ws.hf_walk = false;
    }
  }
  ws.hf_queue.reserve(static_cast<std::size_t>(n));
  ws.hf_queue.clear();
  hf_select(sink, ws, ws.hf_queue, std::move(problem), n, at);
}

}  // namespace detail

/// Partitions `problem` into exactly `n` subproblems with Algorithm HF,
/// drawing all scratch and output storage from `ws` (zero allocations once
/// the workspace is warm).
template <Bisectable P>
LBB_HOT [[nodiscard]] Partition<P> hf_partition(
    TrialWorkspace<P>& ws, P problem, std::int32_t n,
    const PartitionOptions& opt = {}) {
  if (n < 1) throw std::invalid_argument("hf_partition: n must be >= 1");
  Partition<P> out;
  out.processors = n;
  out.total_weight = problem.weight();
  out.pieces = ws.take_pieces(static_cast<std::size_t>(n));
  detail::BuildContext<P> ctx(out, opt.record_tree);
  // lbb-lint: allow(hot-alloc): BuildContext pre-sizing -- no-op on
  // the alloc-gated hot path (record_tree is false there).
  ctx.reserve(n);
  const NodeId root = ctx.root(out.total_weight);
  detail::hf_run(ctx, ws, std::move(problem), n, {0, 0, root});
  return out;
}

/// Partitions `problem` into exactly `n` subproblems with Algorithm HF.
template <Bisectable P>
[[nodiscard]] Partition<P> hf_partition(P problem, std::int32_t n,
                                        const PartitionOptions& opt = {}) {
  TrialWorkspace<P> ws;
  return hf_partition(ws, std::move(problem), n, opt);
}

}  // namespace lbb::core
