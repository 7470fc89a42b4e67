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
// Threshold paths: HF's k-th bisection takes the k-th heaviest node of the
// bisection tree, so for problem types that opt in (detail::TreeWalkable)
// hf_run can skip the queue and walk the nodes above a weight threshold
// (detail::hf_walk), as the paper's PHF does in its phase 1.  hf_run
// writes through a sink (core/detail/build_context.hpp):
//   * under the max sink, from the band queue's cut-over on, the heaviest
//     piece is the n-th heaviest node of the walk (hf_tree_walk; DESIGN.md
//     section 7.6); at any n, a run that cannot raise the heaviest piece
//     so far walks only the nodes at or above it (section 10.1);
//   * under BuildContext with no tree recorded, from
//     detail::kHfThresholdMinPieces on, the walk's n-1 heaviest nodes,
//     sorted into pop order, give every piece's slot from its parent's pop
//     rank (hf_threshold_run; section 7.7).
// A walk that overflows its budget or meets a child it cannot order, and a
// threshold run whose ranked nodes tie (hf_select's seq orders ties), hand
// the run to the queue, and both paths write the same bits.
//
// Hostile input: a bisection whose children are not both finite and > 0
// throws std::invalid_argument, as BA does.
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
#include <limits>
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

/// The walk's first threshold on a root of weight w with n pieces: just
/// below w/n, the least HF's heaviest piece can weigh (the margin absorbs
/// the rounding of the children's sums).
[[nodiscard]] constexpr double hf_walk_threshold(double w,
                                                 std::int32_t n) noexcept {
  return w / static_cast<double>(n) * (1.0 - 0x1p-20);
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

/// What a finished walk hands back: its nodes (node[0] is the root, and
/// each node's kept children follow it breadth-first), how many it visited
/// (0 when it gave up) and the threshold its children were kept above.
template <typename P>
struct HfWalk {
  const P* node;
  std::size_t count;
  double t;
};

/// A full-partition walk's record of one node's bisection: which of its
/// children it kept, in bisect() order, and whether the second outweighs
/// the first, which makes the second HF's heavier child.
inline constexpr unsigned kKeptFirst = 1;
inline constexpr unsigned kKeptSecond = 2;
inline constexpr unsigned kSecondHeavier = 4;

/// The tree walk behind both threshold paths.  HF always bisects the
/// heaviest live subproblem and no child outweighs its parent, so its k-th
/// bisection takes the k-th heaviest node of the bisection tree.  The nodes
/// of weight >= t form a subtree around the root, and a walk that bisects
/// every node it visits and keeps only children >= t visits exactly that
/// subtree.  The pieces sum to w, so HF's heaviest piece is at least w/n:
/// the walk starts just below it (hf_walk_threshold) and halves t until at
/// least n nodes come back.
///
/// A positive `floor`, which hf_run passes only when it is at least that
/// first threshold (the max sink's heaviest piece so far), is the walk's
/// only threshold: it visits the nodes >= floor once and returns them even
/// when fewer than n come back (the root counts as one, and a root below
/// the floor is not bisected).  A full-partition walk takes no floor (0).
///
/// Breadth-first over ws.hf_slots' storage, at once the queue and the
/// visited list, so consecutive bisections overlap in the core; children
/// are appended branch-free, and without HF's heavier-first swap.  Gives
/// up (count 0) on a root weight that is not finite and > 0, a child
/// heavier than its parent, a child that is not > 0, or more than
/// hf_walk_budget(n) nodes; HF's selection queue handles those.
///
/// `Full` (the threshold path of full partitions) also writes each visited
/// node's weight to `weight` and its kKept* bits to `kept`, both in walk
/// order.
template <bool Full, TreeWalkable P>
LBB_HOT HfWalk<P> hf_walk(TrialWorkspace<P>& ws, const P& root,
                          std::int32_t n, double* weight,
                          std::uint8_t* kept, double floor) {
  const std::size_t budget = hf_walk_budget(n);
  RawBuffer& node_buf = ws.hf_slots;
  P* node = node_buf.reserve<P>(budget + 2);
  const double w = root.weight();
  if (!(w > 0.0 && w <= std::numeric_limits<double>::max())) {
    return {node, 0, 0.0};
  }
  const bool floored = !Full && floor > 0.0;
  double t = floored ? floor : hf_walk_threshold(w, n);
  // A root below the floor is the only node the walk could return.
  if (floored && w < t) return {node, 1, t};
  for (;;) {
    node[0] = root;
    if constexpr (Full) weight[0] = w;
    std::size_t end = 1;
    for (std::size_t i = 0; i < end; ++i) {
      if (end > budget) return {node, 0, t};
      P x = node[i];
      const double xw = x.weight();
      // A non-const pair: GCC 12 then copies the children into the array
      // straight from registers.  With a const one (or a const structured
      // binding) it builds them in a stack temporary whose 16-byte reloads
      // miss store forwarding, which cost the walk 20-30%.
      std::pair<P, P> kids = x.bisect();
      const double aw = kids.first.weight();
      const double bw = kids.second.weight();
      if (!(aw <= xw && bw <= xw && aw > 0.0 && bw > 0.0)) return {node, 0, t};
      node[end] = kids.first;
      if constexpr (Full) weight[end] = aw;
      end += static_cast<std::size_t>(aw >= t);
      node[end] = kids.second;
      if constexpr (Full) weight[end] = bw;
      end += static_cast<std::size_t>(bw >= t);
      if constexpr (Full) {
        kept[i] = static_cast<std::uint8_t>(
            static_cast<unsigned>(aw >= t) * kKeptFirst |
            static_cast<unsigned>(bw >= t) * kKeptSecond |
            static_cast<unsigned>(aw < bw) * kSecondHeavier);
      }
    }
    if (end >= static_cast<std::size_t>(n) || floored) return {node, end, t};
    t *= 0.5;
  }
}

/// HF's heaviest piece on `root` with n pieces, into `nth`: the n-th
/// heaviest node of the bisection tree (hf_walk), or 0.0 when a floor at or
/// above the walk's first threshold leaves fewer than n nodes, because then
/// HF's heaviest piece is below the floor (hf_run).  Returns false, leaving
/// `nth` unset, when the walk gives up.
template <TreeWalkable P>
LBB_HOT bool hf_tree_walk(TrialWorkspace<P>& ws, const P& root,
                          std::int32_t n, double floor, double& nth) {
  const HfWalk<P> walk = hf_walk<false>(ws, root, n, nullptr, nullptr, floor);
  if (walk.count == 0) return false;
  nth = walk.count < static_cast<std::size_t>(n)
            ? 0.0
            : hf_walk_select(ws, walk.node, root.weight(), walk.t,
                             walk.count, n);
  return true;
}

/// The full-partition walk (hf_walk<true>, no floor), out of line: with
/// the floor as a sixth argument GCC 12 inlined it into hf_threshold_run,
/// which moved large_n's kernels in the binary (DESIGN.md section 10.1).
template <TreeWalkable P>
[[gnu::noinline]] HfWalk<P> hf_full_walk(TrialWorkspace<P>& ws,
                                         const P& root, std::int32_t n,
                                         double* weight, std::uint8_t* kept) {
  return hf_walk<true>(ws, root, n, weight, kept, 0.0);
}

/// True when hf_run under `Sink` may walk the bisection tree instead of
/// selecting (the max sink on an opted-in problem type).
template <typename Sink, typename P>
inline constexpr bool kHfWalks =
    std::is_same_v<Sink, MaxSink> && TreeWalkable<P>;

/// True when hf_run under `Sink` may build a full partition by threshold
/// selection (hf_threshold_run) instead of with its queue.
template <typename Sink, typename P>
inline constexpr bool kHfSelectsByThreshold =
    std::is_same_v<Sink, BuildContext<P>> && TreeWalkable<P>;

/// hf_run under BuildContext selects by threshold from this many pieces on
/// and with the band queue below it: the queue's cache misses outweigh the
/// threshold path's fixed costs (a histogram of n/4 buckets, four passes
/// over the walk) only once the slot arrays outgrow the caches.  On the
/// uniform classes the two paths break even at 2^14 to 2^15 and the
/// threshold path wins from 2^16 on (DESIGN.md section 7.7 has the table;
/// bench BM_HfFullPath reproduces it).
inline constexpr std::int32_t kHfThresholdMinPieces = std::int32_t{1} << 16;

/// The largest n the threshold path takes: its walk indices carry two tag
/// bits in a 32-bit HfPieceRef::code.
inline constexpr std::int32_t kHfThresholdMaxPieces =
    static_cast<std::int32_t>((std::int64_t{1} << 30) / kHfWalkPerPiece - 1);

/// One node of the threshold path's sort: its weight and walk index.
struct HfRankedNode {
  double weight;
  std::uint32_t node;
};

/// Where a slot's piece comes from: walk node `code >> 2` itself (code & 2
/// clear), or its first (code & 3 == 2) or second (3) child, which the
/// walk did not keep; and the piece's depth below the run's root.
struct HfPieceRef {
  std::uint32_t code;
  std::int32_t depth;
};

/// The threshold path's scratch, carved from ws.hf_order.  Per walk node
/// (up to the walk's budget): its kKept* bits, its pop rank and its slot.
/// Then the sorted nodes, and per slot the HfPieceRef.
struct HfOrderScratch {
  std::uint8_t* kept;
  std::int32_t* rank;
  std::int32_t* slot;
  HfRankedNode* sorted;
  HfPieceRef* ref;
};

/// Sizes, growth-only, and carves the threshold path's scratch for n pieces.
template <Bisectable P>
HfOrderScratch hf_order_scratch(TrialWorkspace<P>& ws, std::int32_t n) {
  const std::size_t nodes = hf_walk_budget(n) + 2;
  const auto pieces = static_cast<std::size_t>(n);
  const auto span = [](std::size_t bytes) {
    constexpr std::size_t kLine = 64;
    return (bytes + kLine - 1) / kLine * kLine;
  };
  const std::size_t kept = span(nodes);
  const std::size_t column = span(nodes * sizeof(std::int32_t));
  const std::size_t sorted = kept + 2 * column;
  const std::size_t ref = sorted + span(nodes * sizeof(HfRankedNode));
  RawBuffer& buf = ws.hf_order;
  std::byte* const base =
      buf.reserve<std::byte>(ref + pieces * sizeof(HfPieceRef));
  const auto at = [base](std::size_t offset) {
    return static_cast<void*>(base + offset);
  };
  return {static_cast<std::uint8_t*>(at(0)),
          static_cast<std::int32_t*>(at(kept)),
          static_cast<std::int32_t*>(at(kept + column)),
          static_cast<HfRankedNode*>(at(sorted)),
          static_cast<HfPieceRef*>(at(ref))};
}

/// Sorts [first, last) heaviest first: insertion sort for the few nodes of
/// a typical bucket, std::sort for a large one.  Returns true when two of
/// them weigh the same.
inline bool hf_sort_heaviest_first(HfRankedNode* first, HfRankedNode* last) {
  constexpr std::ptrdiff_t kInsertion = 32;
  if (last - first > kInsertion) {
    std::sort(first, last, [](const HfRankedNode& a, const HfRankedNode& b) {
      return a.weight > b.weight;
    });
    for (HfRankedNode* i = first + 1; i < last; ++i) {
      if (i->weight == (i - 1)->weight) return true;
    }
    return false;
  }
  bool tie = false;
  for (HfRankedNode* i = first + 1; i < last; ++i) {
    const HfRankedNode v = *i;
    HfRankedNode* j = i;
    for (; j > first && (j - 1)->weight < v.weight; --j) *j = *(j - 1);
    *j = v;
    // An equal weight stops the shift right before v.
    tie |= j > first && (j - 1)->weight == v.weight;
  }
  return tie;
}

/// HF on `root` with n pieces under BuildContext, without a priority
/// queue: the walk (hf_full_walk) visits the nodes of weight >= t, the n-1
/// heaviest of them are HF's bisections, and every piece's slot follows
/// from its parent's pop rank.  Writes what hf_select would (pieces,
/// processors, depths; the tree is not recorded) and returns true; or
/// returns false, having written nothing, when the walk gives up or two
/// ranked nodes weigh the same: hf_select's seq orders a tie, so the queue
/// takes the run.  A child as heavy as its parent, which the walk keeps,
/// is such a tie, since both land in one bucket.
///
/// Pop order: weight descending.  Three steps (DESIGN.md section 7.7):
///  1. Rank.  The visited weights go to B+1 buckets, B = n/4, by
///     floor(t*B/x): about c*w/x nodes weigh x or more, so the buckets
///     hold nearly equal counts, and the key is monotone because IEEE
///     division rounds correctly.  Only the buckets up to the one holding
///     the (n-1)-th heaviest node are filled, (weight, index) pairs in
///     walk order, sorted, and ranked in order, unless one holds a tie;
///     every other node is not popped.
///  2. Slots, in walk order, where parents come first.  A popped node's
///     heavier child keeps its slot, and its lighter child takes slot
///     rank + 1, which is where hf_select puts the lighter child of its
///     rank-th pop.  A node that is not popped while its parent is, and a
///     child the walk did not keep of a popped node, is its slot's piece.
///     Depths follow the breadth-first levels.
///  3. Pieces, in slot order: gathered from the walk's nodes with
///     prefetch, a child the walk did not keep bisected from its parent
///     again (pure_bisect_v allows it).
/// Kept out of line, so that it does not change how GCC inlines the
/// selection loop into hf_run's other callers.
template <TreeWalkable P>
[[gnu::noinline]] LBB_HOT bool hf_threshold_run(
    BuildContext<P>& sink, TrialWorkspace<P>& ws, const P& root,
    std::int32_t n, const typename BuildContext<P>::FrameTag& at) {
  using SlotTag = typename BuildContext<P>::SlotTag;
  constexpr std::int32_t kUnranked = std::numeric_limits<std::int32_t>::max();
  const HfOrderScratch o = hf_order_scratch(ws, n);
  RawBuffer& weight_buf = ws.slot_weight;
  double* const weight = weight_buf.reserve<double>(hf_walk_budget(n) + 2);
  const HfWalk<P> walk = hf_full_walk(ws, root, n, weight, o.kept);
  if (walk.count == 0) return false;
  const std::size_t count = walk.count;
  const P* const node = walk.node;
  const std::int32_t pops = n - 1;

  // 1. Rank.  end[b] counts bucket b, then is its write cursor, then its
  // end.
  const std::size_t buckets = static_cast<std::size_t>(n) / 4 + 1;
  const double scale = walk.t * static_cast<double>(buckets - 1);
  const auto bucket_of = [scale](double x) noexcept {
    return static_cast<std::size_t>(scale / x);
  };
  RawBuffer& hist_buf = ws.walk_hist;
  std::int32_t* const end = hist_buf.reserve<std::int32_t>(buckets);
  std::fill_n(end, buckets, 0);
  for (std::size_t i = 0; i < count; ++i) ++end[bucket_of(weight[i])];
  std::size_t last = 0;  // the bucket that holds the (n-1)-th heaviest
  for (std::int32_t heavier = 0; heavier + end[last] < pops; ++last) {
    heavier += end[last];
  }
  for (std::int32_t b = 0, filled = 0; b <= static_cast<std::int32_t>(last);
       ++b) {
    const std::int32_t size = end[b];
    end[b] = filled;
    filled += size;
  }
  for (std::size_t i = 0; i < count; ++i) {
    const double x = weight[i];
    const std::size_t b = bucket_of(x);
    if (b <= last) {
      o.sorted[end[b]++] = HfRankedNode{x, static_cast<std::uint32_t>(i)};
    } else {
      o.rank[i] = kUnranked;
    }
  }
  std::int32_t rank = 0;
  HfRankedNode* run = o.sorted;
  for (std::size_t b = 0; b <= last; ++b) {
    HfRankedNode* const stop = o.sorted + end[b];
    if (hf_sort_heaviest_first(run, stop)) [[unlikely]] return false;
    for (; run < stop; ++run) o.rank[run->node] = rank++;
  }

  // 2. Slots.  A node whose parent is not popped gets slot -1 and is no
  // piece.  Each node writes its first child's slot at c and its second
  // child's right after the first if that one was kept; a write for a
  // child the walk did not keep lands where a later node's children (or
  // nothing) go, and that later node overwrites it.
  HfPieceRef* const ref = o.ref;
  o.slot[0] = 0;
  std::size_t c = 1;          // node i's first kept child
  std::size_t level_end = 1;  // the first node of the level below node i's
  std::int32_t depth = 0;     // node i's depth
  for (std::size_t i = 0; i < count; ++i) {
    const unsigned m = o.kept[i];
    if (i == level_end) {
      ++depth;
      level_end = c;
    }
    const std::int32_t s = o.slot[i];
    const std::int32_t r = o.rank[i];
    const auto code = static_cast<std::uint32_t>(i << 2);
    std::int32_t first = -1;
    std::int32_t second = -1;
    if (s >= 0) {
      if (r < pops) {
        const bool swapped = (m & kSecondHeavier) != 0;
        first = swapped ? r + 1 : s;
        second = swapped ? s : r + 1;
        if ((m & kKeptFirst) == 0) ref[first] = {code | 2, depth + 1};
        if ((m & kKeptSecond) == 0) ref[second] = {code | 3, depth + 1};
      } else {
        ref[s] = {code, depth};
      }
    }
    o.slot[c] = first;
    o.slot[c + (m & kKeptFirst)] = second;
    c += (m & kKeptFirst) + (m & kKeptSecond) / kKeptSecond;
  }

  // 3. Pieces.
  sink.add_bisections(pops);
  constexpr std::int32_t kAhead = 16;
  for (std::int32_t s = 0; s < n; ++s) {
    if (s + kAhead < n) {
      const P* ahead = node + (ref[s + kAhead].code >> 2);
      LBB_PREFETCH(ahead);
      LBB_PREFETCH(reinterpret_cast<const char*>(ahead + 1) - 1);
    }
    const HfPieceRef r = ref[s];
    P piece = node[r.code >> 2];
    if ((r.code & 2) != 0) {
      std::pair<P, P> kids = piece.bisect();
      piece = (r.code & 1) != 0 ? kids.second : kids.first;
    }
    const double pw = piece.weight();
    sink.piece(std::move(piece), pw, at, s,
               SlotTag{at.depth + r.depth, kNoNode});
  }
  return true;
}

/// Sizes ws's HF scratch, growth-only, so that no run of up to `n` pieces
/// under `Sink` allocates (full partitions: below kHfThresholdMinPieces).
/// hf_run sizes what it uses itself; this is for callers whose runs vary
/// in size, such as BA-HF's HF phases under the max sink.
template <typename Sink, Bisectable P>
void hf_reserve(TrialWorkspace<P>& ws, std::int32_t n) {
  const auto size = static_cast<std::size_t>(n);
  RawBuffer& slots = ws.hf_slots;
  RawBuffer& weights = ws.slot_weight;
  (void)slots.reserve<HfSlot<P, Sink>>(size);
  (void)weights.reserve<double>(size);
  ws.heap.reserve(std::min<std::size_t>(size, kHfBandMinPieces - 1));
  if constexpr (kHfWalks<Sink, P>) {
    // The walk's nodes (a walk within budget appends at most two past it
    // before it checks), bucket weights and bucket histogram; at every n,
    // since a floored walk runs below the cut-over too (hf_run).
    RawBuffer& hist = ws.walk_hist;
    (void)slots.reserve<P>(hf_walk_budget(n) + 2);
    (void)weights.reserve<double>(hf_walk_budget(n));
    (void)hist.reserve<std::int32_t>(size);
  }
  if (n < kHfBandMinPieces) return;
  ws.hf_queue.reserve(size);
}

/// Throws HF's answer to a bisection whose children are not both finite
/// and > 0, the error BA's ba_split_processors raises on them.
[[noreturn, gnu::cold, gnu::noinline]] inline void hf_reject_children() {
  throw std::invalid_argument(
      "HF: a bisection's children must be finite and > 0");
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
    // NaN fails both tests; a child heavier than its parent passes.
    if (!(wr > 0.0 && wl <= std::numeric_limits<double>::max())) [[unlikely]] {
      hf_reject_children();
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
///
/// Under the max sink, on a problem type that declares
/// core::monotone_bisect_v, a run whose first walk threshold is at most
/// the heaviest piece so far, M, walks only the nodes >= M, at any n.  If
/// fewer than n come back, HF pops all of them (every other live node is
/// lighter than M) and every piece lies below one of their children that
/// the walk did not keep, so below M: the run cannot raise the maximum,
/// and only its n - 1 bisections are counted (DESIGN.md section 10.1).
template <typename Sink, Bisectable P>
LBB_HOT void hf_run(Sink& sink, TrialWorkspace<P>& ws, P problem,
                    std::int32_t n, const typename Sink::FrameTag& at) {
  if (n == 1) {
    const double w = problem.weight();
    sink.piece(std::move(problem), w, at);
    return;
  }
  // Set when a walk or a threshold run gave up and the heap or the queue
  // takes the run.  The walk is then not tried again on this workspace
  // (sticky: a distribution whose walk overflowed or tied once would do so
  // again on most seeds), unless the selection throws on the input, which
  // leaves the flag as it was.
  bool gave_up = false;
  if constexpr (kHfWalks<Sink, P>) {
    // Without a floor the walk loses to the heap below the cut-over (1.5x
    // at n = 16) and breaks even at 24, so the band queue's cut-over
    // serves it too.
    double floor = 0.0;
    if constexpr (monotone_bisect_v<P>) {
      if (sink.max >= hf_walk_threshold(problem.weight(), n)) {
        floor = sink.max;
      }
    }
    if (ws.hf_walk && (n >= kHfBandMinPieces || floor > 0.0)) {
      double heaviest;
      if (hf_tree_walk(ws, problem, n, floor, heaviest)) {
        sink.add_run(heaviest, n - 1);
        return;
      }
      gave_up = true;
    }
  }
  if (n < kHfBandMinPieces) {
    ws.heap.reserve(static_cast<std::size_t>(n));
    HfHeap::Local heap = ws.heap.local();
    hf_select(sink, ws, heap, std::move(problem), n, at);
    if (gave_up) ws.hf_walk = false;
    return;
  }
  if constexpr (kHfSelectsByThreshold<Sink, P>) {
    // The queue records the tree, if asked to, with its split() calls.
    if (n >= kHfThresholdMinPieces && n <= kHfThresholdMaxPieces &&
        ws.hf_walk && !sink.records_tree()) {
      if (hf_threshold_run(sink, ws, problem, n, at)) return;
      gave_up = true;
    }
  }
  ws.hf_queue.reserve(static_cast<std::size_t>(n));
  ws.hf_queue.clear();
  hf_select(sink, ws, ws.hf_queue, std::move(problem), n, at);
  if (gave_up) ws.hf_walk = false;
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
