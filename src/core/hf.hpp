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
// Memory: every overload routes through a TrialWorkspace.  The
// workspace-taking entry points reuse the slot array, per-slot weights,
// selection structures and Partition::pieces storage across trials (zero
// steady-state allocations -- the `perf` ctest gate pins this); the
// workspace-free overloads keep the historical behavior by running on a
// cold workspace.  Both produce byte-identical partitions.
#pragma once

#include <cstdint>
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

/// HF's selection loop: n-1 times, bisect the heaviest live slot (ties:
/// earliest created), the heavier child reusing the parent's slot.  Slot 0
/// holds the root on entry; `queue` is empty and reserved for n entries.
/// `Queue` is HfHeap or HfBandQueue -- both pop in the same total order, so
/// the partition does not depend on which one runs.
template <Bisectable P, typename Queue>
LBB_HOT void hf_select(BuildContext<P>& ctx, TrialWorkspace<P>& ws,
                       Queue& queue, std::int32_t n, double w0) {
  auto& slots = ws.hf_slots;
  auto& slot_weight = ws.slot_weight;
  std::int64_t next_seq = 0;

  // The next problem to bisect is kept "in hand" instead of round-tripping
  // through the queue.  Because the priority (weight, seq) is a total order,
  // any heap arrangement of the same entries pops in the same sequence, so
  // holding the strict maximum outside the queue changes no pop -- it only
  // skips a push + pop pair whenever the heavier child of the current
  // problem immediately outweighs every queued entry (the common case while
  // descending a heavy chain).  Ties must go through the queue: an
  // equal-weight queued entry has a smaller seq and wins.
  HfHeapEntry hand{w0, next_seq++, 0};
  for (std::int32_t live = 1; live < n; ++live) {
    HfSlot<P>& s = slots[static_cast<std::size_t>(hand.slot)];
    auto [left, right] = s.problem.bisect();
    double wl = left.weight();
    double wr = right.weight();
    // Canonical order: left is the heavier-or-equal child.
    if (wl < wr) {
      std::swap(left, right);
      std::swap(wl, wr);
    }
    const auto [node_l, node_r] = ctx.bisected(s.node, wl, wr);
    const std::int32_t depth = s.depth + 1;
    // Reuse the parent's slot for the left child.
    s = HfSlot<P>{std::move(left), depth, node_l};
    slot_weight[static_cast<std::size_t>(hand.slot)] = wl;
    const HfHeapEntry left_entry{wl, next_seq++, hand.slot};
    const auto right_slot = static_cast<std::int32_t>(slots.size());
    slots.push_back(HfSlot<P>{std::move(right), depth, node_r});
    slot_weight.push_back(wr);
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
      LBB_PREFETCH(slots.data() + next);
      LBB_PREFETCH(slot_weight.data() + next);
    }
  }
}

/// Runs HF on `problem` with `n` processors, emitting pieces with processor
/// ids proc_lo .. proc_lo+n-1 and depths offset by `depth0`.  Used directly
/// by hf_partition and as the second phase of BA-HF.  Scratch (slots,
/// weights, selection structure) comes from `ws` and is cleared on entry,
/// so one warm workspace serves any number of consecutive runs.
template <Bisectable P>
LBB_HOT void hf_run(BuildContext<P>& ctx, TrialWorkspace<P>& ws, P problem,
                    std::int32_t n, ProcessorId proc_lo, std::int32_t depth0,
                    NodeId node0) {
  const double w0 = problem.weight();
  if (n == 1) {
    ctx.piece(std::move(problem), w0, proc_lo, depth0, node0);
    return;
  }

  auto& slots = ws.hf_slots;
  auto& slot_weight = ws.slot_weight;
  slots.clear();
  slots.reserve(static_cast<std::size_t>(n));
  // Current weight per slot; once the queue reaches n entries this holds
  // every final piece weight, so no ordered drain of the queue is needed.
  slot_weight.clear();
  slot_weight.reserve(static_cast<std::size_t>(n));
  slots.push_back(HfSlot<P>{std::move(problem), depth0, node0});
  slot_weight.push_back(w0);

  if (n < kHfBandMinPieces) {
    auto& heap = ws.heap;
    heap.clear();
    heap.reserve(static_cast<std::size_t>(n));
    hf_select(ctx, ws, heap, n, w0);
  } else {
    auto& queue = ws.hf_queue;
    queue.clear();
    queue.reserve(static_cast<std::size_t>(n));
    hf_select(ctx, ws, queue, n, w0);
  }

  // Emit in slot (creation) order for determinism.
  for (std::size_t i = 0; i < slots.size(); ++i) {
    HfSlot<P>& s = slots[i];
    ctx.piece(std::move(s.problem), slot_weight[i],
              proc_lo + static_cast<ProcessorId>(i), s.depth, s.node);
  }
}

/// Compatibility shim for call sites without a live workspace (allocates
/// the scratch locally, as the pre-workspace implementation did).
template <Bisectable P>
void hf_run(BuildContext<P>& ctx, P problem, std::int32_t n,
            ProcessorId proc_lo, std::int32_t depth0, NodeId node0) {
  TrialWorkspace<P> ws;
  hf_run(ctx, ws, std::move(problem), n, proc_lo, depth0, node0);
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
  detail::hf_run(ctx, ws, std::move(problem), n, /*proc_lo=*/0, /*depth0=*/0,
                 root);
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
