// Algorithm BA ("Best Approximation of ideal weight", Figure 3 of the
// paper) and Algorithm BA' (Section 3.4).
//
// BA is inherently parallel: it bisects the problem and partitions the
// processors between the two subproblems in proportion to their weights,
// then recurses on both halves independently.  It requires no knowledge of
// the bisection parameter alpha and no global communication; Theorem 7
// bounds its ratio by ba_ratio_bound(alpha, n).
//
// BA' is identical except that subproblems of weight <= w(p)*r_alpha/N are
// never bisected (their processors beyond the first stay idle).  It is used
// by PHF's phase-1 free-processor management and appears as "BA*" in the
// experimental tables.
//
// Output: ba_run writes through a sink (core/detail/build_context.hpp):
// BuildContext builds the Partition, the max sink keeps only the heaviest
// piece and the bisection count, and so lets BA skip every frame that
// cannot raise the heaviest piece (DESIGN.md section 10).
//
// Memory: the recursion stack lives in a TrialWorkspace (ws.frames) so the
// experiment engine reuses it across trials; workspace-free overloads run
// on a cold workspace and are byte-identical in output.
#pragma once

#include <stdexcept>
#include <type_traits>
#include <utility>

#include "core/bounds.hpp"
#include "core/detail/build_context.hpp"
#include "core/detail/scratch.hpp"
#include "core/partition.hpp"
#include "core/problem.hpp"
#include "core/split.hpp"
#include "core/thread_annotations.hpp"
#include "core/workspace.hpp"

namespace lbb::core {

namespace detail {

/// The BA-family descent of ba_run and ba_hf_run, from frame `f`: bisects
/// every frame that `leaf` rejects, the heavier child keeping the low end
/// of the processor range (the paper's "p1 stays on P_i, p2 is sent to
/// P_{i+n1}"), and hands every frame `leaf` accepts to `visit`.  The
/// heavier child stays in hand and only the lighter one goes on the stack
/// (ws.frames), so frames come in the paper's recursion order, the heavier
/// subtree first.  The stack holds one lighter child per bisection on the
/// path to the frame in hand, and processor counts fall strictly along a
/// path, so it never holds more than n - 1 frames.
template <typename Sink, Bisectable P, typename Frame, typename Leaf,
          typename Visit>
LBB_HOT void ba_descend(Sink& sink, TrialWorkspace<P>& ws, Frame f,
                        const Leaf& leaf, const Visit& visit) {
  RawBuffer& frame_buf = ws.frames;
  RawRecords<Frame> stack(
      frame_buf.reserve<Frame>(static_cast<std::size_t>(f.n)));
  for (;;) {
    if (leaf(f)) {
      visit(f);
      if (stack.size() == 0) return;
      f = stack.pop();
      continue;
    }
    auto [left, right] = f.problem.bisect();
    double wl = left.weight();
    double wr = right.weight();
    if (wl < wr) {
      std::swap(left, right);
      std::swap(wl, wr);
    }
    const std::int32_t n1 = ba_split_processors(wl, wr, f.n);
    const auto [tag_l, tag_r] = sink.split(f.tag, wl, wr, n1);
    stack.push(std::move(right), wr, f.n - n1, tag_r);
    f = Frame(std::move(left), wl, n1, tag_l);
  }
}

/// BA and BA' on `problem` with `n` processors, writing its pieces to
/// `sink` at `at` (under BuildContext: processors at.proc_lo ..
/// at.proc_lo+n-1, depths from at.depth, tree below at.node).
/// `prune_below`: if >= 0, subproblems of weight <= prune_below are
/// emitted as leaves even when they hold more than one processor
/// (Algorithm BA').
///
/// Under the max sink, BA (prune_below < 0) on a problem type that
/// declares core::monotone_bisect_v finishes every frame no heavier than
/// the heaviest piece so far without bisecting it: none of its pieces can
/// raise the maximum, and BA makes n - 1 bisections on an n-processor frame
/// whatever the weights.  BA' keeps its descent, because its count depends
/// on where it prunes.
template <typename Sink, Bisectable P>
LBB_HOT void ba_run(Sink& sink, TrialWorkspace<P>& ws, P problem,
                    std::int32_t n, const typename Sink::FrameTag& at,
                    double prune_below) {
  using Frame = BaFrame<P, Sink>;
  constexpr bool kSkips =
      std::is_same_v<Sink, MaxSink> && monotone_bisect_v<P>;
  const double w = problem.weight();
  ba_descend(
      sink, ws, Frame(std::move(problem), w, n, at),
      [&sink, prune_below](const Frame& f) {
        if constexpr (kSkips) {
          if (prune_below < 0.0) return f.n == 1 || f.weight <= sink.max;
        }
        return f.n == 1 || (prune_below >= 0.0 && f.weight <= prune_below);
      },
      [&sink, prune_below](Frame& f) {
        if constexpr (kSkips) {
          if (prune_below < 0.0) {
            sink.add_run(f.weight, f.n - 1);
            return;
          }
        }
        sink.piece(std::move(f.problem), f.weight, f.tag);
      });
}

}  // namespace detail

/// Partitions `problem` into exactly `n` subproblems with Algorithm BA,
/// drawing scratch and output storage from `ws`.  BA needs no knowledge of
/// alpha.
template <Bisectable P>
LBB_HOT [[nodiscard]] Partition<P> ba_partition(
    TrialWorkspace<P>& ws, P problem, std::int32_t n,
    const PartitionOptions& opt = {}) {
  if (n < 1) throw std::invalid_argument("ba_partition: n must be >= 1");
  Partition<P> out;
  out.processors = n;
  out.total_weight = problem.weight();
  out.pieces = ws.take_pieces(static_cast<std::size_t>(n));
  detail::BuildContext<P> ctx(out, opt.record_tree);
  // lbb-lint: allow(hot-alloc): BuildContext pre-sizing -- no-op on
  // the alloc-gated hot path (record_tree is false there).
  ctx.reserve(n);
  const NodeId root = ctx.root(out.total_weight);
  detail::ba_run(ctx, ws, std::move(problem), n, {0, 0, root},
                 /*prune_below=*/-1.0);
  return out;
}

/// Partitions `problem` into exactly `n` subproblems with Algorithm BA.
template <Bisectable P>
[[nodiscard]] Partition<P> ba_partition(P problem, std::int32_t n,
                                        const PartitionOptions& opt = {}) {
  TrialWorkspace<P> ws;
  return ba_partition(ws, std::move(problem), n, opt);
}

/// Partitions `problem` into at most `n` subproblems with Algorithm BA'
/// (BA pruned at the HF phase-1 weight threshold w(p)*r_alpha/n), drawing
/// scratch and output storage from `ws`.  Unlike BA, BA' needs alpha in
/// order to evaluate r_alpha.
template <Bisectable P>
LBB_HOT [[nodiscard]] Partition<P> ba_star_partition(
    TrialWorkspace<P>& ws, P problem, std::int32_t n, double alpha,
    const PartitionOptions& opt = {}) {
  if (n < 1) throw std::invalid_argument("ba_star_partition: n must be >= 1");
  require_valid_alpha(alpha);
  Partition<P> out;
  out.processors = n;
  out.total_weight = problem.weight();
  out.pieces = ws.take_pieces(static_cast<std::size_t>(n));
  detail::BuildContext<P> ctx(out, opt.record_tree);
  // lbb-lint: allow(hot-alloc): BuildContext pre-sizing -- no-op on
  // the alloc-gated hot path (record_tree is false there).
  ctx.reserve(n);
  const NodeId root = ctx.root(out.total_weight);
  const double threshold = phf_phase1_threshold(alpha, out.total_weight, n);
  detail::ba_run(ctx, ws, std::move(problem), n, {0, 0, root}, threshold);
  return out;
}

/// Partitions `problem` into at most `n` subproblems with Algorithm BA'.
template <Bisectable P>
[[nodiscard]] Partition<P> ba_star_partition(P problem, std::int32_t n,
                                             double alpha,
                                             const PartitionOptions& opt = {}) {
  TrialWorkspace<P> ws;
  return ba_star_partition(ws, std::move(problem), n, alpha, opt);
}

}  // namespace lbb::core
