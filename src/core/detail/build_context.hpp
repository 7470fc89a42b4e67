// The output sinks the kernels (hf_run, ba_run, ba_hf_run) write through:
// BuildContext<P> builds a full Partition<P>; MaxSink keeps only the
// heaviest piece's weight and the bisection count.  What a sink keeps per
// subproblem rides in the kernels' frames and slots as its FrameTag or
// SlotTag.  Both sinks see the same bisections, in the same order, with
// the same weights, except where a kernel accounts them in bulk: under the
// max sink BA skips the frames that can neither raise the maximum nor
// change the count (DESIGN.md section 10) and HF's walk reports only the
// heaviest piece, or only the count of a run that cannot raise the
// maximum (add_run); without a recorded tree, HF's threshold path
// counts its bisections at once (add_bisections, section 7.7).  Internal;
// not public API.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>

#include "core/partition.hpp"
#include "core/thread_annotations.hpp"

namespace lbb::core::detail {

/// Accumulates pieces/bisections/tree for a Partition under construction.
/// Algorithms push bisections and pieces through this so that composite
/// algorithms (BA-HF) can splice sub-runs into one coherent result.
template <Bisectable P>
class BuildContext {
 public:
  /// A BA-family frame's place in the output: its first processor, its
  /// depth and its tree node.
  struct FrameTag {
    ProcessorId proc_lo;
    std::int32_t depth;
    NodeId node;
  };
  /// An HF slot's place: its depth and tree node (its processor is the
  /// run's first plus its slot index).
  struct SlotTag {
    std::int32_t depth;
    NodeId node;
  };

  BuildContext(Partition<P>& out, bool record_tree)
      : out_(out), record_(record_tree) {}

  /// Pre-sizes the tree arena for a partition of up to `pieces` leaves
  /// (2*pieces - 1 nodes); no-op when recording is off.  Avoids the
  /// O(log n) reallocation-and-copy cascade on the bisection hot path.
  void reserve(std::int32_t pieces) {
    if (record_ && pieces > 0) {
      // lbb-lint: allow(hot-alloc): single up-front arena sizing; tree
      // recording is off on the alloc-gated hot path (workspace overloads
      // run with record_tree=false).
      out_.tree.reserve(2 * static_cast<std::size_t>(pieces) - 1);
    }
  }

  /// Records the tree root (first call only); returns its node id.
  NodeId root(double weight) {
    if (!record_) return kNoNode;
    if (out_.tree.empty()) return out_.tree.set_root(weight);
    return 0;
  }

  /// Accounts one bisection; returns the children's node ids (or kNoNode
  /// pair when recording is off).
  LBB_HOT std::pair<NodeId, NodeId> bisected(NodeId parent,
                                             double left_weight,
                                             double right_weight) {
    ++out_.bisections;
    if (!record_ || parent == kNoNode) return {kNoNode, kNoNode};
    return out_.tree.add_bisection(parent, left_weight, right_weight);
  }

  /// True when the bisection tree is recorded.
  [[nodiscard]] bool records_tree() const noexcept { return record_; }

  /// Accounts `count` bisections at once (HF's threshold path, which runs
  /// only with recording off and makes no split() calls).
  void add_bisections(std::int64_t count) noexcept {
    out_.bisections += count;
  }

  /// Emits one final piece.  Always inlined: with HF's threshold path as a
  /// third caller, GCC 12 outlined it, and hf_select then paid a call per
  /// piece (BA-HF's HF phases +2.5% on large_n).  The two overloads below
  /// are not forced inline: that moved GCC to outline vector::push_back
  /// from hf_select and hf_threshold_run instead (DESIGN.md section 7.7).
  [[gnu::always_inline]] LBB_HOT void piece(P problem, double weight,
                                            ProcessorId processor,
                                            std::int32_t depth, NodeId node) {
    out_.max_depth = std::max(out_.max_depth, depth);
    // lbb-lint: allow(hot-alloc): within the capacity of the recycled
    // pieces buffer (ws.take_pieces reserves n up front).
    out_.pieces.push_back(
        Piece<P>{std::move(problem), weight, processor, depth, node});
  }

  // The kernels' sink interface, shared with MaxSink.

  /// One BA-family bisection of the frame at `at`: the heavier child
  /// (weight wl) keeps the first n1 processors.
  LBB_HOT std::pair<FrameTag, FrameTag> split(const FrameTag& at, double wl,
                                              double wr, std::int32_t n1) {
    const auto [left, right] = bisected(at.node, wl, wr);
    return {FrameTag{at.proc_lo, at.depth + 1, left},
            FrameTag{at.proc_lo + n1, at.depth + 1, right}};
  }

  /// One HF bisection of the slot at `at`.
  LBB_HOT std::pair<SlotTag, SlotTag> split(const SlotTag& at, double wl,
                                            double wr) {
    const auto [left, right] = bisected(at.node, wl, wr);
    return {SlotTag{at.depth + 1, left}, SlotTag{at.depth + 1, right}};
  }

  /// The root slot of an HF run on the frame at `at`.
  [[nodiscard]] static SlotTag slot_tag(const FrameTag& at) noexcept {
    return {at.depth, at.node};
  }

  /// A frame that became a piece.
  LBB_HOT void piece(P problem, double weight, const FrameTag& at) {
    piece(std::move(problem), weight, at.proc_lo, at.depth, at.node);
  }

  /// Slot `i` of the HF run on the frame `run`, as a piece.
  LBB_HOT void piece(P problem, double weight, const FrameTag& run,
                     std::int32_t i, const SlotTag& at) {
    piece(std::move(problem), weight, run.proc_lo + i, at.depth, at.node);
  }

 private:
  Partition<P>& out_;
  bool record_;
};

/// The max sink.  Its tags are empty, so the kernels' frames and slots hold
/// only the problem, its weight and its processor count.
struct MaxSink {
  struct Tag {};
  using FrameTag = Tag;
  using SlotTag = Tag;

  double max = 0.0;  ///< heaviest piece so far
  std::int64_t bisections = 0;

  /// Either kind of bisection (a frame's, with its n1, or a slot's).
  template <typename... SplitN>
  LBB_HOT std::pair<Tag, Tag> split(Tag, double, double, SplitN...) noexcept {
    ++bisections;
    return {};
  }
  [[nodiscard]] static Tag slot_tag(Tag) noexcept { return {}; }

  /// Either kind of piece; compares as Partition::max_weight's std::max
  /// from 0.0 does.
  template <typename P, typename... Where>
  LBB_HOT void piece(P&&, double weight, Where...) noexcept {
    if (max < weight) max = weight;
  }

  /// Folds in a run known only by its heaviest piece and bisection count
  /// (HF's tree walk, or a frame BA skips); a heaviest piece of 0.0 leaves
  /// the maximum alone (an HF run whose floored walk shows it cannot raise
  /// it).
  LBB_HOT void add_run(double heaviest,
                       std::int64_t run_bisections) noexcept {
    if (max < heaviest) max = heaviest;
    bisections += run_bisections;
  }
};

}  // namespace lbb::core::detail
