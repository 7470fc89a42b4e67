// TrialWorkspace: trial-scoped memory for the partitioning hot path.
//
// One workspace per thread, reused across trials.  It owns
//
//   * the scratch buffers of the algorithm kernels (HF's slot array,
//     per-slot weights and selection structures -- the heap below
//     detail::kHfBandMinPieces pieces, the weight-band queue from there
//     on; HF's tree walk and its threshold selection; the BA-family frame
//     stack),
//   * a piece pool that recycles the Partition::pieces storage of finished
//     trials back into the next partition call.
//
// With a warm workspace, hf_partition / ba_partition / ba_star_partition /
// ba_hf_partition perform ZERO heap allocations per trial -- the
// `perf_alloc_gate_test` ctest gate (label `perf`) asserts this with an
// interposing allocation counter.  The workspace only changes where bytes
// live, never what the algorithms compute: every workspace-backed call is
// byte-identical to its workspace-free overload (the `driver` golden gates
// cover the full experiment pipeline).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/detail/scratch.hpp"
#include "core/partition.hpp"
#include "core/problem.hpp"
#include "core/thread_annotations.hpp"

namespace lbb::core {

/// Per-thread reusable memory for partitioning trials.  Not thread-safe;
/// the experiment engine keeps one per worker thread (thread_local) and
/// the single-shot partition overloads create a cold one on the stack.
template <Bisectable P>
class TrialWorkspace {
 public:
  TrialWorkspace() = default;
  TrialWorkspace(TrialWorkspace&&) noexcept = default;
  TrialWorkspace& operator=(TrialWorkspace&&) noexcept = default;
  TrialWorkspace(const TrialWorkspace&) = delete;
  TrialWorkspace& operator=(const TrialWorkspace&) = delete;

  /// Takes a pieces vector for a new Partition: the recycled buffer of a
  /// previous trial when one is pooled (capacity retained -- no
  /// allocation), otherwise a fresh vector.  Always reserved to `n`.
  LBB_HOT [[nodiscard]] std::vector<Piece<P>> take_pieces(std::size_t n) {
    std::vector<Piece<P>> pieces = std::move(piece_pool_);
    piece_pool_ = std::vector<Piece<P>>();
    pieces.clear();
    // lbb-lint: allow(hot-alloc): recycled buffer -- capacity is retained
    // across trials, so this reserve only allocates until the pool is warm
    // (the runtime alloc gate asserts zero from then on).
    pieces.reserve(n);
    return pieces;
  }

  /// Returns a finished trial's Partition storage to the pool.  Call after
  /// the trial's statistics have been extracted; the partition is consumed.
  LBB_HOT void recycle(Partition<P>&& used) {
    if (used.pieces.capacity() > piece_pool_.capacity()) {
      piece_pool_ = std::move(used.pieces);
    }
    piece_pool_.clear();
  }

  /// Does nothing: between trials a workspace needs no rewind (its
  /// buffers keep their capacity, their contents are dead).  Kept because
  /// the repository benchmark (benchmark/) still calls it.
  void reset() noexcept {}

  // Kernel scratch, used directly by detail::hf_run / ba_run / ba_hf_run.
  // The raw buffers are untyped: a kernel's records depend on its output
  // sink, so each kernel sizes what it uses on entry and views it as its
  // own record type.  Contents are dead between runs.
  /// HF's live subproblems (HfSlot), or the nodes its tree walk visits
  /// (detail::hf_walk), which runs instead of the selection loop.
  detail::RawBuffer hf_slots;
  /// HF: weight per slot, the max-sink walk's bucket, or the weights of
  /// the nodes the threshold path's walk visits.
  detail::RawBuffer slot_weight;
  detail::HfHeap heap;            ///< HF's selection below the cut-over
  detail::HfBandQueue hf_queue;   ///< HF's selection from the cut-over on
  detail::RawBuffer frames;       ///< BA-family stack (BaFrame, BaHfFrame)
  detail::RawBuffer walk_hist;    ///< HF's tree walk: bucket histogram
  /// HF's threshold path for full partitions (detail::hf_threshold_run):
  /// per walk node its kept children, pop rank and slot; the sorted nodes;
  /// per slot the node its piece comes from.
  detail::RawBuffer hf_order;
  /// True while HF tries the tree walk, under either sink; the first walk
  /// that gives up (or threshold run that meets a tie) clears it once the
  /// queue has built the run, and an input the queue rejects leaves it set
  /// (experiments::BatchTrialRunner sets it again when the distribution
  /// changes).  Both paths return the same bits.
  bool hf_walk = true;
  /// Where HF's next walk without a floor starts, as a multiple of w/n: the
  /// last such walk's answer less 1/16 (detail::hf_walk_start; 0 starts
  /// just below w/n).  Any value, NaN included, gives the same bits, and
  /// BatchTrialRunner clears it with hf_walk.
  double hf_walk_start = 0.0;

 private:
  std::vector<Piece<P>> piece_pool_;
};

}  // namespace lbb::core
