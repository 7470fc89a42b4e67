// TrialWorkspace: trial-scoped memory for the partitioning hot path.
//
// One workspace per thread, reused across trials.  It owns
//
//   * the scratch buffers of the algorithm kernels (HF's slot array,
//     per-slot weights and selection structures -- the heap below
//     detail::kHfBandMinPieces pieces, the weight-band queue from there
//     on; the BA-family frame stack),
//   * a piece pool that recycles the Partition::pieces storage of finished
//     trials back into the next partition call, and
//   * a MonotonicArena for arena-backed AnyProblem storage (problems too
//     large for the handle's inline buffer).
//
// With a warm workspace, hf_partition / ba_partition / ba_star_partition /
// ba_hf_partition perform ZERO heap allocations per trial -- the
// `perf_alloc_gate_test` ctest gate (label `perf`) asserts this with an
// interposing allocation counter.  The workspace only changes where bytes
// live, never what the algorithms compute: every workspace-backed call is
// byte-identical to its workspace-free overload (the `driver` golden gates
// cover the full experiment pipeline).
//
// Layering note: runtime/arena.hpp is a freestanding header (standard
// library only), so including it here adds no link edge from lbb_core to
// lbb_runtime.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/detail/scratch.hpp"
#include "core/partition.hpp"
#include "core/problem.hpp"
#include "core/thread_annotations.hpp"
#include "runtime/arena.hpp"

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

  /// Arena for oversized type-erased problems; reset between trials by
  /// reset() once every handle into it has been destroyed.
  [[nodiscard]] runtime::MonotonicArena& arena() noexcept { return arena_; }

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

  /// Rewinds the arena (buffers keep their capacity regardless).  Every
  /// arena-backed AnyProblem from the previous trial must be dead.
  void reset() noexcept { arena_.reset(); }

  /// Drops all retained memory (buffers and arena chunks).
  void release() noexcept {
    hf_slots = std::vector<detail::HfSlot<P>>();
    slot_weight = std::vector<double>();
    heap = detail::HfHeap();
    hf_queue = detail::HfBandQueue();
    frames = std::vector<detail::BaFrame<P>>();
    piece_pool_ = std::vector<Piece<P>>();
    arena_.release();
  }

  // Kernel scratch, used directly by detail::hf_run / ba_run / ba_hf_run.
  // Each kernel clears what it uses on entry; contents are dead between
  // runs (moved-from problems only).
  std::vector<detail::HfSlot<P>> hf_slots;
  std::vector<double> slot_weight;
  detail::HfHeap heap;
  detail::HfBandQueue hf_queue;
  std::vector<detail::BaFrame<P>> frames;

 private:
  std::vector<Piece<P>> piece_pool_;
  runtime::MonotonicArena arena_;
};

}  // namespace lbb::core
