// Structure-of-arrays scratch for the batched trial kernels.
//
// A BatchWorkspace holds B independent trials' ("lanes'") in-flight state in
// lane-major contiguous buffers: lane l's slots live at [l*stride, l*stride+n),
// its heap entries at [l*heap_stride, ...), and so on.  The batched drivers in
// core/batch/batch_kernels.hpp advance every lane in lockstep, gathering the
// per-lane tops into the staging arrays, running the bisection arithmetic as
// one dense loop over lanes (the loop the compiler can vectorize), and
// scattering the children back.
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
#include <new>
#include <stdexcept>
#include <vector>

#include "core/detail/scratch.hpp"
#include "core/thread_annotations.hpp"

namespace lbb::core::batch {

using detail::HfHeapEntry;

/// Minimal aligned allocator for the SoA buffers: the vector lane kernels
/// issue full-cacheline loads/stores, and 64-byte alignment keeps a width-8
/// AVX-512 access inside one line.  Allocations route through the aligned
/// operator new, which the alloc probe interposes like every other form, so
/// the zero-allocation gate still covers these buffers.
template <typename T, std::size_t Align>
struct AlignedAllocator {
  static_assert(Align >= alignof(T) && (Align & (Align - 1)) == 0);
  using value_type = T;

  AlignedAllocator() = default;
  template <typename U>
  explicit AlignedAllocator(const AlignedAllocator<U, Align>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{Align}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{Align});
  }

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Align>;
  };
  friend bool operator==(const AlignedAllocator&,
                         const AlignedAllocator&) noexcept {
    return true;
  }
};

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

/// SoA scratch for up to `width` lanes partitioning into up to `n` pieces.
/// All vectors are plain flat buffers indexed by the kernels; none are
/// resized on the hot path.
class BatchWorkspace {
 public:
  /// Maximum lanes a single prepare() accepts; batches wider than the
  /// engine's 32-trial chunk never occur.
  static constexpr std::int32_t kMaxWidth = 32;

  /// Byte alignment of every SoA buffer (one cacheline / one AVX-512
  /// register); prepare() asserts it on construction of the buffers.
  static constexpr std::size_t kAlign = 64;

  /// All SoA buffers use cacheline-aligned storage (see AlignedAllocator).
  template <typename T>
  using Buf = std::vector<T, AlignedAllocator<T, kAlign>>;

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
    if (width <= width_ && n <= stride_) return;
    width_ = width > width_ ? width : width_;
    stride_ = n > stride_ ? n : stride_;
    const auto lanes = static_cast<std::size_t>(width_);
    const auto slots = lanes * static_cast<std::size_t>(stride_);
    // Slot arrays (HF): one (hash, weight) pair per live subproblem.
    slot_hash.resize(slots);
    slot_weight.resize(slots);
    // Per-lane 4-ary selection heaps, lane-major with stride_ entries each.
    heap.resize(slots);
    heap_size.resize(lanes);
    // Per-lane BA/BA-HF frame stacks.  Depth can reach n on a degenerate
    // heavy chain (every split peels one processor), hence the full stride.
    frame_hash.resize(slots);
    frame_weight.resize(slots);
    frame_n.resize(slots);
    frame_top.resize(lanes);
    // Lockstep staging: gathered parents and their computed children.  The
    // dense loops over these arrays are the vectorization target.
    stage_lane.resize(lanes);
    stage_slot.resize(lanes);
    stage_index.resize(lanes);
    stage_n.resize(lanes);
    stage_hash.resize(lanes);
    stage_weight.resize(lanes);
    heavy_hash.resize(lanes);
    heavy_weight.resize(lanes);
    light_hash.resize(lanes);
    light_weight.resize(lanes);
    // Per-lane inputs and outcomes.
    root_hash.resize(lanes);
    root_weight.resize(lanes);
    lane_max.resize(lanes);
    lane_bisections.resize(lanes);
    next_seq.resize(lanes);
    slots_used.resize(lanes);
    // The allocator guarantees these; assert the contract the vector
    // kernels (and their full-cacheline accesses) are written against.
    require_aligned(slot_hash.data());
    require_aligned(slot_weight.data());
    require_aligned(frame_hash.data());
    require_aligned(frame_weight.data());
    require_aligned(stage_index.data());
    require_aligned(stage_hash.data());
    require_aligned(stage_weight.data());
    require_aligned(heavy_hash.data());
    require_aligned(heavy_weight.data());
    require_aligned(light_hash.data());
    require_aligned(light_weight.data());
  }

  [[nodiscard]] std::int32_t width() const noexcept { return width_; }
  /// Per-lane element stride of the slot/heap/frame buffers.
  [[nodiscard]] std::int32_t stride() const noexcept { return stride_; }

  // --- SoA buffers (public by design: kernels index them directly, the
  // --- same scratch idiom as TrialWorkspace's hf_slots/heap/frames). ---
  Buf<std::uint64_t> slot_hash;
  Buf<double> slot_weight;
  Buf<HfHeapEntry> heap;
  Buf<std::int32_t> heap_size;
  Buf<std::uint64_t> frame_hash;
  Buf<double> frame_weight;
  Buf<std::int32_t> frame_n;
  Buf<std::int32_t> frame_top;
  Buf<std::int32_t> stage_lane;
  Buf<std::int32_t> stage_slot;
  /// Absolute element offsets (lane base + slot) of the staged parents in
  /// slot_hash/slot_weight; input format of the vector gather kernel
  /// (simd::LaneKernels::gather_pairs).  The HF lockstep driver currently
  /// stages with scalar loads instead -- hardware gathers measured slower
  /// there (see hf_batch_run) -- so this buffer is reserved for
  /// gather-friendly targets.
  Buf<std::int64_t> stage_index;
  Buf<std::int32_t> stage_n;
  Buf<std::uint64_t> stage_hash;
  Buf<double> stage_weight;
  Buf<std::uint64_t> heavy_hash;
  Buf<double> heavy_weight;
  Buf<std::uint64_t> light_hash;
  Buf<double> light_weight;
  Buf<std::uint64_t> root_hash;
  Buf<double> root_weight;
  Buf<double> lane_max;
  Buf<std::int64_t> lane_bisections;
  Buf<std::int64_t> next_seq;
  Buf<std::int32_t> slots_used;
  /// Weight-band selection queue of hf_lane_run at n >=
  /// detail::kHfBandMinPieces; lanes run one after another and share it.
  /// Sized by hf_lane_run for stride() entries (growth-only).
  detail::HfBandQueue hf_queue;

 private:
  template <typename T>
  static void require_aligned(const T* p) {
    if ((reinterpret_cast<std::uintptr_t>(p) & (kAlign - 1)) != 0) {
      throw std::logic_error(
          "BatchWorkspace: SoA buffer is not 64-byte aligned");
    }
  }

  std::int32_t width_ = 0;
  std::int32_t stride_ = 0;
};

}  // namespace lbb::core::batch
