// Reusable scratch structures of the algorithm hot loops: the HF selection
// structures (heap and weight-band queue) and the buffers and records that
// hf_run / ba_run / ba_hf_run keep their in-flight subproblems in.  Split
// out of hf.hpp/ba.hpp so a TrialWorkspace (core/workspace.hpp) can own one
// instance of each buffer and recycle it across trials instead of
// reallocating per partition call.  Internal; not part of the public API.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "core/problem.hpp"
#include "core/thread_annotations.hpp"

namespace lbb::core::detail {

/// Max-heap ordering used by HF and PHF: heavier first; ties broken by
/// earlier creation sequence number.
struct HfHeapEntry {
  double weight;
  std::int64_t seq;   ///< global creation order (root == 0)
  std::int32_t slot;  ///< index into the runner's problem storage
};

/// Inline 4-ary max-heap of HfHeapEntry (heaviest on top, earlier-created
/// wins ties) on a raw buffer; children of node i are 4i+1 .. 4i+4.
class HfHeap {
 public:
  /// The heap proper, on a buffer it does not own.  Its pointer and size
  /// are plain members, so a copy in a loop's locals (local()) stays in
  /// registers, where stores into the slot arrays cannot force reloads
  /// (hf_run's selection loop).  It never grows: its user pushes at most
  /// the reserved number of entries.
  struct Local {
    HfHeapEntry* h;
    std::size_t size = 0;

    [[nodiscard]] const HfHeapEntry& top() const noexcept { return h[0]; }

    LBB_HOT void push(HfHeapEntry e) noexcept {
      // Hole-sift up: move parents down until e's position is found.
      std::size_t hole = size++;
      while (hole > 0) {
        const std::size_t parent = (hole - 1) / 4;
        if (!higher(e, h[parent])) break;
        h[hole] = h[parent];
        hole = parent;
      }
      h[hole] = e;
    }

    LBB_HOT HfHeapEntry pop() noexcept {
      const HfHeapEntry result = h[0];
      const HfHeapEntry last = h[--size];
      if (size > 0) {
        // Hole-sift down: promote the best child until `last` fits.
        const std::size_t count = size;
        std::size_t hole = 0;
        for (;;) {
          const std::size_t first_child = 4 * hole + 1;
          if (first_child >= count) break;
          const std::size_t end_child = std::min(first_child + 4, count);
          std::size_t best = first_child;
          for (std::size_t c = first_child + 1; c < end_child; ++c) {
            if (higher(h[c], h[best])) best = c;
          }
          // Fetch the next level's children while comparing this one: for
          // large heaps (N >= ~8k) the sift-down is memory-latency-bound,
          // and the 4 candidate children (4*best+1 .. 4*best+4, 96 bytes of
          // 24-byte entries) span up to two cachelines.  Harmless past the
          // live end -- prefetches never fault (see LBB_PREFETCH).
          LBB_PREFETCH(h + 4 * best + 1);
          LBB_PREFETCH(h + 4 * best + 4);
          if (!higher(h[best], last)) break;
          h[hole] = h[best];
          hole = best;
        }
        h[hole] = last;
      }
      return result;
    }

    /// True iff a must be popped before b (strictly higher priority).
    [[nodiscard]] static bool higher(const HfHeapEntry& a,
                                     const HfHeapEntry& b) noexcept {
      if (a.weight != b.weight) return a.weight > b.weight;
      return a.seq < b.seq;  // earlier-created wins ties
    }
  };

  /// Growth-only: room for `n` entries without reallocating.
  void reserve(std::size_t n) {
    if (n > cap_) grow(n);
  }
  void clear() noexcept { heap_.size = 0; }
  [[nodiscard]] bool empty() const noexcept { return heap_.size == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size; }
  [[nodiscard]] const HfHeapEntry& top() const noexcept { return heap_.top(); }

  LBB_HOT void push(HfHeapEntry e) {
    // Past the reserve() bound only when more entries are pushed than were
    // reserved for; grow rather than overrun.
    if (heap_.size == cap_) grow(2 * cap_ + 16);
    heap_.push(e);
  }
  LBB_HOT HfHeapEntry pop() noexcept { return heap_.pop(); }

  /// An empty Local on this heap's buffer (its own entries are untouched).
  [[nodiscard]] Local local() noexcept { return Local{buf_.get()}; }

 private:
  /// Moves the live entries into a buffer of `n` entries.
  void grow(std::size_t n) {
    // lbb-lint: allow(hot-alloc): workspace-owned heap (ws.heap and the
    // band queue's hot heap), growth-only, so a warm workspace that was
    // reserved for its n never reaches this.
    auto bigger = std::make_unique_for_overwrite<HfHeapEntry[]>(n);
    std::copy_n(buf_.get(), heap_.size, bigger.get());
    buf_ = std::move(bigger);
    heap_.h = buf_.get();
    cap_ = n;
  }

  std::unique_ptr<HfHeapEntry[]> buf_;
  Local heap_{nullptr};
  std::size_t cap_ = 0;
};

/// HF selection queue from kHfBandMinPieces pieces on: pops exactly
/// HfHeap's sequence, but exploits that HF's pops come out in
/// non-increasing weight order (a child never outweighs its parent), which
/// makes HF's queue a monotone priority queue -- the case where bucketed
/// queues beat comparison heaps.
///
/// An entry lighter than the current band's floor is appended to a weight
/// band keyed by the top bits of its IEEE-754 weight,
/// bit_cast<uint64_t>(w) >> kBandShift: sign, exponent and 8 mantissa bits,
/// so 256 bands per octave.  Only the current band lives in the small `hot_`
/// HfHeap, under HfHeap's comparator (weight descending, then seq
/// ascending); when it empties, the next non-empty band moves in.  Each
/// banded entry is written once and read back once, both sequentially, and
/// the heap that sifts stays a cache-resident fraction of an octave.
///
/// Invariant: every hot entry weighs at least floor_, every banded entry
/// weighs less, and every entry of band b outweighs every entry of band
/// b+1 (the key is monotone in the weight of a positive normal double).
/// The hot top is therefore the maximum of the whole queue under HfHeap's
/// total order, so for NaN-free weights the pop sequence is HfHeap's entry
/// for entry, whatever order the pushes come in:
///   * a push goes hot when !(w < floor_): children heavier than their
///     parent (problems breaking the alpha-bisector contract), +inf, NaN;
///   * the overflow list takes +-0, negative and subnormal weights and any
///     weight below the lowest band.  When the queue reaches it, the bands
///     are re-based on its heaviest entry and it is redistributed, so speed
///     does not depend on how many octaves the weights span.  A heaviest
///     overflow entry that is not a positive normal double moves the whole
///     overflow hot and sets floor_ to -inf (a plain heap from then on).
/// NaN weights reach only the hot heap, whose order among NaNs is defined
/// but arbitrary, so a NaN stream still pops every entry exactly once.
///
/// Storage: bands are singly linked chunks of kChunkEntries entries from
/// one pool.  After reserve(n) the queue holds up to n entries without
/// allocating, whatever their weights: the lists in use hold at most
/// ceil(n / kChunkEntries) + min(kBands, n) + 1 chunks.  clear() resets only
/// the bands written since the last clear.
class HfBandQueue {
 public:
  /// Right shift of a weight's bits that yields its band key.
  static constexpr int kBandShift = 44;
  /// Bands below the base (16 octaves); lighter entries go to overflow.
  static constexpr std::int32_t kBands = 16 << (52 - kBandShift);
  /// Entries per pool chunk.
  static constexpr std::int32_t kChunkEntries = 32;

  /// Sizes the pool and the hot heap for up to `n` queued entries.
  /// Growth-only: a warm queue of at least that capacity does nothing.
  void reserve(std::size_t n) {
    const std::size_t chunks =
        (n + kChunkEntries - 1) / kChunkEntries +
        std::min(n, static_cast<std::size_t>(kBands)) + 1;
    if (chunks > cap_) grow(chunks);
    if (bands_.empty()) {
      // lbb-lint: allow(hot-alloc): the band table is sized once and kept
      // by the workspace (ws.hf_queue) across trials.
      bands_.resize(kBands);
    }
    // lbb-lint: allow(hot-alloc): growth-only, as HfHeap::reserve.
    hot_.reserve(n);
  }

  /// Empties the queue, keeping all capacity.
  void clear() noexcept {
    hot_.clear();
    if (hi_ >= 0) std::fill_n(bits_.begin(), hi_ / 64 + 1, std::uint64_t{0});
    hi_ = -1;
    banded_ = 0;
    overflow_ = List{};
    overflow_max_ = -std::numeric_limits<double>::infinity();
    free_ = -1;
    used_ = 0;
    // Unbased: the first push lands in an empty queue and re-bases.
    nbands_ = 0;
    cur_ = 0;
    floor_ = std::numeric_limits<double>::infinity();
  }

  [[nodiscard]] bool empty() const noexcept { return hot_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept {
    return hot_.size() + banded_;
  }
  /// The maximum entry (HfHeap's order); the queue must not be empty.
  [[nodiscard]] const HfHeapEntry& top() const noexcept { return hot_.top(); }

  LBB_HOT void push(HfHeapEntry e) {
    if (!(e.weight < floor_)) {
      hot_.push(e);
    } else if (hot_.empty()) {
      // Empty queue (a non-empty queue always has a hot entry): base the
      // bands on this entry, which then sits at or above the new floor.
      set_base(e.weight);
      hot_.push(e);
    } else {
      append(e);
    }
  }

  LBB_HOT HfHeapEntry pop() {
    const HfHeapEntry result = hot_.pop();
    if (hot_.empty() && banded_ != 0) refill();
    return result;
  }

 private:
  /// A singly linked chunk list; `count` fills the tail chunk.
  struct List {
    std::int32_t head = -1;
    std::int32_t tail = -1;
    std::int32_t count = 0;
  };
  struct Chunk {
    std::int32_t next;
    HfHeapEntry entries[kChunkEntries];
  };

  static constexpr std::uint64_t kMinNormalKey =
      std::bit_cast<std::uint64_t>(std::numeric_limits<double>::min()) >>
      kBandShift;

  [[nodiscard]] static std::uint64_t key_of(double w) noexcept {
    return std::bit_cast<std::uint64_t>(w) >> kBandShift;
  }

  /// Lightest weight of band b: its key with zero low bits.
  [[nodiscard]] double band_floor(std::int32_t b) const noexcept {
    return std::bit_cast<double>((base_key_ - static_cast<std::uint64_t>(b))
                                 << kBandShift);
  }

  /// Bases band 0 on weight `w`.  The bands and the overflow must be empty.
  /// A `w` that is not a positive normal double cannot be banded (nor can
  /// anything before reserve()): floor_ drops to -inf and every later entry
  /// goes hot.
  LBB_HOT void set_base(double w) noexcept {
    cur_ = 0;
    if (!bands_.empty() && w >= std::numeric_limits<double>::min() &&
        w <= std::numeric_limits<double>::max()) {
      base_key_ = key_of(w);
      // Keep zero and subnormal keys out of the bands: +0.0 and -0.0 tie,
      // so they must share the overflow.
      nbands_ = static_cast<std::int32_t>(std::min<std::uint64_t>(
          kBands, base_key_ - kMinNormalKey + 1));
      floor_ = band_floor(0);
    } else {
      nbands_ = 0;
      floor_ = -std::numeric_limits<double>::infinity();
    }
  }

  /// Files an entry lighter than floor_ into its band or the overflow.
  LBB_HOT void append(const HfHeapEntry& e) {
    const std::uint64_t band = base_key_ - key_of(e.weight);
    ++banded_;
    if (band < static_cast<std::uint64_t>(nbands_)) {
      const auto b = static_cast<std::size_t>(band);
      std::uint64_t& word = bits_[b / 64];
      const std::uint64_t bit = std::uint64_t{1} << (b % 64);
      if ((word & bit) == 0) {
        // A band's list is live only while its bit is set.
        word |= bit;
        bands_[b] = List{};
        hi_ = std::max(hi_, static_cast<std::int32_t>(b));
      }
      list_append(bands_[b], e);
    } else {
      if (e.weight > overflow_max_) overflow_max_ = e.weight;
      list_append(overflow_, e);
    }
  }

  LBB_HOT void list_append(List& list, const HfHeapEntry& e) {
    if (list.count == kChunkEntries || list.tail < 0) {
      const std::int32_t c = alloc_chunk();
      chunks_[c].next = -1;
      if (list.tail < 0) {
        list.head = c;
      } else {
        chunks_[list.tail].next = c;
      }
      list.tail = c;
      list.count = 0;
    }
    chunks_[list.tail].entries[list.count++] = e;
  }

  LBB_HOT std::int32_t alloc_chunk() {
    if (free_ >= 0) {
      const std::int32_t c = free_;
      free_ = chunks_[c].next;
      return c;
    }
    // Past the reserve() bound only when more entries are queued than
    // were reserved for; grow rather than overrun.
    if (static_cast<std::size_t>(used_) == cap_) grow(2 * cap_ + 16);
    return used_++;
  }

  void free_chunk(std::int32_t c) noexcept {
    chunks_[c].next = free_;
    free_ = c;
  }

  /// Hot is empty and entries remain banded: move the next non-empty band
  /// into hot, re-basing on the overflow once the bands run out.
  LBB_HOT void refill() {
    for (;;) {
      const std::int32_t b = next_band();
      if (b >= 0) {
        drain(b);
        return;
      }
      rebase();
      if (!hot_.empty()) return;
    }
  }

  /// First non-empty band at or after cur_ (bands before it are drained),
  /// or -1.
  [[nodiscard]] std::int32_t next_band() const noexcept {
    if (cur_ > hi_) return -1;
    const auto last_word = static_cast<std::size_t>(hi_) / 64;
    auto w = static_cast<std::size_t>(cur_) / 64;
    std::uint64_t word = bits_[w] & (~std::uint64_t{0} << (cur_ % 64));
    while (word == 0) {
      if (++w > last_word) return -1;
      word = bits_[w];
    }
    return static_cast<std::int32_t>(w * 64) + std::countr_zero(word);
  }

  /// Moves band b into hot; b becomes the current band.
  LBB_HOT void drain(std::int32_t b) {
    cur_ = b;
    floor_ = band_floor(b);
    const auto band = static_cast<std::size_t>(b);
    bits_[band / 64] &= ~(std::uint64_t{1} << (band % 64));
    const List list = bands_[band];
    for (std::int32_t c = list.head; c >= 0;) {
      const Chunk& chunk = chunks_[c];
      const std::int32_t count = c == list.tail ? list.count : kChunkEntries;
      for (std::int32_t i = 0; i < count; ++i) hot_.push(chunk.entries[i]);
      banded_ -= static_cast<std::size_t>(count);
      const std::int32_t next = chunk.next;
      free_chunk(c);
      c = next;
    }
  }

  /// All bands are empty: re-base on the heaviest overflow entry and
  /// redistribute the overflow (or move it hot when it cannot be banded).
  LBB_HOT void rebase() {
    const List old = overflow_;
    overflow_ = List{};
    const double top = overflow_max_;
    overflow_max_ = -std::numeric_limits<double>::infinity();
    hi_ = -1;
    set_base(top);
    HfHeapEntry buffer[kChunkEntries];
    for (std::int32_t c = old.head; c >= 0;) {
      // Copy the chunk out and free it first, so the redistribution never
      // holds more chunks than the reserve() bound.
      const std::int32_t count = c == old.tail ? old.count : kChunkEntries;
      std::copy_n(chunks_[c].entries, count, buffer);
      const std::int32_t next = chunks_[c].next;
      free_chunk(c);
      c = next;
      banded_ -= static_cast<std::size_t>(count);
      for (std::int32_t i = 0; i < count; ++i) {
        if (nbands_ == 0) {
          hot_.push(buffer[i]);
        } else {
          append(buffer[i]);
        }
      }
    }
  }

  void grow(std::size_t chunks) {
    // lbb-lint: allow(hot-alloc): growth-only pool, sized by reserve() for
    // n queued entries; default-initialized, so a page is touched only when
    // one of its chunks is first used.
    std::unique_ptr<Chunk[]> bigger(new Chunk[chunks]);
    // Byte copy: chunks in use may hold unwritten entry slots.
    if (used_ > 0) {
      std::memcpy(bigger.get(), chunks_.get(),
                  static_cast<std::size_t>(used_) * sizeof(Chunk));
    }
    chunks_ = std::move(bigger);
    cap_ = chunks;
  }

  HfHeap hot_;
  double floor_ = std::numeric_limits<double>::infinity();
  std::uint64_t base_key_ = 0;
  std::int32_t nbands_ = 0;   ///< bands in use under the current base
  std::int32_t cur_ = 0;      ///< band whose entries are hot
  std::int32_t hi_ = -1;      ///< highest band written since clear/re-base
  std::size_t banded_ = 0;    ///< entries in bands and overflow
  std::vector<List> bands_;
  std::array<std::uint64_t, kBands / 64> bits_{};  ///< non-empty bands
  List overflow_;
  double overflow_max_ = -std::numeric_limits<double>::infinity();
  std::unique_ptr<Chunk[]> chunks_;
  std::size_t cap_ = 0;
  std::int32_t used_ = 0;  ///< chunks ever handed out since clear()
  std::int32_t free_ = -1;
};

/// detail::hf_run selects with HfBandQueue from this many pieces on and
/// with HfHeap below it; from here on, under the max sink, it first tries
/// its tree walk (hf_tree_walk in core/hf.hpp).  At small n the queue's fixed
/// costs (clear, reserve, basing the bands, a fresh chunk for nearly every
/// band) outweigh the heap's few sift levels: the raw-buffer heap lost to
/// the queue between 24 and 32 pieces, and 32 is the first size measured
/// at which the queue wins on U[0.1,0.5], U[0.01,0.5] and
/// two_point(0.1,0.5) (DESIGN.md section 7.5 has the table).
inline constexpr std::int32_t kHfBandMinPieces = 32;

/// Growth-only, uninitialized memory that a kernel views as an array of
/// its own record type, which depends on the problem and on the output
/// sink, and whose elements it constructs and destroys itself.
class RawBuffer {
 public:
  /// Room for `n` objects of T at the buffer's start.  Growing discards
  /// the contents, so a kernel calls this before any of its records live.
  template <typename T>
  [[nodiscard]] T* reserve(std::size_t n) {
    static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
    if (n * sizeof(T) > bytes_) {
      bytes_ = n * sizeof(T);
      // lbb-lint: allow(hot-alloc): growth-only workspace storage; a
      // workspace sized for its n never grows it again.
      data_ = std::make_unique_for_overwrite<std::byte[]>(bytes_);
    }
    return static_cast<T*>(static_cast<void*>(data_.get()));
  }

 private:
  std::unique_ptr<std::byte[]> data_;
  std::size_t bytes_ = 0;
};

/// A kernel's records in a RawBuffer (HF's slots, a BA-family stack):
/// [0, size) are live and are destroyed when the kernel returns or unwinds,
/// which costs nothing for trivially destructible records.
template <typename T>
class RawRecords {
 public:
  explicit RawRecords(T* storage) noexcept : data_(storage) {}
  RawRecords(const RawRecords&) = delete;
  RawRecords& operator=(const RawRecords&) = delete;
  ~RawRecords() { std::destroy_n(data_, size_); }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] T& operator[](std::size_t i) const noexcept {
    return data_[i];
  }

  /// Constructs a record past the last.
  template <typename... Args>
  LBB_HOT void push(Args&&... args) {
    ::new (static_cast<void*>(data_ + size_)) T{std::forward<Args>(args)...};
    ++size_;
  }

  /// Removes and returns the last record.
  LBB_HOT T pop() {
    T last = std::move(data_[--size_]);
    std::destroy_at(data_ + size_);
    return last;
  }

 private:
  T* data_;
  std::size_t size_ = 0;
};

/// One HF slot: a live subproblem awaiting (possible) further bisection,
/// and what the output sink keeps of it (nothing under the max sink).
template <Bisectable P, typename Sink>
struct HfSlot {
  P problem;
  [[no_unique_address]] typename Sink::SlotTag tag;
};

/// One frame of the BA / BA' stack: a subproblem, its weight (BA''s prune
/// test), its processor count, and what the output sink keeps of it.
template <Bisectable P, typename Sink>
struct BaFrame {
  BaFrame(P p, double w, std::int32_t count, typename Sink::FrameTag at)
      : problem(std::move(p)), weight(w), n(count), tag(at) {}
  P problem;
  double weight;
  std::int32_t n;
  [[no_unique_address]] typename Sink::FrameTag tag;
};

/// One frame of the BA-HF stack: BaFrame without the weight, which BA-HF's
/// switch on processor count never reads (the constructor drops it).
template <Bisectable P, typename Sink>
struct BaHfFrame {
  BaHfFrame(P p, double, std::int32_t count, typename Sink::FrameTag at)
      : problem(std::move(p)), n(count), tag(at) {}
  P problem;
  std::int32_t n;
  [[no_unique_address]] typename Sink::FrameTag tag;
};

}  // namespace lbb::core::detail
