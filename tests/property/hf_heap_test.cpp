// Property test: detail::HfHeap (inline 4-ary max-heap) against a
// std::priority_queue reference with the identical comparator, and
// detail::HfBandQueue (HF's weight-band queue) against HfHeap.
//
// HF's determinism guarantee rests on the heap popping in a unique order:
// the priority (weight desc, seq asc) is a TOTAL order because seq is
// unique, so *any* correct heap must pop the same sequence.  This test
// drives both heaps with random interleaved push/pop streams -- including
// heavy duplicate-weight runs, where only the seq tiebreak decides -- and
// asserts entry-for-entry identical pop order.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <vector>

#include "core/batch/batch_workspace.hpp"
#include "core/detail/scratch.hpp"
#include "stats/rng.hpp"

namespace lbb::core::detail {
namespace {

/// std::priority_queue comparator equivalent to HfHeap's ordering:
/// heavier first, earlier-created (smaller seq) wins ties.
struct RefLess {
  bool operator()(const HfHeapEntry& a, const HfHeapEntry& b) const {
    if (a.weight != b.weight) return a.weight < b.weight;
    return a.seq > b.seq;
  }
};

using RefHeap =
    std::priority_queue<HfHeapEntry, std::vector<HfHeapEntry>, RefLess>;

void expect_same_entry(const HfHeapEntry& got, const HfHeapEntry& want,
                       std::int64_t step) {
  ASSERT_EQ(got.seq, want.seq) << "pop order diverged at step " << step;
  ASSERT_EQ(got.weight, want.weight) << "at step " << step;
  ASSERT_EQ(got.slot, want.slot) << "at step " << step;
}

/// Drives both heaps with the same stream: `push_bias` in [0,1] controls
/// the push/pop mix, `weight_levels` == 0 means continuous weights, k > 0
/// quantizes to k distinct values (dense ties).
void run_stream(std::uint64_t seed, int steps, double push_bias,
                int weight_levels) {
  lbb::stats::Xoshiro256 rng(seed);
  HfHeap heap;
  RefHeap ref;
  std::int64_t seq = 0;
  for (int step = 0; step < steps; ++step) {
    const bool do_push =
        ref.empty() || rng.next_double() < push_bias;
    if (do_push) {
      double w = rng.next_double();
      if (weight_levels > 0) {
        w = static_cast<double>(static_cast<int>(w * weight_levels)) /
            weight_levels;
      }
      const HfHeapEntry e{w, seq, static_cast<std::int32_t>(seq % 1000)};
      ++seq;
      heap.push(e);
      ref.push(e);
    } else {
      ASSERT_FALSE(heap.empty());
      expect_same_entry(heap.top(), ref.top(), step);
      const HfHeapEntry got = heap.pop();
      const HfHeapEntry want = ref.top();
      ref.pop();
      expect_same_entry(got, want, step);
    }
    ASSERT_EQ(heap.size(), ref.size());
  }
  // Drain: the full remaining order must agree.
  std::int64_t step = steps;
  while (!ref.empty()) {
    ASSERT_FALSE(heap.empty());
    const HfHeapEntry got = heap.pop();
    const HfHeapEntry want = ref.top();
    ref.pop();
    expect_same_entry(got, want, step++);
  }
  EXPECT_TRUE(heap.empty());
}

TEST(HfHeapProperty, MatchesPriorityQueueContinuousWeights) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    run_stream(seed, 2000, 0.6, /*weight_levels=*/0);
  }
}

TEST(HfHeapProperty, MatchesPriorityQueueDenseTies) {
  // Few distinct weights: nearly every comparison falls through to the seq
  // tiebreak, the regime where a sloppy heap diverges.
  for (std::uint64_t seed = 100; seed <= 120; ++seed) {
    run_stream(seed, 2000, 0.6, /*weight_levels=*/3);
  }
}

TEST(HfHeapProperty, MatchesPriorityQueueAllEqualWeights) {
  // Degenerate case: one weight level, pure FIFO by seq.
  run_stream(7, 4000, 0.55, /*weight_levels=*/1);
}

TEST(HfHeapProperty, MatchesPriorityQueuePopHeavy) {
  // Pop-biased stream exercises deep sift-downs on a shrinking heap.
  for (std::uint64_t seed = 200; seed <= 210; ++seed) {
    run_stream(seed, 3000, 0.35, /*weight_levels=*/5);
  }
}

// ---------------------------------------------------------------------------
// Lane heaps (core/batch): the raw-buffer push/pop the batched kernels use
// must pop byte-for-byte what the scalar HfHeap pops, per lane, for the
// batched HF driver to be bit-identical to hf_run.

/// Drives `lanes` independent (lane heap, HfHeap) pairs with interleaved
/// per-lane streams and byte-compares every pop on every lane.
void run_lane_streams(std::uint64_t seed, int lanes, int steps,
                      double push_bias, int weight_levels) {
  const int cap = steps + 1;
  std::vector<HfHeapEntry> storage(static_cast<std::size_t>(lanes) * cap);
  std::vector<std::int32_t> lane_size(static_cast<std::size_t>(lanes), 0);
  std::vector<HfHeap> scalar(static_cast<std::size_t>(lanes));
  std::vector<std::int64_t> seq(static_cast<std::size_t>(lanes), 0);
  lbb::stats::Xoshiro256 rng(seed);
  for (int step = 0; step < steps; ++step) {
    // Lockstep over lanes, like the batched driver: every lane takes one
    // action per step, chosen from the lane's own view of the stream.
    for (int l = 0; l < lanes; ++l) {
      HfHeapEntry* h = storage.data() + static_cast<std::size_t>(l) * cap;
      const bool do_push =
          scalar[l].empty() || rng.next_double() < push_bias;
      if (do_push) {
        double w = rng.next_double();
        if (weight_levels > 0) {
          w = static_cast<double>(static_cast<int>(w * weight_levels)) /
              weight_levels;
        }
        const HfHeapEntry e{w, seq[l],
                            static_cast<std::int32_t>(seq[l] % 1000)};
        ++seq[l];
        lbb::core::batch::lane_heap_push(h, lane_size[l], e);
        scalar[l].push(e);
      } else {
        ASSERT_GT(lane_size[l], 0);
        const HfHeapEntry got =
            lbb::core::batch::lane_heap_pop(h, lane_size[l]);
        const HfHeapEntry want = scalar[l].pop();
        ASSERT_EQ(got.seq, want.seq)
            << "lane " << l << " diverged at step " << step;
        ASSERT_EQ(got.weight, want.weight) << "lane " << l;
        ASSERT_EQ(got.slot, want.slot) << "lane " << l;
      }
      ASSERT_EQ(static_cast<std::size_t>(lane_size[l]), scalar[l].size());
    }
  }
  // Drain every lane: the complete remaining order must agree bytewise.
  for (int l = 0; l < lanes; ++l) {
    HfHeapEntry* h = storage.data() + static_cast<std::size_t>(l) * cap;
    while (!scalar[l].empty()) {
      ASSERT_GT(lane_size[l], 0);
      const HfHeapEntry got = lbb::core::batch::lane_heap_pop(h, lane_size[l]);
      const HfHeapEntry want = scalar[l].pop();
      ASSERT_EQ(got.seq, want.seq) << "lane " << l << " drain diverged";
      ASSERT_EQ(got.weight, want.weight) << "lane " << l;
      ASSERT_EQ(got.slot, want.slot) << "lane " << l;
    }
    EXPECT_EQ(lane_size[l], 0);
  }
}

TEST(LaneHeapProperty, MatchesHfHeapContinuousWeights) {
  for (std::uint64_t seed = 300; seed <= 310; ++seed) {
    run_lane_streams(seed, /*lanes=*/8, /*steps=*/1500, 0.6,
                     /*weight_levels=*/0);
  }
}

TEST(LaneHeapProperty, MatchesHfHeapDenseDuplicateTies) {
  // Few distinct weights: nearly every comparison is decided by the seq
  // tiebreak -- the regime where any sift-order slip between the raw-buffer
  // heap and HfHeap shows up as a pop divergence.
  for (std::uint64_t seed = 400; seed <= 410; ++seed) {
    run_lane_streams(seed, /*lanes=*/16, /*steps=*/1500, 0.6,
                     /*weight_levels=*/2);
  }
}

TEST(LaneHeapProperty, MatchesHfHeapAllEqualWeights) {
  run_lane_streams(17, /*lanes=*/4, /*steps=*/3000, 0.55,
                   /*weight_levels=*/1);
}

TEST(LaneHeapProperty, MatchesHfHeapPopHeavy) {
  for (std::uint64_t seed = 500; seed <= 505; ++seed) {
    run_lane_streams(seed, /*lanes=*/8, /*steps=*/2000, 0.35,
                     /*weight_levels=*/4);
  }
}

TEST(HfHeapProperty, HfPushPopInterleavingPattern) {
  // The exact pattern hf_run drives: pop one, push two, until n entries.
  lbb::stats::Xoshiro256 rng(42);
  HfHeap heap;
  RefHeap ref;
  std::int64_t seq = 0;
  const auto push_both = [&](double w) {
    const HfHeapEntry e{w, seq, static_cast<std::int32_t>(seq)};
    ++seq;
    heap.push(e);
    ref.push(e);
  };
  push_both(1.0);
  while (heap.size() < 4096) {
    expect_same_entry(heap.top(), ref.top(), seq);
    const double w = heap.pop().weight;
    ref.pop();
    const double a = 0.1 + 0.4 * rng.next_double();
    push_both(w * (1.0 - a));
    push_both(w * a);
    ASSERT_EQ(heap.size(), ref.size());
  }
}

// ---------------------------------------------------------------------------
// Weight-band queue: HfBandQueue must pop exactly HfHeap's sequence for any
// NaN-free push/pop stream -- HF-shaped (monotone) ones, and hostile ones
// that break monotonicity, tie densely, carry 0 / -0.0 / negative /
// subnormal / infinite weights, or span more octaves than the bands cover
// (which forces the overflow and the re-base).

/// Drives an HfBandQueue and an HfHeap with one stream and byte-compares
/// every top, pop and size.  The band queue is the caller's, so a test can
/// reuse one queue across streams and check that clear() forgets the last.
class BandVsHeap {
 public:
  BandVsHeap(HfBandQueue& band, std::size_t reserve) : band_(band) {
    band_.clear();
    band_.reserve(reserve);
  }

  void push(double w) {
    const HfHeapEntry e{w, seq_, static_cast<std::int32_t>(seq_ % 4096)};
    ++seq_;
    band_.push(e);
    heap_.push(e);
    check_top();
  }

  /// Pops both and returns the popped weight.
  double pop() {
    if (band_.empty()) {
      ADD_FAILURE() << "band queue empty before the heap, pop " << pops_;
      return heap_.pop().weight;
    }
    const HfHeapEntry got = band_.pop();
    const HfHeapEntry want = heap_.pop();
    EXPECT_EQ(got.seq, want.seq) << "pop " << pops_ << " diverged";
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.weight),
              std::bit_cast<std::uint64_t>(want.weight));
    EXPECT_EQ(got.slot, want.slot);
    ++pops_;
    check_top();
    return want.weight;
  }

  void drain() {
    while (!heap_.empty()) {
      pop();
      if (::testing::Test::HasFailure()) return;
    }
    EXPECT_TRUE(band_.empty());
    EXPECT_EQ(band_.size(), 0u);
  }

  [[nodiscard]] std::size_t size() const { return heap_.size(); }
  [[nodiscard]] bool empty() const { return heap_.empty(); }

 private:
  void check_top() {
    ASSERT_EQ(band_.size(), heap_.size());
    ASSERT_EQ(band_.empty(), heap_.empty());
    if (!heap_.empty()) {
      ASSERT_EQ(band_.top().seq, heap_.top().seq);
    }
  }

  HfBandQueue& band_;
  HfHeap heap_;
  std::int64_t seq_ = 0;
  std::int64_t pops_ = 0;
};

/// HF's own pattern: pop the heaviest, push its two children (heavier
/// first), until `n` entries are live; then drain, or, like hf_run, leave
/// the entries for the next clear().  `split(w)` returns the children's
/// weights.
void run_hf_shaped(HfBandQueue& band, std::int32_t n,
                   const std::function<std::pair<double, double>(double)>&
                       split,
                   bool drain = true) {
  BandVsHeap q(band, static_cast<std::size_t>(n));
  q.push(1.0);
  while (q.size() < static_cast<std::size_t>(n)) {
    const auto [a, b] = split(q.pop());
    q.push(a);
    q.push(b);
    if (::testing::Test::HasFailure()) return;
  }
  if (drain) q.drain();
}

/// Random interleaved pushes and pops with weights from `weight()`.
void run_random(HfBandQueue& band, std::uint64_t seed, int steps,
                double push_bias, const std::function<double()>& weight) {
  lbb::stats::Xoshiro256 rng(seed);
  BandVsHeap q(band, static_cast<std::size_t>(steps));
  for (int step = 0; step < steps; ++step) {
    if (q.empty() || rng.next_double() < push_bias) {
      q.push(weight());
    } else {
      q.pop();
    }
    if (::testing::Test::HasFailure()) return;
  }
  q.drain();
}

TEST(HfBandQueueProperty, HfShapedStreamsMatchHeap) {
  HfBandQueue band;
  lbb::stats::Xoshiro256 rng(11);
  const auto uniform = [&](double lo, double hi) {
    return [&rng, lo, hi](double w) {
      const double a = lo + (hi - lo) * rng.next_double();
      return std::pair{(1.0 - a) * w, a * w};
    };
  };
  for (const std::int32_t n : {2, 100, 1 << 12, 1 << 15}) {
    run_hf_shaped(band, n, uniform(0.01, 0.5));
    run_hf_shaped(band, n, uniform(0.1, 0.5));
    // Far lighter light children: the drain crosses the 16-octave window.
    run_hf_shaped(band, n, uniform(1e-4, 0.5));
    // two_point(0.1, 0.5) and point(0.1): dense exact ties across levels.
    run_hf_shaped(band, n, [&rng](double w) {
      const double a = rng.next_double() < 0.5 ? 0.1 : 0.5;
      return std::pair{(1.0 - a) * w, a * w};
    });
    run_hf_shaped(band, n,
                  [](double w) { return std::pair{0.9 * w, 0.1 * w}; });
    if (HasFailure()) return;
  }
}

TEST(HfBandQueueProperty, ClearForgetsAnAbandonedRun) {
  // hf_run stops with n entries still queued and clears on the next run:
  // no band, chunk or bit of an abandoned run may leak into the next one.
  HfBandQueue band;
  lbb::stats::Xoshiro256 rng(12);
  const auto split = [&rng](double w) {
    const double a = 0.01 + 0.49 * rng.next_double();
    return std::pair{(1.0 - a) * w, a * w};
  };
  for (const std::int32_t n : {1 << 12, 300, 1 << 14, 1000}) {
    run_hf_shaped(band, n, split, /*drain=*/false);
  }
  run_hf_shaped(band, 1 << 12, split);
}

TEST(HfBandQueueProperty, AllEqualChildrenMatchHeap) {
  // point(0.5): every level is one weight, so every pop is decided by seq.
  HfBandQueue band;
  run_hf_shaped(band, 1 << 14,
                [](double w) { return std::pair{0.5 * w, 0.5 * w}; });
  // A constant weight: a single band, pure FIFO by seq.
  run_hf_shaped(band, 1 << 12, [](double) { return std::pair{1.0, 1.0}; });
  run_random(band, 3, 4000, 0.55, [] { return 0.25; });
}

TEST(HfBandQueueProperty, DenseTiesMatchHeap) {
  HfBandQueue band;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    lbb::stats::Xoshiro256 rng(seed);
    for (const int levels : {2, 3, 7}) {
      run_random(band, seed, 3000, 0.6, [&rng, levels] {
        return static_cast<double>(
                   static_cast<int>(rng.next_double() * levels)) /
               levels;
      });
    }
  }
}

TEST(HfBandQueueProperty, ChildrenHeavierThanParentMatchHeap) {
  // Problems that break the alpha-bisector contract: a child may outweigh
  // its parent, so pops are no longer monotone and pushes land above the
  // current band's floor.
  HfBandQueue band;
  lbb::stats::Xoshiro256 rng(21);
  run_hf_shaped(band, 1 << 13, [&rng](double w) {
    return std::pair{(0.3 + 1.0 * rng.next_double()) * w,
                     (0.05 + 0.5 * rng.next_double()) * w};
  });
  for (std::uint64_t seed = 30; seed <= 35; ++seed) {
    run_random(band, seed, 4000, 0.6, [&rng] { return rng.next_double(); });
  }
}

TEST(HfBandQueueProperty, SpecialWeightsMatchHeap) {
  // 0, -0.0 (equal to 0, so only seq orders them), negative, subnormal,
  // smallest normal, +inf and -inf, mixed with ordinary weights.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kMin = std::numeric_limits<double>::min();
  const std::vector<double> special = {
      0.0,  -0.0,       -1.0,        -kMin,     kMin,
      kMin / 2.0,       std::numeric_limits<double>::denorm_min(),
      kInf, -kInf,      std::numeric_limits<double>::max(), 1.0, 0.5};
  HfBandQueue band;
  for (std::uint64_t seed = 40; seed <= 49; ++seed) {
    lbb::stats::Xoshiro256 rng(seed);
    run_random(band, seed, 3000, 0.6, [&] {
      if (rng.next_double() < 0.5) return rng.next_double();
      return special[static_cast<std::size_t>(rng.next_double() *
                                              special.size())];
    });
  }
  // Only non-bandable weights: the queue degrades to its hot heap.
  run_random(band, 50, 2000, 0.6, [&] { return -0.0; });
  run_hf_shaped(band, 1 << 10,
                [](double w) { return std::pair{w * 0.0, -w * 0.0}; });
}

TEST(HfBandQueueProperty, WideOctaveSpansMatchHeap) {
  // Weights spanning the whole double range, far more octaves than the
  // bands cover: entries pile into the overflow and every re-base must
  // redistribute them in order.  Exponents from -1050 to 1049 also
  // produce subnormals and +inf.
  HfBandQueue band;
  for (std::uint64_t seed = 60; seed <= 69; ++seed) {
    lbb::stats::Xoshiro256 rng(seed);
    for (const int span : {40, 300, 2100}) {
      run_random(band, seed, 4000, 0.6, [&rng, span] {
        const int e = static_cast<int>(rng.next_double() * span) - span / 2;
        return std::ldexp(0.5 + 0.5 * rng.next_double(), e);
      });
    }
  }
  // A monotone sweep: push everything first, then drain across ~60 octaves.
  lbb::stats::Xoshiro256 rng(70);
  BandVsHeap q(band, 1 << 14);
  for (int i = 0; i < (1 << 14); ++i) {
    q.push(std::ldexp(1.0 + rng.next_double(),
                      -static_cast<int>(rng.next_double() * 60)));
  }
  q.drain();
}

TEST(HfBandQueueProperty, MatchesHeapBeyondReservedCapacity) {
  // Past reserve()'s bound the pool grows instead of overrunning.
  HfBandQueue band;
  lbb::stats::Xoshiro256 rng(80);
  BandVsHeap q(band, 4);
  for (int i = 0; i < 20000; ++i) q.push(rng.next_double());
  q.drain();
}

TEST(HfBandQueueProperty, UnreservedQueueMatchesHeap) {
  // Without reserve() nothing can be banded: a plain heap, still correct.
  HfBandQueue band;
  band.clear();
  HfHeap heap;
  lbb::stats::Xoshiro256 rng(81);
  for (std::int64_t seq = 0; seq < 3000; ++seq) {
    const HfHeapEntry e{rng.next_double(), seq, 0};
    band.push(e);
    heap.push(e);
  }
  while (!heap.empty()) ASSERT_EQ(band.pop().seq, heap.pop().seq);
  EXPECT_TRUE(band.empty());
}

TEST(HfBandQueueProperty, NanWeightsPopEveryEntryOnce) {
  // No order is owed for NaN, but the queue must stay well defined: every
  // entry comes out exactly once and the size accounting holds.
  HfBandQueue band;
  band.clear();
  band.reserve(4096);
  lbb::stats::Xoshiro256 rng(90);
  std::vector<int> popped(4096, 0);
  std::int64_t seq = 0;
  std::size_t live = 0;
  for (int step = 0; step < 8000; ++step) {
    if (seq < 4096 && (live == 0 || rng.next_double() < 0.6)) {
      const double w = rng.next_double() < 0.3
                           ? std::numeric_limits<double>::quiet_NaN()
                           : rng.next_double();
      band.push(HfHeapEntry{w, seq, 0});
      ++seq;
      ++live;
    } else if (live > 0) {
      ++popped[static_cast<std::size_t>(band.pop().seq)];
      --live;
    }
    ASSERT_EQ(band.size(), live);
  }
  while (!band.empty()) ++popped[static_cast<std::size_t>(band.pop().seq)];
  for (std::int64_t i = 0; i < seq; ++i) {
    EXPECT_EQ(popped[static_cast<std::size_t>(i)], 1) << "seq " << i;
  }
}

}  // namespace
}  // namespace lbb::core::detail
