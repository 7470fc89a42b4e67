// Tests for the statistics utilities (RNG, running stats, tables).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "stats/rng.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"

namespace lbb::stats {
namespace {

TEST(SplitMix64, KnownVectors) {
  // Reference values from the SplitMix64 public-domain implementation
  // seeded with 1234567: first three outputs.
  std::uint64_t state = 1234567;
  auto next = [&state] {
    const std::uint64_t out = splitmix64(state);
    state += 0x9e3779b97f4a7c15ULL;  // advance as the reference generator
    return out;
  };
  const std::uint64_t a = next();
  const std::uint64_t b = next();
  EXPECT_NE(a, b);
  // Determinism of the pure function:
  EXPECT_EQ(splitmix64(42), splitmix64(42));
  EXPECT_NE(splitmix64(42), splitmix64(43));
}

TEST(Xoshiro, DeterministicPerSeed) {
  Xoshiro256 a(99);
  Xoshiro256 b(99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
  Xoshiro256 c(100);
  EXPECT_NE(Xoshiro256(99)(), c());
}

TEST(Xoshiro, UniformRangeRespected) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform(0.25, 0.75);
    EXPECT_GE(u, 0.25);
    EXPECT_LT(u, 0.75);
  }
}

TEST(Xoshiro, UniformMeanIsCentered) {
  Xoshiro256 rng(11);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.next_double();
  EXPECT_NEAR(sum / n, 0.5, 0.005);
}

TEST(Xoshiro, BelowIsInRange) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Xoshiro, BelowZeroThrowsInsteadOfUb) {
  // Regression: below(0) used to execute `x % 0`, which is undefined
  // behavior (UBSan flags it).  It must reject the argument instead.
  Xoshiro256 rng(5);
  EXPECT_THROW((void)rng.below(0), std::invalid_argument);
  // The rejection happens before any draw, so the stream is untouched: the
  // next draw matches a fresh generator's first one.
  Xoshiro256 fresh(5);
  EXPECT_EQ(rng.below(17), fresh.below(17));
  // n == 1 stays legal (and is always 0).
  EXPECT_EQ(rng.below(1), 0u);
}

TEST(XoshiroJump, PinnedCrossPlatformByteStability) {
  // Streams split off jump() must draw the SAME BYTES on every platform and
  // compiler, or results built on them stop being portable golden files.  These constants were produced
  // by the reference xoshiro256** jump polynomial and pin the first four
  // draws of the 0-, 1- and 2-jump streams for two seeds.
  struct Pin {
    std::uint64_t seed;
    int jumps;
    std::uint64_t draws[4];
  };
  const Pin pins[] = {
      {1, 0, {0xc5883e370b0926c3ULL, 0x021b74b80f71f81cULL,
              0x268df06749e5c8ceULL, 0xe052757d667afef2ULL}},
      {1, 1, {0x8c0796bdff0d1c96ULL, 0x9a924af10d94a40bULL,
              0x4640e3e6cbecb3b7ULL, 0xc1d8497a1d5f5fdaULL}},
      {1, 2, {0xc234ddc2a6e3b31eULL, 0x9e0eb4af7dcda501ULL,
              0xb44c83d0e06d4c32ULL, 0x5c12829bb5ba770aULL}},
      {42, 0, {0x5c8961e1f2055d33ULL, 0xe182e8e848466886ULL,
               0x9f7313650e290a18ULL, 0xe6c0f551804ef0bbULL}},
      {42, 1, {0x648bb1132a2afc35ULL, 0x960264e70db1fa99ULL,
               0x9d9b1632ed1c6c71ULL, 0xfdba18b89289decdULL}},
      {42, 2, {0x675edbe2b83ac3efULL, 0x02bd4870826b49cdULL,
               0x336901ef90a3fd00ULL, 0xbc6e3c0a3f03f183ULL}},
  };
  for (const Pin& pin : pins) {
    Xoshiro256 rng(pin.seed);
    for (int j = 0; j < pin.jumps; ++j) rng.jump();
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(rng(), pin.draws[i])
          << "seed " << pin.seed << " jumps " << pin.jumps << " draw " << i;
    }
  }
}

TEST(XoshiroJump, SplitIsJumpAppliedLanePlusOneTimes) {
  // split(lane) is the lane-keying primitive: an independent copy advanced
  // lane+1 jumps, leaving the source untouched.
  const Xoshiro256 base(7);
  for (std::uint64_t lane = 0; lane < 5; ++lane) {
    Xoshiro256 expect = base;
    for (std::uint64_t j = 0; j <= lane; ++j) expect.jump();
    Xoshiro256 got = base.split(lane);
    for (int i = 0; i < 16; ++i) {
      EXPECT_EQ(got(), expect()) << "lane " << lane << " draw " << i;
    }
  }
  Xoshiro256 source(7);
  Xoshiro256 untouched(7);
  (void)source.split(3);
  EXPECT_EQ(source(), untouched());  // const split leaves the source alone
  EXPECT_EQ(Xoshiro256(7).split(2)(), 0x1faa85f7731d9346ULL);  // pinned
}

TEST(XoshiroJump, LaneStreamsDoNotOverlap) {
  // jump() advances 2^128 steps, so distinct lanes' prefixes must be
  // disjoint for any feasible draw count.  Draw 4096 values from each of 8
  // lanes and require all 32768 to be pairwise distinct -- a single shared
  // state would collide the full suffix.
  constexpr int kLanes = 8;
  constexpr int kDraws = 4096;
  const Xoshiro256 base(123);
  std::vector<std::uint64_t> seen;
  seen.reserve(static_cast<std::size_t>(kLanes) * kDraws);
  for (std::uint64_t lane = 0; lane < kLanes; ++lane) {
    Xoshiro256 rng = base.split(lane);
    for (int i = 0; i < kDraws; ++i) seen.push_back(rng());
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end())
      << "two lanes produced the same 64-bit draw -- overlapping streams";
}

TEST(HashToUnit, RangeAndDeterminism) {
  for (std::uint64_t h : {0ULL, 1ULL, ~0ULL, 0xdeadbeefULL}) {
    const double u = hash_to_unit(h);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  EXPECT_DOUBLE_EQ(hash_to_unit(123), hash_to_unit(123));
}

TEST(RunningStats, EmptyState) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_TRUE(std::isnan(s.min()));
  EXPECT_TRUE(std::isnan(s.max()));
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownSample) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats all;
  RunningStats a;
  RunningStats b;
  Xoshiro256 rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-5.0, 5.0);
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-8);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a;
  a.add(1.0);
  a.add(3.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  RunningStats c;
  c.merge(a);
  EXPECT_EQ(c.count(), 2u);
  EXPECT_DOUBLE_EQ(c.mean(), 2.0);
}

TEST(RunningStats, MergeOfSingletonsMatchesAdds) {
  // Merging n one-element summaries is the degenerate chunking (chunk = 1)
  // of the parallel engine; it must agree with plain sequential adds.
  const std::vector<double> xs = {2.5, -1.0, 0.0, 7.25, 3.5, 3.5};
  RunningStats sequential;
  RunningStats merged;
  for (const double x : xs) {
    sequential.add(x);
    RunningStats one;
    one.add(x);
    merged.merge(one);
  }
  EXPECT_EQ(merged.count(), sequential.count());
  EXPECT_DOUBLE_EQ(merged.mean(), sequential.mean());
  EXPECT_NEAR(merged.variance(), sequential.variance(), 1e-12);
  EXPECT_DOUBLE_EQ(merged.min(), sequential.min());
  EXPECT_DOUBLE_EQ(merged.max(), sequential.max());
}

TEST(RunningStats, MergeIsAssociativeAgainstOneShotWelford) {
  // (a + b) + c and a + (b + c) must both reproduce the one-shot Welford
  // pass over the concatenation -- this is what makes the fixed-order
  // chunk reduction of the experiment engine well-defined.
  Xoshiro256 rng(321);
  std::vector<double> xs(301);
  for (auto& x : xs) x = rng.uniform(-5.0, 5.0);

  RunningStats one_shot;
  RunningStats a, b, c;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    one_shot.add(xs[i]);
    (i < 100 ? a : i < 200 ? b : c).add(xs[i]);
  }
  RunningStats left = a;
  left.merge(b);
  left.merge(c);
  RunningStats bc = b;
  bc.merge(c);
  RunningStats right = a;
  right.merge(bc);

  for (const RunningStats* s : {&left, &right}) {
    EXPECT_EQ(s->count(), one_shot.count());
    EXPECT_NEAR(s->mean(), one_shot.mean(), 1e-12);
    EXPECT_NEAR(s->variance(), one_shot.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(s->min(), one_shot.min());
    EXPECT_DOUBLE_EQ(s->max(), one_shot.max());
  }
  EXPECT_NEAR(left.mean(), right.mean(), 1e-14);
  EXPECT_NEAR(left.variance(), right.variance(), 1e-12);
}

TEST(Quantile, Basics) {
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(median(v), 2.5);
  EXPECT_THROW(static_cast<void>(quantile({}, 0.5)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(quantile(v, 1.5)), std::invalid_argument);
}

TEST(TextTable, AlignedOutput) {
  TextTable t;
  t.set_header({"algo", "ratio"});
  t.add_row({"HF", fmt(1.2345, 2)});
  t.add_separator();
  t.add_row({"BA-HF", fmt(2.0, 2)});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("algo"), std::string::npos);
  EXPECT_NE(out.find("1.23"), std::string::npos);
  EXPECT_NE(out.find("BA-HF"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
}

TEST(TextTable, RejectsRaggedRows) {
  TextTable t;
  t.set_header({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Fmt, Precision) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(2.0, 0), "2");
  EXPECT_EQ(fmt_int(1 << 20), "1048576");
}

}  // namespace
}  // namespace lbb::stats
