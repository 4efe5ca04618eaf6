// Unit + statistical tests for clb::rng.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <set>
#include <span>
#include <vector>

#include "rng/dist.hpp"
#include "rng/philox.hpp"
#include "rng/splitmix64.hpp"
#include "rng/xoshiro.hpp"

namespace clb::rng {
namespace {

TEST(SplitMix, KnownSequenceIsStable) {
  std::uint64_t s = 0;
  const std::uint64_t a = splitmix64_next(s);
  const std::uint64_t b = splitmix64_next(s);
  EXPECT_NE(a, b);
  // Regression pin: the reference SplitMix64 sequence from seed 0.
  std::uint64_t s2 = 0;
  EXPECT_EQ(splitmix64_next(s2), a);
}

TEST(SplitMix, HashCombineSeparatesNeighbours) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    seen.insert(hash_combine(42, i));
  }
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(Xoshiro, DistinctSeedsDistinctStreams) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Xoshiro, JumpDecorrelates) {
  Xoshiro256 a(7);
  Xoshiro256 b(7);
  b.jump();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Philox, SameKeyCounterSameOutput) {
  CounterRng a(123, 5, 9);
  CounterRng b(123, 5, 9);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a(), b());
}

TEST(Philox, DifferentStreamsDiffer) {
  CounterRng a(123, 5, 9);
  CounterRng b(123, 6, 9);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Philox, SetEventRepositionsDeterministically) {
  CounterRng a(1, 2, 0);
  std::vector<std::uint64_t> first;
  a.set_event(77);
  for (int i = 0; i < 8; ++i) first.push_back(a());
  a.set_event(78);
  (void)a();
  a.set_event(77);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(a(), first[i]);
}

TEST(Philox, OutputLooksUniform) {
  // Mean of 2^16 draws scaled to [0,1) should be 0.5 +- ~4/sqrt(12*2^16).
  CounterRng rng(99, 1, 0);
  double sum = 0;
  const int kDraws = 1 << 16;
  for (int i = 0; i < kDraws; ++i) sum += uniform01(rng);
  EXPECT_NEAR(sum / kDraws, 0.5, 0.005);
}

// Checks one lane-kernel entry point `run(seed, salt, first, event, count,
// w0, w1)` against the scalar definitions: for every lane count from 0 to
// kPhiloxLanes, lane i must hold Philox4x32::block of counter {event lo,
// event hi, 0, 0} under the key hash_combine(seed, hash_combine(first + i,
// salt)), split the way CounterRng splits it, and the first two words that
// CounterRng draws from that stream; outputs past the lane count stay
// untouched. Events whose high word is set and stream ids past 2^32 (with
// and without a carry across 2^32 inside the block) are covered.
template <class Run>
void expect_lanes_match(const char* variant, Run run) {
  constexpr std::size_t kLanes = kPhiloxLanes;
  Xoshiro256 rng(2024);
  const std::array<std::uint64_t, 4> events = {
      0, 7, (std::uint64_t{1} << 32) | 0xFFFFFFFFu, 0x9ABCDEF012345678ULL};
  const std::array<std::uint64_t, 4> firsts = {
      0, 1000, (std::uint64_t{1} << 32) - 17, std::uint64_t{5} << 40};
  constexpr std::uint64_t kSentinel = 0x5E5E5E5E5E5E5E5EULL;
  for (std::size_t e = 0; e < events.size(); ++e) {
    const std::uint64_t event = events[e];
    const std::uint64_t first = firsts[e];
    const std::array<std::uint32_t, 4> ctr = {
        static_cast<std::uint32_t>(event),
        static_cast<std::uint32_t>(event >> 32), 0, 0};
    for (std::size_t lanes = 0; lanes <= kLanes; ++lanes) {
      const std::uint64_t seed = rng(), salt = rng();
      std::vector<std::uint64_t> w0(kLanes + 1, kSentinel);
      std::vector<std::uint64_t> w1(kLanes + 1, kSentinel);
      run(seed, salt, first, event, lanes, w0.data(), w1.data());
      for (std::size_t i = 0; i < lanes; ++i) {
        const std::uint64_t k =
            hash_combine(seed, hash_combine(first + i, salt));
        const std::array<std::uint32_t, 4> b = Philox4x32::block(
            ctr, {static_cast<std::uint32_t>(k),
                  static_cast<std::uint32_t>(k >> 32)});
        ASSERT_EQ(w0[i], (std::uint64_t{b[0]} << 32) | b[1])
            << variant << ": lane " << i << " of " << lanes;
        ASSERT_EQ(w1[i], (std::uint64_t{b[2]} << 32) | b[3])
            << variant << ": lane " << i << " of " << lanes;
        CounterRng stream(seed, hash_combine(first + i, salt), event);
        ASSERT_EQ(stream(), w0[i]) << variant << ": lane " << i;
        ASSERT_EQ(stream(), w1[i]) << variant << ": lane " << i;
      }
      for (std::size_t i = lanes; i < w0.size(); ++i) {
        ASSERT_EQ(w0[i], kSentinel) << variant << ": lane " << i << " of "
                                    << lanes;
        ASSERT_EQ(w1[i], kSentinel) << variant << ": lane " << i << " of "
                                    << lanes;
      }
    }
  }
}

// The dispatched lane kernel (the variant this host runs). Past
// kPhiloxLanes streams, or with an output span shorter than the count, it
// refuses. The kernel draws block 0 only, so a counter's block-index words
// are always 0 here; the event words carry the high bits.
TEST(Philox, LanesMatchScalarBlock) {
  expect_lanes_match("dispatched",
                     [](std::uint64_t seed, std::uint64_t salt,
                        std::uint64_t first, std::uint64_t event,
                        std::size_t count, std::uint64_t* w0,
                        std::uint64_t* w1) {
                       philox_block0_lanes(seed, salt, first, event, count,
                                           {w0, kPhiloxLanes + 1},
                                           {w1, kPhiloxLanes + 1});
                     });
  std::vector<std::uint64_t> w0(kPhiloxLanes + 1), w1(kPhiloxLanes + 1);
  EXPECT_DEATH(philox_block0_lanes(1, 2, 3, 4, kPhiloxLanes + 1, w0, w1),
               "at most kPhiloxLanes");
  EXPECT_DEATH(philox_block0_lanes(1, 2, 3, 4, 8, {w0.data(), 7}, w1),
               "at most kPhiloxLanes");
}

// Every compiled variant this host's CPU can run, each against the scalar
// definitions, so a variant that disagrees is named even when the dispatch
// picks another. The portable variant is always compiled and always runs.
TEST(Philox, EveryLaneVariantMatchesScalarBlock) {
  const std::span<const PhiloxLaneVariant> variants = philox_lane_variants();
  ASSERT_FALSE(variants.empty());
  EXPECT_STREQ(variants[0].name, "portable");
  EXPECT_TRUE(variants[0].supported);
  for (const PhiloxLaneVariant& v : variants) {
    if (!v.supported) {
      std::printf("lane kernel variant %s: not supported by this CPU\n",
                  v.name);
      continue;
    }
    SCOPED_TRACE(v.name);
    expect_lanes_match(v.name, v.run);
  }
}

TEST(Dist, BoundedStaysInRangeAndHitsAll) {
  Xoshiro256 rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = bounded(rng, 7);
    ASSERT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Dist, BoundedIsUnbiasedApprox) {
  Xoshiro256 rng(4);
  const std::uint64_t kN = 5;
  std::uint64_t counts[5] = {};
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++counts[bounded(rng, kN)];
  for (const auto c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / kDraws, 0.2, 0.01);
  }
}

TEST(Dist, BernoulliFrequencies) {
  Xoshiro256 rng(5);
  const BernoulliDraw draw(0.3);
  int hits = 0;
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) hits += draw(rng) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kDraws, 0.3, 0.01);
}

TEST(Dist, BernoulliEdgeCases) {
  Xoshiro256 rng(6);
  const BernoulliDraw never(0.0);
  const BernoulliDraw always(1.0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(never(rng));
    EXPECT_TRUE(always(rng));
  }
}

TEST(Dist, TruncatedGeometricMatchesPaperPmf) {
  // P[i] = 2^-(i+1) for i in 1..k; P[0] = remainder.
  Xoshiro256 rng(7);
  const std::uint32_t k = 4;
  const int kDraws = 200000;
  std::uint64_t counts[8] = {};
  for (int i = 0; i < kDraws; ++i) {
    const std::uint32_t v = truncated_geometric(rng, k);
    ASSERT_LE(v, k);
    ++counts[v];
  }
  for (std::uint32_t i = 1; i <= k; ++i) {
    const double expect = std::pow(2.0, -(static_cast<double>(i) + 1));
    EXPECT_NEAR(static_cast<double>(counts[i]) / kDraws, expect, 0.01)
        << "i=" << i;
  }
  EXPECT_GT(static_cast<double>(counts[0]) / kDraws, 0.5);
}

TEST(Dist, DiscreteDrawMatchesPmf) {
  Xoshiro256 rng(8);
  const DiscreteDraw draw({0.5, 0.25, 0.25});
  const int kDraws = 100000;
  std::uint64_t counts[3] = {};
  for (int i = 0; i < kDraws; ++i) ++counts[draw(rng)];
  EXPECT_NEAR(static_cast<double>(counts[0]) / kDraws, 0.5, 0.01);
  EXPECT_NEAR(static_cast<double>(counts[1]) / kDraws, 0.25, 0.01);
  EXPECT_NEAR(draw.mean(), 0.75, 1e-12);
}

TEST(Dist, ExponentialMeanMatchesRate) {
  Xoshiro256 rng(9);
  double sum = 0;
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) sum += exponential(rng, 2.0);
  EXPECT_NEAR(sum / kDraws, 0.5, 0.01);
}

TEST(Dist, GeometricCapRespected) {
  Xoshiro256 rng(10);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LE(geometric(rng, 0.01, 5), 5u);
  }
}

}  // namespace
}  // namespace clb::rng
