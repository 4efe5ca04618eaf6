// Unit + statistical tests for clb::rng.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <set>
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

// The lane kernel is Philox4x32::block under each lane's key, with the key
// split the way CounterRng splits it: every lane count the kernel accepts,
// random keys, and counters whose high words are set (block index and
// event past 2^32). Past kLanes keys it refuses, and outputs past the lane
// count stay untouched.
TEST(Philox, LanesMatchScalarBlock) {
  constexpr std::size_t kLanes = Philox4x32::kLanes;
  Xoshiro256 rng(2024);
  const std::array<std::array<std::uint32_t, 4>, 4> counters = {{
      {0, 0, 0, 0},
      {7, 0, 0, 0},
      {0xFFFFFFFFu, 0x1u, 0x2u, 0x80000000u},
      {0x12345678u, 0x9ABCDEF0u, 0xFFFFFFFFu, 0xFFFFFFFFu},
  }};
  const std::array<std::uint32_t, 4> sentinel = {1, 2, 3, 4};
  for (const std::array<std::uint32_t, 4>& ctr : counters) {
    for (std::size_t lanes = 0; lanes <= kLanes; ++lanes) {
      std::vector<std::uint64_t> keys(lanes);
      for (std::uint64_t& k : keys) k = rng();
      std::vector<std::array<std::uint32_t, 4>> out(kLanes + 1, sentinel);
      Philox4x32::block_lanes(ctr, keys, out);
      for (std::size_t i = 0; i < lanes; ++i) {
        const std::array<std::uint32_t, 2> key = {
            static_cast<std::uint32_t>(keys[i]),
            static_cast<std::uint32_t>(keys[i] >> 32)};
        ASSERT_EQ(out[i], Philox4x32::block(ctr, key))
            << "lane " << i << " of " << lanes;
      }
      for (std::size_t i = lanes; i < out.size(); ++i) {
        ASSERT_EQ(out[i], sentinel) << "lane " << i << " of " << lanes;
      }
    }
  }
  // The same words CounterRng draws from block 0 of an event.
  const std::uint64_t event = (std::uint64_t{5} << 32) | 9;
  const std::uint64_t key = hash_combine(11, 3);
  std::array<std::uint32_t, 4> b[1];
  Philox4x32::block_lanes({static_cast<std::uint32_t>(event),
                           static_cast<std::uint32_t>(event >> 32), 0, 0},
                          {&key, 1}, b);
  CounterRng stream(11, 3, event);
  EXPECT_EQ(stream(), (std::uint64_t{b[0][0]} << 32) | b[0][1]);
  EXPECT_EQ(stream(), (std::uint64_t{b[0][2]} << 32) | b[0][3]);

  const std::vector<std::uint64_t> too_many(kLanes + 1, 1);
  std::vector<std::array<std::uint32_t, 4>> out(kLanes + 1);
  EXPECT_DEATH(Philox4x32::block_lanes({}, too_many, out), "at most kLanes");
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
