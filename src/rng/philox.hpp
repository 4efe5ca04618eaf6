// Philox4x32-10 counter-based RNG (Salmon et al., SC'11).
//
// A counter-based generator maps (key, counter) -> 128 random bits with no
// sequential state, which is exactly what a deterministic parallel simulator
// needs: the stream for processor p at step t is keyed by (seed, p) with
// counter t, so any thread can draw p's randomness without coordination and
// the simulation result is identical for every worker count.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "rng/splitmix64.hpp"
#include "util/check.hpp"

namespace clb::rng {

/// Raw Philox4x32-10 block function: 4x32 counter + 2x32 key -> 4x32 output.
struct Philox4x32 {
  static constexpr int kRounds = 10;
  static constexpr std::uint32_t kM0 = 0xD2511F53u;
  static constexpr std::uint32_t kM1 = 0xCD9E8D57u;
  static constexpr std::uint32_t kW0 = 0x9E3779B9u;  // golden ratio
  static constexpr std::uint32_t kW1 = 0xBB67AE85u;  // sqrt(3)-1
  /// Lanes per pass of block_lanes.
  static constexpr std::size_t kLanes = 64;

  static std::array<std::uint32_t, 4> block(std::array<std::uint32_t, 4> ctr,
                                            std::array<std::uint32_t, 2> key) {
    for (int round = 0; round < kRounds; ++round) {
      const std::uint64_t p0 = static_cast<std::uint64_t>(kM0) * ctr[0];
      const std::uint64_t p1 = static_cast<std::uint64_t>(kM1) * ctr[2];
      const auto hi0 = static_cast<std::uint32_t>(p0 >> 32);
      const auto lo0 = static_cast<std::uint32_t>(p0);
      const auto hi1 = static_cast<std::uint32_t>(p1 >> 32);
      const auto lo1 = static_cast<std::uint32_t>(p1);
      ctr = {hi1 ^ ctr[1] ^ key[0], lo1, hi0 ^ ctr[3] ^ key[1], lo0};
      key[0] += kW0;
      key[1] += kW1;
    }
    return ctr;
  }

  /// block(ctr, key) for up to kLanes keys under one shared counter:
  /// out[i] = block(ctr, {low word of keys[i], high word}), the key split
  /// CounterRng uses. One counter-based draw per processor is independent
  /// of every other, so the lanes run side by side: the lane loop is outer,
  /// over structure-of-arrays keys with a fixed trip count (the padding
  /// lanes compute a block nobody reads), and block()'s round loop runs
  /// inside it. gcc 12 at -O2 vectorises that lane loop, each 32x32->64
  /// multiply a widening vector multiply; it refuses the same loop with the
  /// ten rounds written out.
  static void block_lanes(std::array<std::uint32_t, 4> ctr,
                          std::span<const std::uint64_t> keys,
                          std::span<std::array<std::uint32_t, 4>> out) {
    CLB_CHECK(keys.size() <= kLanes && out.size() >= keys.size(),
              "block_lanes: at most kLanes keys, one output each");
    std::uint32_t k0[kLanes] = {}, k1[kLanes] = {};
    for (std::size_t i = 0; i < keys.size(); ++i) {
      k0[i] = static_cast<std::uint32_t>(keys[i]);
      k1[i] = static_cast<std::uint32_t>(keys[i] >> 32);
    }
    std::array<std::uint32_t, 4> x[kLanes];
    for (std::size_t i = 0; i < kLanes; ++i) x[i] = block(ctr, {k0[i], k1[i]});
    std::copy_n(x, keys.size(), out.begin());
  }
};

/// UniformRandomBitGenerator over Philox blocks for a fixed (key, counter)
/// pair: yields two u64 per block, then bumps an internal block index.
///
/// Typical simulator use:
///   CounterRng rng(seed, processor_id, step);
///   if (draw_bernoulli(rng, p)) ...
class CounterRng {
 public:
  using result_type = std::uint64_t;

  /// Key = mix(seed, stream); counter = (event, block-index).
  CounterRng(std::uint64_t seed, std::uint64_t stream, std::uint64_t event = 0)
      : event_(event) {
    const std::uint64_t k = hash_combine(seed, stream);
    key_ = {static_cast<std::uint32_t>(k), static_cast<std::uint32_t>(k >> 32)};
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  /// Re-positions the stream at a new event (e.g. time step); subsequent
  /// draws are a deterministic function of (seed, stream, event).
  void set_event(std::uint64_t event) {
    event_ = event;
    block_ = 0;
    have_second_ = false;
  }

  result_type operator()() {
    if (have_second_) {
      have_second_ = false;
      return second_;
    }
    const std::array<std::uint32_t, 4> ctr = {
        static_cast<std::uint32_t>(event_),
        static_cast<std::uint32_t>(event_ >> 32),
        static_cast<std::uint32_t>(block_),
        static_cast<std::uint32_t>(block_ >> 32)};
    const auto out = Philox4x32::block(ctr, key_);
    ++block_;
    second_ = (static_cast<std::uint64_t>(out[2]) << 32) | out[3];
    have_second_ = true;
    return (static_cast<std::uint64_t>(out[0]) << 32) | out[1];
  }

 private:
  std::array<std::uint32_t, 2> key_{};
  std::uint64_t event_ = 0;
  std::uint64_t block_ = 0;
  std::uint64_t second_ = 0;
  bool have_second_ = false;
};

}  // namespace clb::rng
