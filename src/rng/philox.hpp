// Philox4x32-10 counter-based RNG (Salmon et al., SC'11).
//
// A counter-based generator maps (key, counter) -> 128 random bits with no
// sequential state, which is exactly what a deterministic parallel simulator
// needs: the stream for processor p at step t is keyed by (seed, p) with
// counter t, so any thread can draw p's randomness without coordination and
// the simulation result is identical for every worker count.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "rng/splitmix64.hpp"

namespace clb::rng {

/// Raw Philox4x32-10 block function: 4x32 counter + 2x32 key -> 4x32 output.
struct Philox4x32 {
  static constexpr int kRounds = 10;
  static constexpr std::uint32_t kM0 = 0xD2511F53u;
  static constexpr std::uint32_t kM1 = 0xCD9E8D57u;
  static constexpr std::uint32_t kW0 = 0x9E3779B9u;  // golden ratio
  static constexpr std::uint32_t kW1 = 0xBB67AE85u;  // sqrt(3)-1

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
};

/// Streams per call of philox_block0_lanes.
inline constexpr std::size_t kPhiloxLanes = 64;

/// One compiled body of the lane kernel (rng/philox_lanes.cpp): its name,
/// whether this host's CPU can run it, and its entry point. `run` has
/// philox_block0_lanes' contract without the argument check.
struct PhiloxLaneVariant {
  using Fn = void (*)(std::uint64_t seed, std::uint64_t salt,
                      std::uint64_t first, std::uint64_t event,
                      std::size_t count, std::uint64_t* w0, std::uint64_t* w1);
  const char* name;
  bool supported;
  Fn run;
};

/// Every compiled variant, portable first, the rest in order of preference.
[[nodiscard]] std::span<const PhiloxLaneVariant> philox_lane_variants();

/// The first two words CounterRng draws from each of `count` consecutive
/// streams: for i < count <= kPhiloxLanes, w0[i] and w1[i] are the first and
/// second draw of CounterRng(seed, hash_combine(first + i, salt), event),
/// i.e. Philox block 0 of `event` under each stream's key. Outputs past
/// `count` are left untouched. One call draws a block of processors side by
/// side (models::BurstModel::step_actions); the last supported variant of
/// philox_lane_variants() runs it, chosen on the first call.
void philox_block0_lanes(std::uint64_t seed, std::uint64_t salt,
                         std::uint64_t first, std::uint64_t event,
                         std::size_t count, std::span<std::uint64_t> w0,
                         std::span<std::uint64_t> w1);

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
