// The Philox lane kernel (rng/philox.hpp, philox_block0_lanes): one body,
// compiled once portable and, on x86-64, once more for AVX-512; the host CPU
// picks the variant on the first call.
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "rng/philox.hpp"
#include "rng/splitmix64.hpp"
#include "util/check.hpp"

namespace clb::rng {

namespace {

constexpr std::size_t kLanes = kPhiloxLanes;

// Everything runs over structure-of-arrays lanes with fixed trip counts, so
// each loop is one vector loop: the key derivation (SplitMix64 finalisers,
// 64x64 multiplies), then the ten Philox rounds with the round loop outside
// the lane loop (each 32x32->64 multiply a widening vector multiply), then
// the words. Padding lanes past `count` compute streams nobody reads.
// Inlined into each variant below, so each compiles it for its own target.
[[gnu::always_inline]] inline void block0_lanes_body(
    std::uint64_t seed, std::uint64_t salt, std::uint64_t first,
    std::uint64_t event, std::size_t count, std::uint64_t* w0,
    std::uint64_t* w1) {
  std::uint32_t k0[kLanes], k1[kLanes];
  for (std::size_t i = 0; i < kLanes; ++i) {
    const std::uint64_t key = hash_combine(seed, hash_combine(first + i, salt));
    k0[i] = static_cast<std::uint32_t>(key);
    k1[i] = static_cast<std::uint32_t>(key >> 32);
  }
  // Block 0 of `event`: CounterRng's counter {event lo, event hi, 0, 0}.
  std::uint32_t x0[kLanes], x1[kLanes], x2[kLanes], x3[kLanes];
  for (std::size_t i = 0; i < kLanes; ++i) {
    x0[i] = static_cast<std::uint32_t>(event);
    x1[i] = static_cast<std::uint32_t>(event >> 32);
    x2[i] = 0;
    x3[i] = 0;
  }
  std::uint32_t rk0 = 0, rk1 = 0;  // the round's key bump, as block() adds it
  for (int round = 0; round < Philox4x32::kRounds; ++round) {
    for (std::size_t i = 0; i < kLanes; ++i) {
      const std::uint64_t p0 = std::uint64_t{Philox4x32::kM0} * x0[i];
      const std::uint64_t p1 = std::uint64_t{Philox4x32::kM1} * x2[i];
      const auto hi0 = static_cast<std::uint32_t>(p0 >> 32);
      const auto hi1 = static_cast<std::uint32_t>(p1 >> 32);
      x0[i] = hi1 ^ x1[i] ^ (k0[i] + rk0);
      x1[i] = static_cast<std::uint32_t>(p1);
      x2[i] = hi0 ^ x3[i] ^ (k1[i] + rk1);
      x3[i] = static_cast<std::uint32_t>(p0);
    }
    rk0 += Philox4x32::kW0;
    rk1 += Philox4x32::kW1;
  }
  for (std::size_t i = 0; i < count; ++i) {
    w0[i] = (std::uint64_t{x0[i]} << 32) | x1[i];
    w1[i] = (std::uint64_t{x2[i]} << 32) | x3[i];
  }
}

void block0_lanes_portable(std::uint64_t seed, std::uint64_t salt,
                           std::uint64_t first, std::uint64_t event,
                           std::size_t count, std::uint64_t* w0,
                           std::uint64_t* w1) {
  block0_lanes_body(seed, salt, first, event, count, w0, w1);
}

#if defined(__x86_64__)
// avx512dq brings the 64-bit lane multiply the key finalisers need; vl and
// bw let the narrower loops use the same instruction set.
[[gnu::target("avx512f,avx512dq,avx512vl,avx512bw")]] void block0_lanes_avx512(
    std::uint64_t seed, std::uint64_t salt, std::uint64_t first,
    std::uint64_t event, std::size_t count, std::uint64_t* w0,
    std::uint64_t* w1) {
  block0_lanes_body(seed, salt, first, event, count, w0, w1);
}

bool host_has_avx512() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512dq") &&
         __builtin_cpu_supports("avx512vl") &&
         __builtin_cpu_supports("avx512bw");
}
#endif

}  // namespace

std::span<const PhiloxLaneVariant> philox_lane_variants() {
  static const std::array kVariants = {
      PhiloxLaneVariant{"portable", true, &block0_lanes_portable},
#if defined(__x86_64__)
      PhiloxLaneVariant{"avx512", host_has_avx512(), &block0_lanes_avx512},
#endif
  };
  return kVariants;
}

void philox_block0_lanes(std::uint64_t seed, std::uint64_t salt,
                         std::uint64_t first, std::uint64_t event,
                         std::size_t count, std::span<std::uint64_t> w0,
                         std::span<std::uint64_t> w1) {
  CLB_CHECK(count <= kPhiloxLanes && w0.size() >= count && w1.size() >= count,
            "philox_block0_lanes: at most kPhiloxLanes streams, one output "
            "word pair each");
  // The last variant the host supports; the table lists them by preference.
  static const PhiloxLaneVariant::Fn run = [] {
    PhiloxLaneVariant::Fn best = nullptr;
    for (const PhiloxLaneVariant& v : philox_lane_variants()) {
      if (v.supported) best = v.run;
    }
    return best;
  }();
  run(seed, salt, first, event, count, w0.data(), w1.data());
}

}  // namespace clb::rng
