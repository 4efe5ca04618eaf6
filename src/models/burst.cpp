#include "models/burst.hpp"

#include <cmath>
#include <limits>

#include "rng/philox.hpp"
#include "rng/splitmix64.hpp"
#include "util/check.hpp"

namespace clb::models {

namespace {
constexpr std::uint64_t kSalt = 0x6275727374676EULL;  // "burstgn"
}  // namespace

BurstModel::BurstModel(BurstConfig cfg, std::uint64_t n)
    : cfg_(cfg), n_(n), base_(cfg.p_base), consume_(cfg.p_consume) {
  CLB_CHECK(cfg_.period >= 1 && cfg_.burst_len <= cfg_.period,
            "burst: burst_len <= period");
  CLB_CHECK(cfg_.hot_fraction > 0.0 && cfg_.hot_fraction <= 1.0,
            "burst: hot_fraction in (0,1]");
  hot_count_ = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::llround(
             cfg_.hot_fraction * static_cast<double>(n))));
}

std::uint64_t BurstModel::hot_start(std::uint64_t step) const {
  const std::uint64_t window = step / cfg_.period;
  return cfg_.rotate_hotspot ? (window * hot_count_) % n_ : 0;
}

bool BurstModel::is_hot(std::uint64_t proc, std::uint64_t step) const {
  if (step % cfg_.period >= cfg_.burst_len) return false;
  const std::uint64_t offset = (proc + n_ - hot_start(step)) % n_;
  return offset < hot_count_;
}

sim::StepAction BurstModel::draw(std::uint64_t seed, std::uint64_t proc,
                                 std::uint64_t step, bool hot) const {
  rng::CounterRng rng(seed, rng::hash_combine(proc, kSalt), step);
  sim::StepAction act;
  if (hot) {
    act.generate = cfg_.burst_rate;
    (void)rng();  // keep the consume lane aligned with the cold path
  } else {
    act.generate = base_(rng) ? 1 : 0;
  }
  act.consume = consume_(rng) ? 1 : 0;
  return act;
}

sim::StepAction BurstModel::step_action(std::uint64_t seed,
                                        std::uint64_t proc,
                                        std::uint64_t step, std::uint64_t,
                                        std::uint64_t) {
  return draw(seed, proc, step, is_hot(proc, step));
}

void BurstModel::step_actions(std::uint64_t seed, std::uint64_t first,
                              std::uint64_t count, std::uint64_t step,
                              std::span<const std::uint64_t>, std::uint64_t,
                              std::span<sim::StepAction> out) {
  if (step % cfg_.period >= cfg_.burst_len) {
    for (std::uint64_t i = 0; i < count; ++i) {
      out[i] = draw(seed, first + i, step, false);
    }
    return;
  }
  // is_hot's offset (proc + n - start) % n, advanced one processor at a
  // time and wrapped at n.
  std::uint64_t offset = (first + n_ - hot_start(step)) % n_;
  for (std::uint64_t i = 0; i < count; ++i) {
    out[i] = draw(seed, first + i, step, offset < hot_count_);
    if (++offset == n_) offset = 0;
  }
}

double BurstModel::expected_load_per_processor() const {
  return std::numeric_limits<double>::quiet_NaN();
}

}  // namespace clb::models
