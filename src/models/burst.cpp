#include "models/burst.hpp"

#include <algorithm>
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
                              std::span<const std::uint64_t>,
                              std::span<sim::StepAction> out) {
  // draw()'s streams, kPhiloxLanes processors at a time: block 0 of event
  // `step` under each processor's key, through the lane kernel. draw()
  // consumes the block's first word for the generate draw (hot: discarded;
  // cold with p_base >= 1: not drawn, so the consume draw takes it) and
  // the next word for the consume draw.
  constexpr std::size_t kLanes = rng::kPhiloxLanes;
  const bool burst = step % cfg_.period < cfg_.burst_len;
  // is_hot's offset (proc + n - start) % n, advanced one processor at a
  // time and wrapped at n.
  std::uint64_t offset = burst ? (first + n_ - hot_start(step)) % n_ : 0;
  std::uint64_t w0[kLanes], w1[kLanes];
  for (std::uint64_t done = 0; done < count; done += kLanes) {
    const std::size_t lanes = std::min<std::uint64_t>(kLanes, count - done);
    rng::philox_block0_lanes(seed, kSalt, first + done, step, lanes, w0, w1);
    for (std::size_t i = 0; i < lanes; ++i) {
      const bool hot = burst && offset < hot_count_;
      if (burst && ++offset == n_) offset = 0;
      out[done + i] = sim::StepAction{
          hot ? cfg_.burst_rate : (base_.hit(w0[i]) ? 1u : 0u),
          consume_.hit(!hot && base_.always() ? w0[i] : w1[i]) ? 1u : 0u};
    }
  }
}

double BurstModel::expected_load_per_processor() const {
  return std::numeric_limits<double>::quiet_NaN();
}

}  // namespace clb::models
