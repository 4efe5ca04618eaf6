// Bursty hot-spot model (not from the paper; used by the examples and the
// robustness tests): a baseline Single-like trickle everywhere, plus
// periodic bursts during which a contiguous group of "hot" processors
// generates several tasks per step. Stresses the threshold trigger with
// correlated, localized overload — the scenario the paper's introduction
// motivates (tasks generated together on one processor).
#pragma once

#include "rng/dist.hpp"
#include "sim/model.hpp"

namespace clb::models {

struct BurstConfig {
  double p_base = 0.2;          // baseline generation probability
  double p_consume = 0.5;       // consumption probability
  std::uint64_t period = 64;    // steps between burst windows
  std::uint64_t burst_len = 4;  // burst window length in steps
  double hot_fraction = 0.05;   // fraction of processors that are hot
  std::uint32_t burst_rate = 3; // tasks per step on hot processors in bursts
  bool rotate_hotspot = true;   // move the hot group every period
};

class BurstModel final : public sim::LoadModel {
 public:
  BurstModel(BurstConfig cfg, std::uint64_t n);

  [[nodiscard]] std::string name() const override { return "burst"; }

  sim::StepAction step_action(std::uint64_t seed, std::uint64_t proc,
                              std::uint64_t step, std::uint64_t load,
                              std::uint64_t system_load) override;
  /// One window test and one rotation start per call; the hot offset then
  /// steps with the processor instead of being recomputed, and the Philox
  /// blocks come from the lane kernel (rng::philox_block0_lanes),
  /// kPhiloxLanes processors at a time.
  void step_actions(std::uint64_t seed, std::uint64_t first,
                    std::uint64_t count, std::uint64_t step,
                    std::span<const std::uint64_t> loads,
                    std::span<sim::StepAction> out) override;

  [[nodiscard]] double expected_load_per_processor() const override;

  /// True iff `proc` is in the hot group at `step` (exposed for tests).
  [[nodiscard]] bool is_hot(std::uint64_t proc, std::uint64_t step) const;

 private:
  /// First processor of the hot group during the window `step` is in.
  [[nodiscard]] std::uint64_t hot_start(std::uint64_t step) const;
  /// The draw for one processor, given whether it is hot.
  [[nodiscard]] sim::StepAction draw(std::uint64_t seed, std::uint64_t proc,
                                     std::uint64_t step, bool hot) const;

  BurstConfig cfg_;
  std::uint64_t n_;
  std::uint64_t hot_count_;
  rng::BernoulliDraw base_;
  rng::BernoulliDraw consume_;
};

}  // namespace clb::models
