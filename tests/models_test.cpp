// Unit + statistical tests for the load generation models (§1.2).
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "models/adversarial.hpp"
#include "models/burst.hpp"
#include "models/diurnal.hpp"
#include "models/flash_crowd.hpp"
#include "models/geometric.hpp"
#include "models/hetero.hpp"
#include "models/multi.hpp"
#include "models/onoff.hpp"
#include "models/pareto.hpp"
#include "models/poisson_batch.hpp"
#include "models/single.hpp"
#include "models/trace.hpp"
#include "models/weighted.hpp"
#include "models/zipf.hpp"
#include "sim/engine.hpp"

namespace clb::models {
namespace {

TEST(Single, GenerationFrequencyMatchesP) {
  SingleModel m(0.4, 0.1);
  std::uint64_t generated = 0;
  const std::uint64_t kTrials = 100000;
  for (std::uint64_t i = 0; i < kTrials; ++i) {
    generated += m.step_action(1, i % 64, i / 64, 0, 0).generate;
  }
  EXPECT_NEAR(static_cast<double>(generated) / kTrials, 0.4, 0.01);
}

TEST(Single, ConsumptionFrequencyMatchesQ) {
  SingleModel m(0.4, 0.1);
  std::uint64_t consumed = 0;
  const std::uint64_t kTrials = 100000;
  for (std::uint64_t i = 0; i < kTrials; ++i) {
    consumed += m.step_action(1, i % 64, i / 64, 0, 0).consume;
  }
  EXPECT_NEAR(static_cast<double>(consumed) / kTrials, 0.5, 0.01);
}

TEST(Single, GenerationAndConsumptionIndependent) {
  SingleModel m(0.5, 0.25);
  std::uint64_t both = 0;
  const std::uint64_t kTrials = 100000;
  for (std::uint64_t i = 0; i < kTrials; ++i) {
    const auto act = m.step_action(1, i, 0, 0, 0);
    const bool g = act.generate > 0;
    const bool c = act.consume > 0;
    both += (g && c) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(both) / kTrials, 0.5 * 0.75, 0.01);
}

TEST(Single, DeterministicPerSeedProcStep) {
  SingleModel m(0.4, 0.1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(m.step_action(9, 5, 17, 0, 0).generate,
              m.step_action(9, 5, 17, 0, 0).generate);
  }
}

TEST(Single, ExpectedLoadMatchesChain) {
  SingleModel m(0.4, 0.1);
  // rho = 0.2/0.3; E[load] = rho/(1-rho) = 2.
  EXPECT_NEAR(m.expected_load_per_processor(), 2.0, 1e-9);
}

TEST(Single, RejectsBadParameters) {
  EXPECT_DEATH(SingleModel(0.0, 0.1), "p in");
  EXPECT_DEATH(SingleModel(0.5, 0.0), "eps");
  EXPECT_DEATH(SingleModel(0.9, 0.2), "eps");
}

TEST(Geometric, PmfMatchesPaper) {
  GeometricModel m(5);
  std::uint64_t counts[8] = {};
  const std::uint64_t kTrials = 200000;
  for (std::uint64_t i = 0; i < kTrials; ++i) {
    ++counts[m.step_action(1, i, 0, 0, 0).generate];
  }
  for (std::uint32_t i = 1; i <= 5; ++i) {
    const double expect = std::pow(2.0, -(static_cast<double>(i) + 1));
    EXPECT_NEAR(static_cast<double>(counts[i]) / kTrials, expect, 0.01);
  }
}

TEST(Geometric, MeanGeneratedBelowOne) {
  GeometricModel m(4);
  EXPECT_LT(m.mean_generated(), 1.0);
  EXPECT_GT(m.mean_generated(), 0.8);
  EXPECT_EQ(m.step_action(1, 0, 0, 0, 0).consume, 1u);
}

TEST(Geometric, StationaryPredictionMatchesSimulation) {
  GeometricModel m(4);
  const double predicted = m.expected_load_per_processor();
  sim::Engine eng({.n = 4096, .seed = 7}, &m, nullptr);
  eng.run(2500);
  const double measured = static_cast<double>(eng.total_load()) / 4096.0;
  EXPECT_NEAR(measured, predicted, 0.15 * predicted + 0.1);
}

TEST(Multi, StationaryPredictionMatchesSimulation) {
  MultiModel m({0.5, 0.3, 0.2});
  const double predicted = m.expected_load_per_processor();
  EXPECT_GT(predicted, 0.0);
  sim::Engine eng({.n = 4096, .seed = 8}, &m, nullptr);
  eng.run(2500);
  const double measured = static_cast<double>(eng.total_load()) / 4096.0;
  EXPECT_NEAR(measured, predicted, 0.15 * predicted + 0.1);
}

TEST(Multi, RespectsPmfAndMean) {
  MultiModel m({0.55, 0.3, 0.15});
  EXPECT_NEAR(m.mean_generated(), 0.6, 1e-9);
  std::uint64_t counts[3] = {};
  const std::uint64_t kTrials = 100000;
  for (std::uint64_t i = 0; i < kTrials; ++i) {
    const auto v = m.step_action(1, i, 0, 0, 0).generate;
    ASSERT_LT(v, 3u);
    ++counts[v];
  }
  EXPECT_NEAR(static_cast<double>(counts[1]) / kTrials, 0.3, 0.01);
}

TEST(Multi, RejectsSupercriticalMean) {
  EXPECT_DEATH(MultiModel({0.0, 0.0, 1.0}), "must be < 1");
}

TEST(Adversarial, RespectsGlobalCap) {
  AdversarialConfig cfg;
  cfg.cap = 100;
  cfg.p_spawn = 1.0;  // always branch
  cfg.p_seed = 1.0;   // always seed
  cfg.branch = 3;
  cfg.per_window_budget = 1000;
  AdversarialModel model(cfg, 64);
  sim::Engine eng({.n = 64, .seed = 5}, &model, nullptr);
  eng.run(50);
  EXPECT_LE(eng.total_load(), 100u);
}

TEST(Adversarial, RespectsPerWindowBudget) {
  AdversarialConfig cfg;
  cfg.cap = 1 << 20;
  cfg.p_spawn = 1.0;
  cfg.p_seed = 1.0;
  cfg.branch = 4;
  cfg.window = 8;
  cfg.per_window_budget = 8;
  AdversarialModel model(cfg, 4);
  sim::Engine eng({.n = 4, .seed = 5}, &model, nullptr);
  eng.run(8);  // exactly one window
  // Each proc generated at most 8 and consumed at most 8.
  for (std::uint64_t p = 0; p < 4; ++p) {
    EXPECT_LE(eng.processor(p).generated, 8u);
  }
}

TEST(Adversarial, SerialGenerationDeclared) {
  AdversarialModel model({}, 16);
  EXPECT_TRUE(model.serial_generation());
}

TEST(Burst, HotGroupGeneratesBurstRate) {
  BurstConfig cfg;
  cfg.period = 10;
  cfg.burst_len = 2;
  cfg.hot_fraction = 0.25;
  cfg.burst_rate = 5;
  cfg.rotate_hotspot = false;
  BurstModel m(cfg, 16);
  // Steps 0,1 are burst steps; procs 0..3 are hot.
  EXPECT_TRUE(m.is_hot(0, 0));
  EXPECT_TRUE(m.is_hot(3, 1));
  EXPECT_FALSE(m.is_hot(4, 0));
  EXPECT_FALSE(m.is_hot(0, 2));  // outside burst window
  EXPECT_EQ(m.step_action(1, 0, 0, 0, 0).generate, 5u);
}

TEST(PoissonBatch, MeanMatchesLambda) {
  PoissonBatchModel m(0.7);
  std::uint64_t total = 0;
  const std::uint64_t kTrials = 200000;
  for (std::uint64_t i = 0; i < kTrials; ++i) {
    total += m.step_action(1, i % 128, i / 128, 0, 0).generate;
  }
  EXPECT_NEAR(static_cast<double>(total) / kTrials, 0.7, 0.01);
}

TEST(PoissonBatch, VarianceMatchesPoisson) {
  PoissonBatchModel m(0.5);
  const std::uint64_t kTrials = 200000;
  double sum = 0, sumsq = 0;
  for (std::uint64_t i = 0; i < kTrials; ++i) {
    const double x = m.step_action(2, i % 128, i / 128, 0, 0).generate;
    sum += x;
    sumsq += x * x;
  }
  const double mean = sum / kTrials;
  const double var = sumsq / kTrials - mean * mean;
  EXPECT_NEAR(var, 0.5, 0.02);  // Poisson: variance == mean
}

TEST(PoissonBatch, RejectsSupercriticalLambda) {
  EXPECT_DEATH(PoissonBatchModel(1.2), "lambda");
}

TEST(OnOff, StationaryOnFraction) {
  OnOffConfig cfg;
  cfg.p_on_to_off = 0.05;
  cfg.p_off_to_on = 0.02;
  OnOffModel m(cfg, 4096);
  EXPECT_NEAR(m.on_fraction(), 0.02 / 0.07, 1e-12);
  // Drive the chain and compare the empirical ON fraction at equilibrium.
  for (std::uint64_t step = 0; step < 400; ++step) {
    for (std::uint64_t p = 0; p < 4096; ++p) {
      (void)m.step_action(3, p, step, 0, 0);
    }
  }
  std::uint64_t on = 0;
  for (std::uint64_t p = 0; p < 4096; ++p) on += m.is_on(p) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(on) / 4096.0, m.on_fraction(), 0.05);
}

TEST(OnOff, GeneratesOnlyWhenOn) {
  OnOffConfig cfg;
  cfg.p_on = 1.0;  // ON processors always generate
  cfg.p_on_to_off = 0.2;
  cfg.p_off_to_on = 0.2;
  cfg.p_consume = 0.9;
  OnOffModel m(cfg, 64);
  for (std::uint64_t step = 0; step < 200; ++step) {
    for (std::uint64_t p = 0; p < 64; ++p) {
      const bool was_on = step == 0 ? true : m.is_on(p);
      const auto act = m.step_action(4, p, step, 0, 0);
      if (step > 0 && !was_on) {
        EXPECT_EQ(act.generate, 0u);
      }
    }
  }
}

TEST(OnOff, RejectsUnstableConfig) {
  OnOffConfig cfg;
  cfg.p_on = 0.9;
  cfg.p_consume = 0.3;
  cfg.p_on_to_off = 0.01;
  cfg.p_off_to_on = 0.5;  // almost always ON -> rate ~0.88 > 0.3
  EXPECT_DEATH(OnOffModel(cfg, 16), "below consumption");
}

TEST(OnOff, StableUnderEngine) {
  OnOffConfig cfg;  // defaults: rate = 0.8 * 2/7 = 0.23 < 0.5
  OnOffModel m(cfg, 512);
  sim::Engine eng({.n = 512, .seed = 5}, &m, nullptr);
  eng.run(2000);
  EXPECT_LT(static_cast<double>(eng.total_load()) / 512.0, 6.0);
  EXPECT_EQ(eng.total_generated(), eng.total_consumed() + eng.total_load());
}

TEST(Burst, RotationMovesHotGroup) {
  BurstConfig cfg;
  cfg.period = 10;
  cfg.burst_len = 1;
  cfg.hot_fraction = 0.25;
  cfg.rotate_hotspot = true;
  BurstModel m(cfg, 16);
  EXPECT_TRUE(m.is_hot(0, 0));
  EXPECT_TRUE(m.is_hot(4, 10));   // window 1 starts at proc 4
  EXPECT_FALSE(m.is_hot(0, 10));
}

// ---------------------------------------------------------------------------
// LoadModel::step_actions (the runtime's batched draw) against step_action
// (the engine's per-processor draw). Two instances of each model see the
// same calls in the same order, so stateful models (on-off, adversarial)
// compare too.
// ---------------------------------------------------------------------------

using Range = std::pair<std::uint64_t, std::uint64_t>;  // [first, first+count)
using Ranges = std::function<std::vector<Range>(std::uint64_t step)>;
using Make = std::function<std::unique_ptr<sim::LoadModel>()>;

/// Draws every range of steps [first_step, first_step + steps) through
/// step_actions on one instance and step_action on the other;
/// `ranges(step)` must tile [0, n) in order.
void expect_batched_draw_matches(const Make& make, std::uint64_t n,
                                 std::uint64_t steps, const Ranges& ranges,
                                 std::uint64_t first_step = 0) {
  const std::unique_ptr<sim::LoadModel> batched = make();
  const std::unique_ptr<sim::LoadModel> single = make();
  constexpr std::uint64_t kSeed = 77;
  std::vector<std::uint64_t> loads(n);
  for (std::uint64_t step = first_step; step < first_step + steps; ++step) {
    for (std::uint64_t p = 0; p < n; ++p) loads[p] = (p * 7 + step * 3) % 11;
    std::uint64_t next = 0;
    for (const auto& [first, count] : ranges(step)) {
      ASSERT_EQ(first, next) << batched->name() << ": ranges must tile";
      next = first + count;
      std::vector<sim::StepAction> out(count);
      batched->step_actions(kSeed, first, count, step,
                            {loads.data() + first, count}, out);
      for (std::uint64_t i = 0; i < count; ++i) {
        const std::uint64_t p = first + i;
        const sim::StepAction want =
            single->step_action(kSeed, p, step, loads[p], 0);
        ASSERT_EQ(out[i].generate, want.generate)
            << batched->name() << " proc " << p << " step " << step;
        ASSERT_EQ(out[i].consume, want.consume)
            << batched->name() << " proc " << p << " step " << step;
        ASSERT_EQ(out[i].weight, want.weight)
            << batched->name() << " proc " << p << " step " << step;
      }
    }
    ASSERT_EQ(next, n) << batched->name() << ": ranges must tile";
  }
}

/// Random tilings of [0, n): block sizes 1..300, fresh per step.
Ranges random_ranges(std::uint64_t n) {
  return [n](std::uint64_t step) {
    std::mt19937_64 rng(step * 1000003 + n);
    std::vector<Range> r;
    for (std::uint64_t first = 0; first < n;) {
      const std::uint64_t count = std::min<std::uint64_t>(n - first,
                                                          1 + rng() % 300);
      r.emplace_back(first, count);
      first += count;
    }
    return r;
  };
}

constexpr std::uint64_t kZooN = 700;

TEST(BatchedDraw, EveryModelMatchesPerProcessorDraws) {
  const std::vector<Make> all = {
      [] {
        AdversarialConfig ac;
        ac.cap = 4 * kZooN;
        return std::make_unique<AdversarialModel>(ac, kZooN);
      },
      [] { return std::make_unique<BurstModel>(BurstConfig{}, kZooN); },
      [] {
        DiurnalConfig dc;
        dc.proc_skew = 1.0 / kZooN;
        return std::make_unique<DiurnalModel>(dc);
      },
      [] {
        return std::make_unique<FlashCrowdModel>(FlashCrowdConfig{}, kZooN);
      },
      [] { return std::make_unique<GeometricModel>(4); },
      [] { return std::make_unique<HeteroModel>(HeteroConfig{}); },
      [] {
        return std::make_unique<MultiModel>(std::vector<double>{0.6, 0.2, 0.2});
      },
      [] { return std::make_unique<OnOffModel>(OnOffConfig{}, kZooN); },
      [] { return std::make_unique<ParetoModel>(ParetoConfig{}); },
      [] { return std::make_unique<PoissonBatchModel>(0.5); },
      [] { return std::make_unique<SingleModel>(0.4, 0.1); },
      [] {
        std::vector<std::vector<std::uint32_t>> gen(8), con(8);
        for (std::uint32_t s = 0; s < 8; ++s) {
          for (std::uint32_t p = 0; p < kZooN; ++p) {
            gen[s].push_back((p + s) % 3);
            con[s].push_back((p * s) % 2);
          }
        }
        return std::make_unique<TraceModel>(std::move(gen), std::move(con));
      },
      [] {
        return std::make_unique<WeightedSingleModel>(
            0.4, 0.1, std::vector<double>{0.5, 0.25, 0.15, 0.1});
      },
      [] {
        ZipfConfig zc;
        zc.rotate_period = 5;
        return std::make_unique<ZipfModel>(zc, kZooN);
      },
  };
  EXPECT_EQ(all.size(), 14u);  // one per model in src/models
  for (const Make& make : all) {
    expect_batched_draw_matches(make, kZooN, 40, random_ranges(kZooN));
  }
}

// BurstModel's override steps the hot offset instead of recomputing it:
// pin the edges. n = 100 with 30 hot processors rotating by 30 per window
// puts window 3's hot group at 90..99 then 0..19, so the group wraps
// n - 1 -> 0 and the offset wraps at processor 90; windows are 8 steps
// with a 3-step burst, so step 24 is the first and step 26 the last burst
// step of window 3, and step 27 the first cold one.
constexpr std::uint64_t kBurstN = 100;

TEST(BatchedDraw, BurstEdgesAcrossTheRotationWrapAndWindowEnds) {
  constexpr std::uint64_t n = kBurstN;
  for (const bool rotate : {true, false}) {
    BurstConfig bc;
    bc.period = 8;
    bc.burst_len = 3;
    bc.hot_fraction = 0.3;
    bc.burst_rate = 5;
    bc.rotate_hotspot = rotate;
    const Make make = [bc] {
      return std::make_unique<BurstModel>(bc, kBurstN);
    };
    const BurstModel probe(bc, n);
    if (rotate) {
      ASSERT_TRUE(probe.is_hot(99, 24) && probe.is_hot(0, 24) &&
                  probe.is_hot(19, 24) && !probe.is_hot(20, 24) &&
                  probe.is_hot(90, 24) && !probe.is_hot(89, 24));
      ASSERT_TRUE(probe.is_hot(90, 26) && !probe.is_hot(90, 27));
    }
    // Blocks cut at the hot group's edges and around the wrap.
    const std::vector<Ranges> tilings = {
        [](std::uint64_t) {
          return std::vector<Range>{{0, 1},  {1, 18}, {19, 2}, {21, 68},
                                    {89, 2}, {91, 8}, {99, 1}};
        },
        [](std::uint64_t) { return std::vector<Range>{{0, kBurstN}}; },
        [](std::uint64_t) {
          return std::vector<Range>{{0, 25}, {25, 60}, {85, 15}};
        },
        random_ranges(n),
    };
    for (const Ranges& ranges : tilings) {
      expect_batched_draw_matches(make, n, 40, ranges);
    }
  }
}

// BurstModel's override maps the lane kernel's words to draws itself, so
// every config that changes which word a draw takes is pinned here: p = 0
// and p = 1 on either draw (p_base = 1 draws no generate word, so the
// consume draw takes the first word), every processor hot, a fixed hot
// group, a window that is all burst or never burst, a hot group that wraps
// at n, and steps past 2^32 (the counter's high word).
TEST(BatchedDraw, BurstEdgeConfigs) {
  constexpr std::uint64_t n = kBurstN;
  std::vector<BurstConfig> configs;
  for (const double p_base : {0.0, 0.2, 1.0}) {
    for (const double p_consume : {0.0, 0.5, 1.0}) {
      BurstConfig bc;
      bc.p_base = p_base;
      bc.p_consume = p_consume;
      bc.period = 8;
      bc.burst_len = 3;
      configs.push_back(bc);
    }
  }
  BurstConfig all_hot;
  all_hot.hot_fraction = 1.0;
  all_hot.period = 4;
  all_hot.burst_len = 2;
  configs.push_back(all_hot);
  BurstConfig fixed = all_hot;
  fixed.hot_fraction = 0.25;
  fixed.rotate_hotspot = false;
  configs.push_back(fixed);
  BurstConfig always = fixed;
  always.burst_len = always.period;
  always.rotate_hotspot = true;
  configs.push_back(always);
  BurstConfig never = always;
  never.burst_len = 0;
  configs.push_back(never);
  // 37 hot processors rotating by 37 per 2-step window: window 2's group is
  // 74..99 then 0..10, and the rotation start keeps moving across the wrap.
  BurstConfig wrap;
  wrap.period = 2;
  wrap.burst_len = 1;
  wrap.hot_fraction = 0.37;
  wrap.p_base = 1.0;
  configs.push_back(wrap);
  ASSERT_TRUE(BurstModel(wrap, n).is_hot(99, 4) &&
              BurstModel(wrap, n).is_hot(10, 4) &&
              !BurstModel(wrap, n).is_hot(11, 4));
  for (const BurstConfig& bc : configs) {
    const Make make = [bc] {
      return std::make_unique<BurstModel>(bc, kBurstN);
    };
    for (const std::uint64_t first_step :
         {std::uint64_t{0}, (std::uint64_t{1} << 32) - 20,
          (std::uint64_t{7} << 32) + 3}) {
      expect_batched_draw_matches(make, n, 40, random_ranges(n), first_step);
    }
  }
}

}  // namespace
}  // namespace clb::models
