// Property-based suites (parameterized gtest): invariants that must hold
// across sweeps of machine size, seeds, model parameters and protocol
// configurations.
#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <tuple>

#include "collision/collision.hpp"
#include "dist/dist_balancer.hpp"
#include "rng/dist.hpp"
#include "rng/xoshiro.hpp"
#include "core/threshold_balancer.hpp"
#include "models/geometric.hpp"
#include "models/multi.hpp"
#include "models/single.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace clb {
namespace {

// ---------------------------------------------------------------- FIFO ---
// Property: for any interleaving of push/pop/transfer, the queue behaves
// like an ideal FIFO deque (checked against std::deque).
class FifoProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FifoProperty, MatchesReferenceDeque) {
  const std::uint64_t seed = GetParam();
  rng::Xoshiro256 rng(seed);
  sim::FifoQueue q;
  std::deque<std::uint32_t> ref;
  std::uint32_t next_id = 0;
  for (int op = 0; op < 5000; ++op) {
    switch (rng::bounded(rng, 4)) {
      case 0:
      case 1: {  // push (biased so queues grow)
        q.push_back(sim::Task{next_id, 0});
        ref.push_back(next_id);
        ++next_id;
        break;
      }
      case 2: {
        if (!ref.empty()) {
          ASSERT_EQ(q.pop_front().birth_step, ref.front());
          ref.pop_front();
        }
        break;
      }
      case 3: {
        if (!ref.empty()) {
          ASSERT_EQ(q.pop_back().birth_step, ref.back());
          ref.pop_back();
        }
        break;
      }
    }
    ASSERT_EQ(q.size(), ref.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FifoProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ----------------------------------------------------------- collision ---
// Property: for any (a, b, c) with c(a-b) >= 2 and light request load, the
// protocol yields a valid assignment respecting both Figure 1 conditions.
class CollisionProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(CollisionProperty, ValidAssignmentUnderLightLoad) {
  const auto [a, b, c] = GetParam();
  const std::uint64_t n = 1 << 13;
  collision::CollisionGame game(
      n, {.a = static_cast<std::uint32_t>(a),
          .b = static_cast<std::uint32_t>(b),
          .c = static_cast<std::uint32_t>(c),
          .max_rounds = 24});
  std::vector<std::uint32_t> requesters;
  for (std::uint32_t i = 0; i < n / 128; ++i) {
    requesters.push_back(i * 128);
  }
  const auto out = game.run(requesters, 17);
  ASSERT_TRUE(out.valid) << "a=" << a << " b=" << b << " c=" << c;
  for (const auto& acc : out.accepted) {
    EXPECT_GE(acc.size(), static_cast<std::size_t>(b));
  }
  for (const auto& [proc, count] : out.per_proc_accepts) {
    EXPECT_LE(count, static_cast<std::uint32_t>(c));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, CollisionProperty,
    ::testing::Values(std::make_tuple(5, 2, 1), std::make_tuple(4, 2, 1),
                      std::make_tuple(6, 3, 1), std::make_tuple(5, 2, 2),
                      std::make_tuple(4, 1, 1), std::make_tuple(3, 1, 2)));

// ------------------------------------------------------- conservation ---
// Property: for every model and seed, generated = consumed + in-system, and
// the balanced system never loses or duplicates a task.
class ConservationProperty
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(ConservationProperty, TasksConserved) {
  const auto [model_id, seed] = GetParam();
  const std::uint64_t n = 1 << 10;
  std::unique_ptr<sim::LoadModel> model;
  double scale = 1.0;
  switch (model_id) {
    case 0: model = std::make_unique<models::SingleModel>(0.4, 0.1); break;
    case 1:
      model = std::make_unique<models::GeometricModel>(3);
      scale = 3.0;
      break;
    default:
      model = std::make_unique<models::MultiModel>(
          std::vector<double>{0.6, 0.25, 0.15});
      scale = 3.0;
      break;
  }
  core::ThresholdBalancer balancer(
      {.params = core::PhaseParams::from_n(n, {.scale = scale})});
  sim::Engine eng({.n = n, .seed = seed}, model.get(), &balancer);
  eng.run(1500);
  EXPECT_EQ(eng.total_generated(), eng.total_consumed() + eng.total_load());
  EXPECT_EQ(eng.clamped_transfers(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndSeeds, ConservationProperty,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values<std::uint64_t>(1, 42, 999)));

// ------------------------------------------------- threshold invariant ---
// Property: across fraction configurations, a processor that received a
// balancing transfer never exceeds light + transfer + (phase generation cap)
// at the end of the transfer step.
class ThresholdInvariantProperty
    : public ::testing::TestWithParam<double> {};  // heavy fraction

TEST_P(ThresholdInvariantProperty, ReceiversStayBelowHeavy) {
  const double heavy_frac = GetParam();
  const std::uint64_t n = 1 << 10;
  core::Fractions f;
  f.heavy = heavy_frac;
  const auto params = core::PhaseParams::from_n(n, f);
  models::SingleModel model(0.4, 0.1);
  core::ThresholdBalancer balancer({.params = params});
  sim::Engine eng({.n = n, .seed = 7}, &model, &balancer);
  for (int s = 0; s < 600; ++s) {
    eng.step_once();
    // Invariant: nobody can sit above heavy + transfer (a heavy sheds load,
    // a receiver was light) + 1 (this step's generation).
    EXPECT_LE(eng.step_max_load(),
              2 * params.heavy_threshold + params.transfer_amount + 1)
        << "step " << s;
  }
}

INSTANTIATE_TEST_SUITE_P(HeavyFractions, ThresholdInvariantProperty,
                         ::testing::Values(0.5, 0.625, 0.75));

// ----------------------------------------------------- phase determinism ---
// Property: phase statistics are identical across repeated runs for any
// seed (full replay determinism of the balancer + collision stack).
class DeterminismProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DeterminismProperty, PhaseStatsReplay) {
  const std::uint64_t seed = GetParam();
  const std::uint64_t n = 1 << 10;
  auto run = [&](std::uint64_t s) {
    models::SingleModel model(0.4, 0.1);
    core::ThresholdBalancer balancer(
        {.params = core::PhaseParams::from_n(n)});
    sim::Engine eng({.n = n, .seed = s}, &model, &balancer);
    eng.run(800);
    return std::make_tuple(eng.total_load(), eng.running_max_load(),
                           eng.messages().queries,
                           balancer.aggregate().heavy_per_phase.mean(),
                           balancer.aggregate().messages_per_phase.mean());
  };
  EXPECT_EQ(run(seed), run(seed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeterminismProperty,
                         ::testing::Values<std::uint64_t>(3, 17, 2026));

// -------------------------------------------------- execution variants ---
// Property: every execution variant of the threshold balancer (atomic,
// spread, streaming, preround, pruning — and their combinations) conserves
// tasks and keeps the max load within a small multiple of T.
class VariantProperty : public ::testing::TestWithParam<int> {};

TEST_P(VariantProperty, ConservativeAndBounded) {
  const int variant = GetParam();
  const std::uint64_t n = 1 << 10;
  auto params = core::PhaseParams::from_n(n);
  core::ThresholdBalancerConfig cfg{.params = params};
  switch (variant) {
    case 0: break;  // paper defaults
    case 1:
      cfg.params.phase_len = 4;
      cfg.execution = core::PhaseExecution::kSpread;
      break;
    case 2: cfg.streaming_transfers = true; break;
    case 3: cfg.one_shot_preround = true; break;
    case 4: cfg.prune_satisfied = true; break;
    case 5:
      cfg.params.phase_len = 8;
      cfg.execution = core::PhaseExecution::kSpread;
      cfg.streaming_transfers = true;
      cfg.one_shot_preround = true;
      cfg.prune_satisfied = true;
      break;
    default: break;
  }
  models::SingleModel model(0.4, 0.1);
  core::ThresholdBalancer balancer(cfg);
  sim::Engine eng({.n = n, .seed = 31}, &model, &balancer);
  eng.run(1500);
  EXPECT_EQ(eng.total_generated(), eng.total_consumed() + eng.total_load());
  EXPECT_LE(eng.running_max_load(), 3 * params.T);
}

INSTANTIATE_TEST_SUITE_P(Variants, VariantProperty,
                         ::testing::Values(0, 1, 2, 3, 4, 5));

// --------------------------------------------------- distributed sweep ---
// Property: the distributed protocol is conservative, never forces a phase
// end, and matches essentially every heavy, for any message latency.
class DistLatencyProperty : public ::testing::TestWithParam<int> {};

TEST_P(DistLatencyProperty, ConservativeAndMatching) {
  const auto latency = static_cast<std::uint32_t>(GetParam());
  const std::uint64_t n = 1 << 10;
  models::SingleModel model(0.4, 0.1);
  dist::DistThresholdBalancer balancer(
      {.params = core::PhaseParams::from_n(n), .latency = latency});
  sim::Engine eng({.n = n, .seed = 37}, &model, &balancer);
  eng.run(1500);
  EXPECT_EQ(eng.total_generated(), eng.total_consumed() + eng.total_load());
  const auto& st = balancer.stats();
  EXPECT_EQ(st.forced_phase_ends, 0u);
  if (st.matched + st.unmatched > 100) {
    EXPECT_GT(static_cast<double>(st.matched) /
                  static_cast<double>(st.matched + st.unmatched),
              0.98);
  }
}

INSTANTIATE_TEST_SUITE_P(Latencies, DistLatencyProperty,
                         ::testing::Values(1, 2, 3, 5, 8));

}  // namespace
}  // namespace clb
