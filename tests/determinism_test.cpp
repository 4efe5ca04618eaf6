// Replay determinism: the same seed and config must produce byte-identical
// results run after run. The engine keys all randomness on (seed, proc,
// step) via counter RNG, so nothing outside the config can leak into a
// result; these tests pin that contract through the obs metrics JSON
// export — the same artefact the bench harnesses and statcheck consume.
#include <gtest/gtest.h>

#include "clb.hpp"

namespace {

using namespace clb;

std::string engine_metrics_json(std::uint64_t seed) {
  models::SingleModel model(0.4, 0.1);
  core::ThresholdBalancer balancer(
      {.params = core::PhaseParams::from_n(512)});
  sim::Engine engine({.n = 512, .seed = seed}, &model, &balancer);
  engine.run(400);
  obs::MetricsRegistry m;
  obs::snapshot_engine(m, engine, "det.");
  m.counter("det.phase_messages") = balancer.aggregate().total_messages;
  m.counter("det.phases") = balancer.aggregate().phases;
  return m.to_json();
}

TEST(Determinism, EngineMetricsJsonIdenticalOnReplay) {
  EXPECT_EQ(engine_metrics_json(7), engine_metrics_json(7));
}

TEST(Determinism, DifferentSeedsActuallyDiffer) {
  // Guards the test above against vacuity (e.g. an export that ignores the
  // run entirely would also be "identical").
  EXPECT_NE(engine_metrics_json(7), engine_metrics_json(8));
}

TEST(Determinism, AllInAirImmediateModeIdenticalOnReplay) {
  const auto fingerprint = [] {
    models::SingleModel model(0.4, 0.1);
    baselines::AllInAirBalancer balancer;
    sim::Engine engine({.n = 256, .seed = 3}, &model, &balancer);
    engine.run(300);
    obs::MetricsRegistry m;
    obs::snapshot_engine(m, engine, "det.");
    return m.to_json();
  };
  EXPECT_EQ(fingerprint(), fingerprint());
}

TEST(Determinism, CollisionGameReplaysIdentically) {
  collision::CollisionConfig cfg{5, 2, 1, 0};
  std::vector<std::uint32_t> reqs;
  for (std::uint32_t p = 0; p < 96; p += 3) reqs.push_back(p);

  collision::CollisionGame g1(1024, cfg);
  collision::CollisionGame g2(1024, cfg);
  const auto o1 = g1.run(reqs, 99);
  const auto o2 = g2.run(reqs, 99);
  EXPECT_EQ(o1.valid, o2.valid);
  EXPECT_EQ(o1.rounds_used, o2.rounds_used);
  EXPECT_EQ(o1.query_messages, o2.query_messages);
  EXPECT_EQ(o1.accept_messages, o2.accept_messages);
  EXPECT_EQ(o1.accepted, o2.accepted);
  EXPECT_EQ(o1.per_proc_accepts, o2.per_proc_accepts);

  // A reused game (stamp-based scratch state) must behave like a fresh one.
  const auto o3 = g1.run(reqs, 99);
  EXPECT_EQ(o1.accepted, o3.accepted);
}

}  // namespace
