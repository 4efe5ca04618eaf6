// Unit tests for clb::sim — FIFO queue semantics, engine stepping,
// transfers, counters, determinism across runs.
#include <gtest/gtest.h>

#include "models/single.hpp"
#include "models/trace.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace clb::sim {
namespace {

Task mk(std::uint32_t birth, std::uint32_t origin) {
  return Task{birth, origin};
}

TEST(FifoQueue, PushPopOrder) {
  FifoQueue q;
  for (std::uint32_t i = 0; i < 100; ++i) q.push_back(mk(i, 0));
  EXPECT_EQ(q.size(), 100u);
  for (std::uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(q.pop_front().birth_step, i);
  }
  EXPECT_TRUE(q.empty());
}

TEST(FifoQueue, GrowPreservesOrderAcrossWrap) {
  FifoQueue q;
  // Interleave pushes/pops so head wraps before growth.
  for (std::uint32_t i = 0; i < 6; ++i) q.push_back(mk(i, 0));
  for (std::uint32_t i = 0; i < 5; ++i) (void)q.pop_front();
  for (std::uint32_t i = 6; i < 40; ++i) q.push_back(mk(i, 0));
  for (std::uint32_t i = 5; i < 40; ++i) {
    ASSERT_EQ(q.pop_front().birth_step, i);
  }
}

TEST(FifoQueue, BackAndPopBack) {
  FifoQueue q;
  q.push_back(mk(1, 0));
  q.push_back(mk(2, 0));
  EXPECT_EQ(q.back().birth_step, 2u);
  EXPECT_EQ(q.pop_back().birth_step, 2u);
  EXPECT_EQ(q.back().birth_step, 1u);
}

TEST(FifoQueue, TransferTakesNewestPreservingOrder) {
  FifoQueue a, b;
  for (std::uint32_t i = 0; i < 10; ++i) a.push_back(mk(i, 7));
  b.push_back(mk(100, 3));
  // Move the 4 newest (6,7,8,9) to the back of b, keeping their order.
  b.append_from_back_of(a, 4);
  EXPECT_EQ(a.size(), 6u);
  EXPECT_EQ(b.size(), 5u);
  EXPECT_EQ(a.back().birth_step, 5u);
  EXPECT_EQ(b.at(0).birth_step, 100u);
  EXPECT_EQ(b.at(1).birth_step, 6u);
  EXPECT_EQ(b.at(4).birth_step, 9u);
}

TEST(FifoQueue, TransferWholeQueue) {
  FifoQueue a, b;
  for (std::uint32_t i = 0; i < 5; ++i) a.push_back(mk(i, 0));
  b.append_from_back_of(a, 5);
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(b.size(), 5u);
  EXPECT_EQ(b.at(0).birth_step, 0u);
}

// --- Engine with a scripted trace model --------------------------------

TEST(Engine, TraceGenerationAndConsumption) {
  // 3 procs; step 0: proc0 generates 3; step 1: proc0 consumes 2.
  models::TraceModel model({{3, 0, 0}, {0, 0, 0}},
                           {{0, 0, 0}, {2, 0, 0}});
  Engine eng({.n = 3, .seed = 1}, &model, nullptr);
  eng.step_once();
  EXPECT_EQ(eng.load(0), 3u);
  EXPECT_EQ(eng.total_load(), 3u);
  EXPECT_EQ(eng.step_max_load(), 3u);
  eng.step_once();
  EXPECT_EQ(eng.load(0), 1u);
  EXPECT_EQ(eng.total_consumed(), 2u);
  EXPECT_EQ(eng.running_max_load(), 3u);
}

TEST(Engine, ConsumptionClampedByQueue) {
  models::TraceModel model({{1}}, {{5}});
  Engine eng({.n = 1, .seed = 1}, &model, nullptr);
  eng.step_once();
  EXPECT_EQ(eng.load(0), 0u);
  EXPECT_EQ(eng.total_consumed(), 1u);  // only the generated task existed
}

TEST(Engine, SameStepGenerationConsumable) {
  // The paper's chain semantics: a task generated this step can be consumed
  // this step (gain prob p(1-q)).
  models::TraceModel model({{1}}, {{1}});
  Engine eng({.n = 1, .seed = 1}, &model, nullptr);
  eng.step_once();
  EXPECT_EQ(eng.load(0), 0u);
}

// A balancer that moves 2 tasks from proc 0 to proc 1 at step 1.
class OneShotMover final : public Balancer {
 public:
  [[nodiscard]] std::string name() const override { return "mover"; }
  void on_step(Engine& eng) override {
    if (eng.step() == 1) eng.schedule_transfer(0, 1, 2);
  }
};

TEST(Engine, TransfersMoveBackOfQueue) {
  models::TraceModel model({{4, 0}}, {{}});
  OneShotMover mover;
  Engine eng({.n = 2, .seed = 1}, &model, &mover);
  eng.run(2);
  EXPECT_EQ(eng.load(0), 2u);
  EXPECT_EQ(eng.load(1), 2u);
  EXPECT_EQ(eng.messages().transfers, 1u);
  EXPECT_EQ(eng.messages().tasks_moved, 2u);
  EXPECT_EQ(eng.processor(0).tasks_sent, 2u);
  EXPECT_EQ(eng.processor(1).tasks_received, 2u);
}

TEST(Engine, OversizedTransferClamps) {
  models::TraceModel model({{1, 0}}, {{}});
  OneShotMover mover;  // asks for 2, only 1 present
  Engine eng({.n = 2, .seed = 1}, &model, &mover);
  eng.run(2);
  EXPECT_EQ(eng.load(0), 0u);
  EXPECT_EQ(eng.load(1), 1u);
  EXPECT_EQ(eng.clamped_transfers(), 1u);
}

TEST(Engine, LocalityTracksOrigin) {
  // proc0 generates 4 tasks; 2 move to proc1; both consume everything.
  models::TraceModel model({{4, 0}, {0, 0}, {0, 0}, {0, 0}},
                           {{0, 0}, {0, 0}, {2, 2}, {2, 2}});
  OneShotMover mover;
  Engine eng({.n = 2, .seed = 1}, &model, &mover);
  eng.run(4);
  EXPECT_EQ(eng.total_consumed(), 4u);
  // proc0 consumed 2 of its own; proc1 consumed 2 foreign ones.
  EXPECT_DOUBLE_EQ(eng.locality_fraction(), 0.5);
}

TEST(Engine, SojournHistogramRecordsWaits) {
  // One task born step 0, consumed step 2 -> sojourn 2.
  models::TraceModel model({{1}}, {{0}, {0}, {1}});
  Engine eng({.n = 1, .seed = 1, .track_sojourn = true}, &model, nullptr);
  eng.run(3);
  EXPECT_EQ(eng.sojourn_histogram().total(), 1u);
  EXPECT_EQ(eng.sojourn_histogram().count_at(2), 1u);
}

TEST(Engine, ResetRestoresPristineState) {
  models::SingleModel model(0.4, 0.1);
  Engine eng({.n = 64, .seed = 3}, &model, nullptr);
  eng.run(100);
  EXPECT_GT(eng.total_generated(), 0u);
  eng.reset();
  EXPECT_EQ(eng.step(), 0u);
  EXPECT_EQ(eng.total_load(), 0u);
  EXPECT_EQ(eng.total_generated(), 0u);
  EXPECT_EQ(eng.running_max_load(), 0u);
}

TEST(Engine, DeterministicAcrossRuns) {
  models::SingleModel m1(0.3, 0.2), m2(0.3, 0.2);
  Engine a({.n = 128, .seed = 11}, &m1, nullptr);
  Engine b({.n = 128, .seed = 11}, &m2, nullptr);
  a.run(500);
  b.run(500);
  EXPECT_EQ(a.total_generated(), b.total_generated());
  EXPECT_EQ(a.total_load(), b.total_load());
}

TEST(Engine, DifferentSeedsDiverge) {
  models::SingleModel m1(0.3, 0.2), m2(0.3, 0.2);
  Engine a({.n = 128, .seed = 1}, &m1, nullptr);
  Engine b({.n = 128, .seed = 2}, &m2, nullptr);
  a.run(200);
  b.run(200);
  EXPECT_NE(a.total_generated(), b.total_generated());
}

TEST(Engine, SojournTrackingKeepsResults) {
  // track_sojourn only observes: the trajectory must match a run without
  // it exactly.
  models::SingleModel m1(0.4, 0.1), m2(0.4, 0.1);
  Engine plain({.n = 128, .seed = 21}, &m1, nullptr);
  Engine tracked({.n = 128, .seed = 21, .track_sojourn = true}, &m2, nullptr);
  plain.run(300);
  tracked.run(300);
  EXPECT_EQ(plain.total_load(), tracked.total_load());
  EXPECT_EQ(plain.running_max_load(), tracked.running_max_load());
  EXPECT_GT(tracked.sojourn_histogram().total(), 0u);
}

TEST(Engine, SingleProcessorMachine) {
  models::SingleModel model(0.4, 0.1);
  Engine eng({.n = 1, .seed = 22}, &model, nullptr);
  eng.run(500);
  EXPECT_EQ(eng.total_generated(), eng.total_consumed() + eng.total_load());
  EXPECT_EQ(eng.step_max_load(), eng.total_load());
}

TEST(Engine, LoadHistogramMatchesLoads) {
  models::TraceModel model({{2, 1, 0}}, {{}});
  Engine eng({.n = 3, .seed = 1}, &model, nullptr);
  eng.step_once();
  const auto h = eng.load_histogram();
  EXPECT_EQ(h.total(), 3u);
  EXPECT_EQ(h.count_at(0), 1u);
  EXPECT_EQ(h.count_at(1), 1u);
  EXPECT_EQ(h.count_at(2), 1u);
}

TEST(Engine, DrainAllAndDeposit) {
  models::TraceModel model({{2, 3}}, {{}});
  Engine eng({.n = 2, .seed = 1}, &model, nullptr);
  eng.step_once();
  auto tasks = eng.drain_all();
  EXPECT_EQ(tasks.size(), 5u);
  for (const auto& t : tasks) eng.deposit(1, t);
  eng.step_once();  // refresh aggregates
  EXPECT_EQ(eng.load(0), 0u);
  EXPECT_EQ(eng.load(1), 5u);
}

}  // namespace
}  // namespace clb::sim
