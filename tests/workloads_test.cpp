// Production workload zoo: distribution sanity for the five new models
// (seeded moment checks — no statistical flakiness, every draw is counter-
// RNG), crash/recovery conservation, and engine↔rt lockstep grids proving
// the zoo models and both information baselines stay bit-identical on
// rt::Runtime at 1/2/8 workers. Each worker count is validated against the
// same serial specification (testing::Reference, through rt::diff), so the
// grid transitively proves cross-worker bit-identity.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/liveness.hpp"
#include "models/diurnal.hpp"
#include "models/flash_crowd.hpp"
#include "models/hetero.hpp"
#include "models/pareto.hpp"
#include "models/zipf.hpp"
#include "sim/engine.hpp"
#include "testing/oracle.hpp"
#include "testing/scenario.hpp"

namespace {

using namespace clb;
namespace ct = clb::testing;

// ---------------------------------------------------------------------------
// Distribution sanity: Pareto tail
// ---------------------------------------------------------------------------

TEST(ParetoModel, InverseCdfShapeAndTail) {
  models::ParetoConfig cfg;  // alpha=1.5, xm=1, cap=64
  models::ParetoModel m(cfg);

  EXPECT_EQ(m.job_size(0.0), 1u);          // floor(xm) at u=0
  EXPECT_EQ(m.job_size(0.9999999), 64u);   // cap clamps the extreme tail
  // Monotone non-decreasing in u.
  std::uint32_t prev = 0;
  for (int i = 0; i < 1000; ++i) {
    const std::uint32_t sz = m.job_size(static_cast<double>(i) / 1000.0);
    EXPECT_GE(sz, prev);
    prev = sz;
  }

  // Moment check over a dense uniform grid (deterministic): the truncated,
  // floored Pareto(1.5, 1) mean sits well below the continuous 3.0 but well
  // above the all-mice 1.0; the P(X >= 16) tail mass is 16^-1.5 ~ 1.6%.
  double sum = 0;
  int tail = 0;
  const int kGrid = 100000;
  for (int i = 0; i < kGrid; ++i) {
    const std::uint32_t sz = m.job_size((static_cast<double>(i) + 0.5) / kGrid);
    sum += sz;
    if (sz >= 16) ++tail;
  }
  const double mean = sum / kGrid;
  EXPECT_GT(mean, 1.8);
  EXPECT_LT(mean, 3.2);
  const double tail_frac = static_cast<double>(tail) / kGrid;
  EXPECT_GT(tail_frac, 0.005);
  EXPECT_LT(tail_frac, 0.03);
}

TEST(ParetoModel, EngineRateMatchesArrivalTimesMeanSize) {
  models::ParetoConfig cfg;
  models::ParetoModel m(cfg);
  // Analytic per-processor-step rate = p_arrival * E[size]; E[size] from the
  // same inverse CDF the model samples through.
  double esize = 0;
  for (int i = 0; i < 10000; ++i) {
    esize += m.job_size((static_cast<double>(i) + 0.5) / 10000.0);
  }
  esize /= 10000.0;
  const double expect_rate = cfg.p_arrival * esize;

  sim::Engine eng({.n = 256, .seed = 11}, &m, nullptr);
  eng.run(512);
  std::uint64_t gen = 0;
  for (std::uint64_t p = 0; p < eng.n(); ++p) gen += eng.processor(p).generated;
  const double emp = static_cast<double>(gen) / (256.0 * 512.0);
  EXPECT_NEAR(emp, expect_rate, 0.25 * expect_rate);
  EXPECT_TRUE(eng.conservation_holds());
}

// ---------------------------------------------------------------------------
// Distribution sanity: diurnal period
// ---------------------------------------------------------------------------

TEST(DiurnalModel, RateIsPeriodicAndBounded) {
  models::DiurnalConfig cfg;
  cfg.period = 64;
  models::DiurnalModel m(cfg);
  double lo = 1.0, hi = 0.0;
  for (std::uint64_t s = 0; s < cfg.period; ++s) {
    const double r = m.rate_at(0, s);
    EXPECT_GE(r, cfg.p_trough - 1e-9);
    EXPECT_LE(r, cfg.p_peak + 1e-9);
    lo = std::min(lo, r);
    hi = std::max(hi, r);
    // Exact periodicity, several cycles out.
    EXPECT_DOUBLE_EQ(r, m.rate_at(0, s + cfg.period));
    EXPECT_DOUBLE_EQ(r, m.rate_at(0, s + 5 * cfg.period));
  }
  // The cycle actually reaches (near) both extremes.
  EXPECT_NEAR(lo, cfg.p_trough, 0.02);
  EXPECT_NEAR(hi, cfg.p_peak, 0.02);
}

TEST(DiurnalModel, ProcSkewSweepsThePeak) {
  models::DiurnalConfig cfg;
  cfg.period = 64;
  cfg.proc_skew = 1.0 / 64.0;  // peak sweeps a 64-proc machine once/period
  models::DiurnalModel m(cfg);
  // Skew advances the cycle position by proc_skew per processor index, so
  // with proc_skew * period = 1 step/proc, processor p at step 0 sits where
  // processor 0 sits at step p: the peak sweeps the machine once per period.
  for (std::uint64_t p : {1ull, 7ull, 33ull}) {
    EXPECT_NEAR(m.rate_at(p, 0), m.rate_at(0, p), 1e-9) << p;
  }
}

TEST(DiurnalModel, EmpiricalMeanNearCycleMidpoint) {
  models::DiurnalConfig cfg;
  cfg.period = 64;
  models::DiurnalModel m(cfg);
  sim::Engine eng({.n = 256, .seed = 5}, &m, nullptr);
  eng.run(256);  // four full cycles
  std::uint64_t gen = 0;
  for (std::uint64_t p = 0; p < eng.n(); ++p) gen += eng.processor(p).generated;
  const double emp = static_cast<double>(gen) / (256.0 * 256.0);
  const double mid = 0.5 * (cfg.p_peak + cfg.p_trough);
  EXPECT_NEAR(emp, mid, 0.05);
}

// ---------------------------------------------------------------------------
// Distribution sanity: zipf skew
// ---------------------------------------------------------------------------

TEST(ZipfModel, RatesFollowThePowerLawAndSumToBudget) {
  models::ZipfConfig cfg;  // s=1.2, mean_rate=0.3, static ranks
  const std::uint64_t n = 128;
  models::ZipfModel m(cfg, n);
  double total = 0;
  std::vector<double> by_rank(n);
  for (std::uint64_t p = 0; p < n; ++p) {
    const double r = m.rate_for(p, 0);
    total += r;
    by_rank[m.rank_of(p, 0)] = r;
  }
  EXPECT_NEAR(total, cfg.mean_rate * static_cast<double>(n), 1e-6);
  // Monotone in rank; consecutive ranks obey ((k+2)/(k+1))^s exactly.
  for (std::uint64_t k = 0; k + 1 < n; ++k) {
    EXPECT_GT(by_rank[k], by_rank[k + 1]);
  }
  EXPECT_NEAR(by_rank[0] / by_rank[1], std::pow(2.0, cfg.s), 1e-9);
}

TEST(ZipfModel, RotationMovesTheHotRank) {
  models::ZipfConfig cfg;
  cfg.rotate_period = 16;
  const std::uint64_t n = 64;
  models::ZipfModel m(cfg, n);
  const std::uint64_t hot0 = [&] {
    for (std::uint64_t p = 0; p < n; ++p) {
      if (m.rank_of(p, 0) == 0) return p;
    }
    return n;
  }();
  const std::uint64_t hot1 = [&] {
    for (std::uint64_t p = 0; p < n; ++p) {
      if (m.rank_of(p, cfg.rotate_period) == 0) return p;
    }
    return n;
  }();
  ASSERT_LT(hot0, n);
  ASSERT_LT(hot1, n);
  EXPECT_NE(hot0, hot1);
  // Within a rotation window the assignment is stable.
  for (std::uint64_t p = 0; p < n; ++p) {
    EXPECT_EQ(m.rank_of(p, 0), m.rank_of(p, cfg.rotate_period - 1));
  }
}

TEST(ZipfModel, EmpiricalSkewShowsUpInGeneration) {
  models::ZipfConfig cfg;  // static ranks
  const std::uint64_t n = 64;
  models::ZipfModel m(cfg, n);
  sim::Engine eng({.n = n, .seed = 9}, &m, nullptr);
  eng.run(512);
  std::uint64_t hottest = 0, coldest = ~0ULL;
  std::uint64_t gen = 0;
  for (std::uint64_t p = 0; p < n; ++p) {
    const std::uint64_t g = eng.processor(p).generated;
    gen += g;
    hottest = std::max(hottest, g);
    coldest = std::min(coldest, g);
  }
  // Total volume near the configured budget, and rank 0 dwarfs the tail.
  const double emp = static_cast<double>(gen) / (static_cast<double>(n) * 512.0);
  EXPECT_NEAR(emp, cfg.mean_rate, 0.2 * cfg.mean_rate);
  EXPECT_GT(hottest, 8 * std::max<std::uint64_t>(coldest, 1));
}

// ---------------------------------------------------------------------------
// Distribution sanity: flash crowds and heterogeneous speeds
// ---------------------------------------------------------------------------

TEST(FlashCrowdModel, OneFlashPerWindowOfTheConfiguredLength) {
  models::FlashCrowdConfig cfg;  // interval=48, flash_len=6
  const std::uint64_t n = 128;
  models::FlashCrowdModel m(cfg, n);
  const std::uint64_t seed = 21;
  for (std::uint64_t w = 0; w < 6; ++w) {
    std::uint64_t active = 0;
    for (std::uint64_t s = w * cfg.interval; s < (w + 1) * cfg.interval; ++s) {
      const std::int64_t pos = m.flash_pos(seed, s);
      if (pos >= 0) {
        ++active;
        EXPECT_LT(pos, static_cast<std::int64_t>(cfg.flash_len));
        // The hot group is a non-trivial contiguous slice of the machine.
        std::uint64_t hot = 0;
        for (std::uint64_t p = 0; p < n; ++p) {
          if (m.is_hot(seed, p, s)) ++hot;
        }
        EXPECT_GT(hot, 0u);
        EXPECT_LT(hot, n / 2);
      }
    }
    EXPECT_EQ(active, cfg.flash_len) << "window " << w;
  }
}

TEST(HeteroModel, SpeedClassesAreSeededStableAndSlowClassesAccumulate) {
  models::HeteroConfig cfg;  // 3 classes, base_consume=0.2
  models::HeteroModel m(cfg);
  const std::uint64_t n = 256, seed = 17;
  for (std::uint64_t p = 0; p < n; ++p) {
    const std::uint32_t k = m.speed_class(seed, p);
    EXPECT_LT(k, cfg.speed_classes);
    EXPECT_EQ(k, m.speed_class(seed, p));  // pure function of (seed, proc)
  }
  sim::Engine eng({.n = n, .seed = seed}, &m, nullptr);
  eng.run(384);
  double load_by_class[3] = {0, 0, 0};
  std::uint64_t count_by_class[3] = {0, 0, 0};
  for (std::uint64_t p = 0; p < n; ++p) {
    const std::uint32_t k = m.speed_class(seed, p);
    load_by_class[k] += static_cast<double>(eng.load(p));
    ++count_by_class[k];
  }
  for (std::uint64_t k = 0; k < 3; ++k) ASSERT_GT(count_by_class[k], 0u);
  // Class 0 consumes at 0.2 < gen 0.35: unbounded backlog. The top class
  // consumes at 0.6 > 0.35: load stays O(1). Average final loads must be
  // strongly ordered.
  const double slow = load_by_class[0] / static_cast<double>(count_by_class[0]);
  const double fast = load_by_class[2] / static_cast<double>(count_by_class[2]);
  EXPECT_GT(slow, 4.0 * (fast + 1.0));
}

// ---------------------------------------------------------------------------
// Crash / recovery conservation
// ---------------------------------------------------------------------------

TEST(CrashRecovery, RehomePreservesEveryTaskAndDeadProcessorsIdle) {
  models::DiurnalConfig dc;
  dc.period = 32;
  models::DiurnalModel m(dc);
  const std::uint64_t n = 64;
  const std::uint32_t victim = 7;
  core::LivenessSchedule live(n, {{10, victim, 12}});
  sim::Engine eng({.n = n, .seed = 3, .liveness = &live}, &m, nullptr);

  // Guarantee the victim's queue is non-empty at the crash.
  for (int i = 0; i < 25; ++i) {
    eng.deposit(victim, sim::Task{0, victim, 1});
  }
  std::uint64_t victim_gen_at_crash = 0;
  for (std::uint64_t step = 0; step < 48; ++step) {
    eng.step_once();
    ASSERT_TRUE(eng.conservation_holds()) << "step " << step;
    if (step == 10) {
      victim_gen_at_crash = eng.processor(victim).generated;
      EXPECT_EQ(eng.load(victim), 0u);  // queue re-homed wholesale
      // 25 deposited minus the few consumed before the crash.
      EXPECT_GE(eng.rehomed_tasks(), 10u);
      EXPECT_EQ(eng.rehomed_events(), 1u);
      // FIFO re-home target: first alive processor cyclically above.
      EXPECT_EQ(live.rehome_target(victim, 10), victim + 1);
    }
    if (step > 10 && step < 10 + 12) {
      // Dead: no generation, no consumption, queue stays empty.
      EXPECT_EQ(eng.load(victim), 0u);
      EXPECT_EQ(eng.processor(victim).generated, victim_gen_at_crash);
    }
  }
  // Recovered: the victim generates again after its down window.
  EXPECT_GT(eng.processor(victim).generated, victim_gen_at_crash);
}

TEST(CrashRecovery, ScheduleRejectsUnservableEvents) {
  // proc out of range, zero down time, re-crash while dead, and a crash
  // that would leave nobody alive are all dropped at construction.
  core::LivenessSchedule live(4, {
                                     {1, 9, 4},   // out of range
                                     {2, 1, 0},   // zero down time
                                     {3, 2, 8},   // accepted
                                     {5, 2, 4},   // re-crash while dead
                                 });
  EXPECT_FALSE(live.empty());
  EXPECT_TRUE(live.alive(9 % 4, 1));
  EXPECT_TRUE(live.alive(1, 2));
  EXPECT_FALSE(live.alive(2, 3));
  EXPECT_FALSE(live.alive(2, 10));
  EXPECT_TRUE(live.alive(2, 11));  // recovered
  EXPECT_EQ(live.crashes_at(3).size(), 1u);
  EXPECT_EQ(live.crashes_at(5).size(), 0u);
}

// ---------------------------------------------------------------------------
// Engine↔rt lockstep grids (workers 1/2/8) — the oracle is the proof: it
// checks total load against a testing::Reference shadow every step and ends
// in rt::diff of the two results (ledger, every counter, clamp/re-home
// accounting, per-queue task identity).
// ---------------------------------------------------------------------------

ct::Scenario zoo_scenario(ct::ModelKind model,
                               ct::BalancerKind balancer,
                               unsigned workers) {
  ct::Scenario s;
  s.n = 32;
  s.steps = 48;
  s.engine_seed = 1234 + static_cast<std::uint64_t>(workers);
  s.threads = workers;
  s.threads_replay = workers;
  s.runtime = true;
  s.model = model;
  s.balancer = balancer;
  s.stale_staleness = 4;
  s.stale_gap = 2;
  s.ls_min_load = 2;
  // A spike guarantees imbalance, so the baselines actually move tasks.
  s.faults.push_back(ct::FaultEvent{4, 3, 48});
  return s;
}

class ZooLockstep : public ::testing::TestWithParam<unsigned> {};

TEST_P(ZooLockstep, EveryZooModelUnderBothBaselines) {
  const unsigned workers = GetParam();
  const ct::ModelKind models[] = {
      ct::ModelKind::kDiurnal, ct::ModelKind::kFlashCrowd,
      ct::ModelKind::kPareto,  ct::ModelKind::kZipf,
      ct::ModelKind::kHetero,
  };
  const ct::BalancerKind baselines[] = {
      ct::BalancerKind::kStaleSq,
      ct::BalancerKind::kLocalSearch,
  };
  for (const auto model : models) {
    for (const auto balancer : baselines) {
      const ct::Scenario s = zoo_scenario(model, balancer, workers);
      const ct::OracleReport r = ct::run_rt_scenario(s);
      EXPECT_TRUE(r.ok) << ct::to_string(model) << " + "
                        << ct::to_string(balancer) << " @ " << workers
                        << " workers: step " << r.fail_step << ": " << r.what;
    }
  }
}

TEST_P(ZooLockstep, ZooModelsUnderTheThresholdProtocol) {
  const unsigned workers = GetParam();
  for (const auto model :
       {ct::ModelKind::kPareto, ct::ModelKind::kZipf}) {
    const ct::Scenario s =
        zoo_scenario(model, ct::BalancerKind::kThreshold, workers);
    const ct::OracleReport r = ct::run_rt_scenario(s);
    EXPECT_TRUE(r.ok) << ct::to_string(model) << " @ " << workers
                      << " workers: step " << r.fail_step << ": " << r.what;
  }
}

TEST_P(ZooLockstep, CrashRecoveryStaysLockstepAcrossWorkerCounts) {
  const unsigned workers = GetParam();
  const ct::BalancerKind balancers[] = {
      ct::BalancerKind::kNone,
      ct::BalancerKind::kStaleSq,
      ct::BalancerKind::kLocalSearch,
  };
  for (const auto balancer : balancers) {
    ct::Scenario s =
        zoo_scenario(ct::ModelKind::kDiurnal, balancer, workers);
    // Crash the spiked processor mid-run (non-empty queue guaranteed) and a
    // second one later; both recover before the run ends.
    s.crashes.push_back(core::CrashEvent{8, 3, 10});
    s.crashes.push_back(core::CrashEvent{20, 11, 6});
    const ct::OracleReport r = ct::run_rt_scenario(s);
    EXPECT_TRUE(r.ok) << ct::to_string(balancer) << " @ " << workers
                      << " workers: step " << r.fail_step << ": " << r.what;
  }
}

// The on-off model keeps one chain per processor and advances it inside
// step_action, so a dead processor must not be drawn: the engine skips it,
// and one extra draw in the runtime would shift that chain for good.
TEST_P(ZooLockstep, CrashRecoveryKeepsStatefulModelChains) {
  const unsigned workers = GetParam();
  ct::Scenario s =
      zoo_scenario(ct::ModelKind::kOnOff, ct::BalancerKind::kNone, workers);
  // Long outages of a quarter of the processors: the chains flip with
  // probability 0.02-0.05 per step, so several flip while dead.
  for (std::uint32_t p = 1; p < s.n; p += 4) {
    s.crashes.push_back(core::CrashEvent{4 + p % 5, p, 30});
  }
  const ct::OracleReport r = ct::run_rt_scenario(s);
  EXPECT_TRUE(r.ok) << "on-off @ " << workers << " workers: step "
                    << r.fail_step << ": " << r.what;
}

INSTANTIATE_TEST_SUITE_P(Workers, ZooLockstep, ::testing::Values(1u, 2u, 8u),
                         [](const auto& param_info) {
                           return "w" + std::to_string(param_info.param);
                         });

// The engine-side fuzz oracle handles zoo scenarios with crashes too: the
// shadow-deque replay re-homes FIFO-whole exactly like the engine.
TEST(ZooOracle, EngineScenarioWithCrashesPasses) {
  ct::Scenario s;
  s.n = 48;
  s.steps = 64;
  s.engine_seed = 77;
  s.model = ct::ModelKind::kPareto;
  s.balancer = ct::BalancerKind::kLocalSearch;
  s.faults.push_back(ct::FaultEvent{2, 5, 40});
  s.crashes.push_back(core::CrashEvent{9, 5, 8});
  const ct::OracleReport r = ct::run_engine_scenario(s);
  EXPECT_TRUE(r.ok) << "step " << r.fail_step << ": " << r.what;
}

}  // namespace
