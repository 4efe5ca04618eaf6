// Bit-for-bit equivalence of rt::Runtime against
// sim::Engine + core::ThresholdBalancer: same seed must yield identical
// heavy/light classifications, transfer ledger, message counters, and final
// per-task queue contents — for ANY worker count. The sim side replays the
// engine's clamp rule on the transfers a CaptureBalancer snapshots, so the
// two ledgers are directly comparable.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/params.hpp"
#include "core/threshold_balancer.hpp"
#include "models/burst.hpp"
#include "models/single.hpp"
#include "rt/runtime.hpp"
#include "sim/engine.hpp"
#include "testing/oracle.hpp"

namespace {

using namespace clb;

enum class WhichModel { kSingle, kBurst };

const char* model_name(WhichModel m) {
  return m == WhichModel::kSingle ? "single" : "burst";
}

std::unique_ptr<sim::LoadModel> make_model(WhichModel m, std::uint64_t n) {
  if (m == WhichModel::kSingle) {
    return std::make_unique<models::SingleModel>(0.45, 0.1);
  }
  models::BurstConfig bc;
  bc.period = 16;
  bc.burst_len = 8;
  bc.hot_fraction = 0.1;
  bc.burst_rate = 6;
  return std::make_unique<models::BurstModel>(bc, n);
}

/// Load spikes deposited before a step executes, identically on both sides
/// (guarantees heavy processors, so transfers actually happen).
struct Spike {
  std::uint64_t step;
  std::uint32_t proc;
  std::uint32_t tasks;
};

std::vector<Spike> spikes_for(std::uint64_t seed, std::uint64_t n) {
  const auto p = [&](std::uint64_t k) {
    return static_cast<std::uint32_t>((seed * 7 + k * 13) % n);
  };
  return {{4, p(0), 40}, {9, p(1), 56}, {17, p(2), 48}};
}

struct PhaseRecord {
  std::uint64_t start_step = 0;
  std::uint64_t num_heavy = 0;
  std::uint64_t num_light = 0;
  std::uint64_t matched = 0;
  std::uint64_t unmatched = 0;
  std::uint64_t requests = 0;
  std::uint32_t levels_used = 0;
  std::uint64_t collision_rounds = 0;
  std::vector<std::uint32_t> heavy_procs;
};

struct RunRecord {
  std::vector<std::vector<sim::Task>> queues;
  std::vector<std::uint64_t> generated;
  std::vector<std::uint64_t> consumed;
  std::vector<std::uint64_t> consumed_on_origin;
  std::vector<std::uint64_t> initiations;
  sim::MessageCounters msg;
  std::uint64_t clamped = 0;
  std::uint64_t running_max = 0;
  std::uint64_t total_load = 0;
  std::uint64_t steal_events = 0;
  std::uint64_t stolen = 0;
  std::vector<rt::LedgerEntry> ledger;
  std::vector<PhaseRecord> phases;
  /// Phase steps on which a steal took a victim below the heavy threshold
  /// and gave a thief more than the light threshold (engine side only).
  std::uint64_t steal_flip_steps = 0;
};

RunRecord run_sim(std::uint64_t n, std::uint64_t seed, std::uint64_t steps,
                  WhichModel which, const core::PhaseParams& params,
                  const sim::StealConfig& steal = {}) {
  auto model = make_model(which, n);
  core::ThresholdBalancer inner({.params = params});
  clb::testing::CaptureBalancer cap(&inner);
  sim::Engine eng({.n = n, .seed = seed, .steal = steal}, model.get(), &cap);

  RunRecord r;
  cap.set_post_capture_hook([&](sim::Engine& e) {
    // The hook runs after on_step, before apply_transfers: loads are still
    // the post-generation loads the balancer classified, and the scheduled
    // counts can be clamped exactly like Engine::apply_transfers will.
    for (const sim::Transfer& t : cap.captured()) {
      const std::uint64_t cnt = std::min<std::uint64_t>(t.count, e.load(t.from));
      r.ledger.push_back({e.step(), t.from, t.to,
                          static_cast<std::uint32_t>(cnt)});
    }
    if (e.step() % params.phase_len == 0) {
      // The balancer classified the post-steal loads; undo this step's
      // steals to see what a classification before them would have said.
      bool victim_flip = false, thief_flip = false;
      const std::vector<sim::StealRecord>& log = e.steal_log();
      for (auto it = log.rbegin(); it != log.rend() && it->step == e.step();
           ++it) {
        const std::uint64_t victim = e.load(it->from);
        const std::uint64_t thief = e.load(it->to);
        victim_flip |= victim + it->count >= params.heavy_threshold &&
                       victim < params.heavy_threshold;
        thief_flip |= thief - it->count <= params.light_threshold &&
                      thief > params.light_threshold;
      }
      if (victim_flip && thief_flip) ++r.steal_flip_steps;
      // Atomic execution finalises the phase inside the same on_step, so
      // last_phase() is the phase that just ran at this very step.
      const core::PhaseStats& ps = inner.last_phase();
      PhaseRecord pr;
      pr.start_step = ps.start_step;
      pr.num_heavy = ps.num_heavy;
      pr.num_light = ps.num_light;
      pr.matched = ps.matched_heavy;
      pr.unmatched = ps.unmatched_heavy;
      pr.requests = ps.requests;
      pr.levels_used = ps.levels_used;
      pr.collision_rounds = ps.collision_rounds;
      for (std::uint64_t p = 0; p < n; ++p) {
        if (e.load(p) >= params.heavy_threshold) {
          pr.heavy_procs.push_back(static_cast<std::uint32_t>(p));
        }
      }
      r.phases.push_back(std::move(pr));
    }
  });

  const std::vector<Spike> spikes = spikes_for(seed, n);
  for (std::uint64_t s = 0; s < steps; ++s) {
    for (const Spike& sp : spikes) {
      if (sp.step != s) continue;
      for (std::uint32_t i = 0; i < sp.tasks; ++i) {
        eng.deposit(sp.proc, sim::Task{static_cast<std::uint32_t>(s), sp.proc, 1});
      }
    }
    eng.step_once();
  }

  for (std::uint64_t p = 0; p < n; ++p) {
    const sim::Processor& proc = eng.processor(p);
    std::vector<sim::Task> q;
    for (std::uint64_t i = 0; i < proc.queue.size(); ++i) {
      q.push_back(proc.queue.at(i));
    }
    r.queues.push_back(std::move(q));
    r.generated.push_back(proc.generated);
    r.consumed.push_back(proc.consumed);
    r.consumed_on_origin.push_back(proc.consumed_on_origin);
    r.initiations.push_back(proc.balance_initiations);
  }
  r.msg = eng.messages();
  r.clamped = eng.clamped_transfers();
  r.running_max = eng.running_max_load();
  r.total_load = eng.total_load();
  r.steal_events = eng.steal_events();
  r.stolen = eng.stolen_tasks();
  // The engine books steals into a separate log (the runtime folds them
  // into its ledger alongside balancer transfers); merge before sorting so
  // the two event sets match.
  for (const sim::StealRecord& t : eng.steal_log()) {
    r.ledger.push_back({t.step, t.from, t.to, t.count});
  }
  // The engine schedules transfers in id-delivery order, which leaves root
  // order once trees deepen; the runtime's merged ledger is canonically
  // sorted by (step, from, to, count) — count joins the key because a steal
  // and a phase transfer may share the same (step, from, to).
  std::sort(r.ledger.begin(), r.ledger.end(),
            [](const rt::LedgerEntry& a, const rt::LedgerEntry& b) {
              if (a.step != b.step) return a.step < b.step;
              if (a.from != b.from) return a.from < b.from;
              if (a.to != b.to) return a.to < b.to;
              return a.count < b.count;
            });
  EXPECT_TRUE(eng.conservation_holds());
  return r;
}

/// Runs `steps` steps on `run`, depositing spikes_for(seed, n) on the way.
void drive(rt::Runtime& run, std::uint64_t steps, std::uint64_t seed,
           std::uint64_t n) {
  std::uint64_t done = 0;
  for (const Spike& sp : spikes_for(seed, n)) {
    if (sp.step > done) {
      run.run(sp.step - done);
      done = sp.step;
    }
    for (std::uint32_t i = 0; i < sp.tasks; ++i) {
      run.deposit(sp.proc,
                  sim::Task{static_cast<std::uint32_t>(sp.step), sp.proc, 1});
    }
  }
  run.run(steps - done);
}

/// A runtime and the model it reads, which must outlive it.
struct DiffRun {
  std::unique_ptr<sim::LoadModel> model;
  std::unique_ptr<rt::Runtime> run;
};

RunRecord record_of(const rt::RunResult& res, std::uint64_t n) {
  RunRecord r;
  for (std::uint64_t p = 0; p < n; ++p) {
    const rt::RtProcessor& proc = res.processor(p);
    std::vector<sim::Task> q;
    for (const rt::RtTask& t : proc.queue) q.push_back(t.task);
    r.queues.push_back(std::move(q));
    r.generated.push_back(proc.generated);
    r.consumed.push_back(proc.consumed);
    r.consumed_on_origin.push_back(proc.consumed_on_origin);
    r.initiations.push_back(proc.balance_initiations);
  }
  r.msg = res.out.msg;
  r.clamped = res.out.clamped;
  r.running_max = res.out.running_max;
  r.total_load = res.total_load();
  r.steal_events = res.out.steal_events;
  r.stolen = res.out.stolen_tasks;
  r.ledger = res.out.ledger;
  for (const rt::RtPhaseSummary& ps : res.out.phases) {
    PhaseRecord pr;
    pr.start_step = ps.start_step;
    pr.num_heavy = ps.num_heavy;
    pr.num_light = ps.num_light;
    pr.matched = ps.matched;
    pr.unmatched = ps.unmatched;
    pr.requests = ps.requests;
    pr.levels_used = ps.levels_used;
    pr.collision_rounds = ps.collision_rounds;
    pr.heavy_procs = ps.heavy_procs;
    r.phases.push_back(std::move(pr));
  }
  EXPECT_TRUE(res.conservation_holds());
  return r;
}

RunRecord run_rt(std::uint64_t n, std::uint64_t seed, std::uint64_t steps,
                 WhichModel which, const core::PhaseParams& params,
                 unsigned workers, const sim::StealConfig& steal = {}) {
  auto model = make_model(which, n);
  rt::RtConfig cfg;
  cfg.n = n;
  cfg.seed = seed;
  cfg.workers = workers;
  cfg.policy = rt::RtPolicy::kThreshold;
  cfg.params = params;
  cfg.steal = steal;
  rt::Runtime run(cfg, model.get());
  drive(run, steps, seed, n);
  return record_of(run.result(), n);
}

void expect_equal(const RunRecord& sim_r, const RunRecord& rt_r,
                  const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(sim_r.queues.size(), rt_r.queues.size());
  for (std::size_t p = 0; p < sim_r.queues.size(); ++p) {
    const auto& a = sim_r.queues[p];
    const auto& b = rt_r.queues[p];
    ASSERT_EQ(a.size(), b.size()) << "queue length, proc " << p;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].birth_step, b[i].birth_step)
          << "proc " << p << " pos " << i;
      EXPECT_EQ(a[i].origin, b[i].origin) << "proc " << p << " pos " << i;
    }
    EXPECT_EQ(sim_r.generated[p], rt_r.generated[p]) << "generated, proc " << p;
    EXPECT_EQ(sim_r.consumed[p], rt_r.consumed[p]) << "consumed, proc " << p;
    EXPECT_EQ(sim_r.consumed_on_origin[p], rt_r.consumed_on_origin[p])
        << "consumed_on_origin, proc " << p;
    EXPECT_EQ(sim_r.initiations[p], rt_r.initiations[p])
        << "initiations, proc " << p;
  }

  EXPECT_EQ(sim_r.msg.queries, rt_r.msg.queries);
  EXPECT_EQ(sim_r.msg.accepts, rt_r.msg.accepts);
  EXPECT_EQ(sim_r.msg.id_messages, rt_r.msg.id_messages);
  EXPECT_EQ(sim_r.msg.control, rt_r.msg.control);
  EXPECT_EQ(sim_r.msg.transfers, rt_r.msg.transfers);
  EXPECT_EQ(sim_r.msg.tasks_moved, rt_r.msg.tasks_moved);
  EXPECT_EQ(sim_r.clamped, rt_r.clamped);
  EXPECT_EQ(sim_r.running_max, rt_r.running_max);
  EXPECT_EQ(sim_r.total_load, rt_r.total_load);
  EXPECT_EQ(sim_r.steal_events, rt_r.steal_events);
  EXPECT_EQ(sim_r.stolen, rt_r.stolen);

  ASSERT_EQ(sim_r.ledger.size(), rt_r.ledger.size());
  for (std::size_t i = 0; i < sim_r.ledger.size(); ++i) {
    EXPECT_EQ(sim_r.ledger[i].step, rt_r.ledger[i].step) << "ledger " << i;
    EXPECT_EQ(sim_r.ledger[i].from, rt_r.ledger[i].from) << "ledger " << i;
    EXPECT_EQ(sim_r.ledger[i].to, rt_r.ledger[i].to) << "ledger " << i;
    EXPECT_EQ(sim_r.ledger[i].count, rt_r.ledger[i].count) << "ledger " << i;
  }

  ASSERT_EQ(sim_r.phases.size(), rt_r.phases.size());
  for (std::size_t i = 0; i < sim_r.phases.size(); ++i) {
    const PhaseRecord& a = sim_r.phases[i];
    const PhaseRecord& b = rt_r.phases[i];
    EXPECT_EQ(a.start_step, b.start_step) << "phase " << i;
    EXPECT_EQ(a.num_heavy, b.num_heavy) << "phase " << i;
    EXPECT_EQ(a.num_light, b.num_light) << "phase " << i;
    EXPECT_EQ(a.matched, b.matched) << "phase " << i;
    EXPECT_EQ(a.unmatched, b.unmatched) << "phase " << i;
    EXPECT_EQ(a.requests, b.requests) << "phase " << i;
    EXPECT_EQ(a.levels_used, b.levels_used) << "phase " << i;
    EXPECT_EQ(a.collision_rounds, b.collision_rounds) << "phase " << i;
    EXPECT_EQ(a.heavy_procs, b.heavy_procs) << "phase " << i;
  }
}

class RtEquivalence
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, WhichModel>> {};

TEST_P(RtEquivalence, MatchesEngineForAllWorkerCounts) {
  const std::uint64_t seed = std::get<0>(GetParam());
  const WhichModel which = std::get<1>(GetParam());
  const std::uint64_t n = 192;
  const std::uint64_t steps = 48;
  core::Fractions f;
  f.t_min = 64;  // phase_len 4: phases interleave with plain steps
  const core::PhaseParams params = core::PhaseParams::from_n(n, f);

  const RunRecord sim_r = run_sim(n, seed, steps, which, params);
  for (unsigned workers : {1u, 2u, 8u}) {
    const RunRecord rt_r = run_rt(n, seed, steps, which, params, workers);
    expect_equal(sim_r, rt_r,
                 std::string(model_name(which)) + " seed=" +
                     std::to_string(seed) + " workers=" +
                     std::to_string(workers));
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndModels, RtEquivalence,
    ::testing::Combine(::testing::Values(1u, 2u, 3u),
                       ::testing::Values(WhichModel::kSingle,
                                         WhichModel::kBurst)),
    [](const auto& param_info) {
      return std::string(model_name(std::get<1>(param_info.param))) + "_seed" +
             std::to_string(std::get<0>(param_info.param));
    });

// Densest schedule: T floor 16 makes phase_len 1 — a phase every step, the
// maximum barrier pressure per step. Catches slot-reuse bugs that need
// back-to-back phases.
TEST(RtEquivalenceDense, PhaseEveryStep) {
  const std::uint64_t n = 96;
  const std::uint64_t steps = 24;
  const core::PhaseParams params = core::PhaseParams::from_n(n);
  ASSERT_EQ(params.phase_len, 1u);
  const RunRecord sim_r = run_sim(n, 5, steps, WhichModel::kSingle, params);
  for (unsigned workers : {1u, 3u, 8u}) {
    const RunRecord rt_r =
        run_rt(n, 5, steps, WhichModel::kSingle, params, workers);
    expect_equal(sim_r, rt_r, "dense workers=" + std::to_string(workers));
  }
}

// NoBalancing policy: generation/consumption alone must already match the
// engine exactly (same per-processor Philox streams, any worker count).
TEST(RtEquivalenceNone, UnbalancedMatchesEngine) {
  const std::uint64_t n = 128;
  const std::uint64_t steps = 64;
  auto sim_model = make_model(WhichModel::kBurst, n);
  sim::Engine eng({.n = n, .seed = 11}, sim_model.get(), nullptr);
  eng.run(steps);

  auto rt_model = make_model(WhichModel::kBurst, n);
  rt::RtConfig cfg;
  cfg.n = n;
  cfg.seed = 11;
  cfg.workers = 4;
  cfg.policy = rt::RtPolicy::kNone;
  rt::Runtime run(cfg, rt_model.get());
  run.run(steps);

  const rt::RunResult& res = run.result();
  EXPECT_EQ(eng.total_load(), res.total_load());
  EXPECT_EQ(eng.total_generated(), res.total_generated());
  EXPECT_EQ(eng.total_consumed(), res.total_consumed());
  EXPECT_EQ(eng.running_max_load(), res.out.running_max);
  for (std::uint64_t p = 0; p < n; ++p) {
    ASSERT_EQ(eng.load(p), res.processor(p).queue.size()) << "proc " << p;
  }
  EXPECT_TRUE(res.conservation_holds());
}

// Deterministic mode must be bit-identical across worker counts for the
// AllInAir policy too (sim::baselines::AllInAir uses one global scatter
// stream, so the rt variant is compared against itself, not the engine —
// the per-processor scatter streams are a documented difference). With no
// engine to match, the running max is checked against the largest queue
// after each step, read from the processors themselves.
TEST(RtEquivalenceAir, ScatterDeterministicAcrossWorkers) {
  const std::uint64_t n = 128;
  const std::uint64_t steps = 48;

  struct AirRun {
    std::unique_ptr<sim::LoadModel> model;
    std::unique_ptr<rt::Runtime> run;
  };
  auto run_air = [&](unsigned workers) {
    AirRun r{make_model(WhichModel::kSingle, n), nullptr};
    rt::RtConfig cfg;
    cfg.n = n;
    cfg.seed = 7;
    cfg.workers = workers;
    cfg.policy = rt::RtPolicy::kAllInAir;
    r.run = std::make_unique<rt::Runtime>(cfg, r.model.get());
    std::uint64_t max_seen = 0;
    for (std::uint64_t s = 0; s < steps; ++s) {
      r.run->run(1);
      for (const rt::RtProcessor& p : r.run->result().procs) {
        max_seen = std::max<std::uint64_t>(max_seen, p.queue.size());
      }
    }
    EXPECT_EQ(r.run->running_max_load(), max_seen) << workers << " workers";
    EXPECT_TRUE(r.run->result().conservation_holds());
    return r;
  };

  const AirRun base = run_air(1);
  EXPECT_GT(base.run->result().out.msg.transfers, 0u);
  for (const unsigned workers : {2u, 8u}) {
    const AirRun other = run_air(workers);
    EXPECT_EQ(rt::diff(base.run->result(), other.run->result()), "")
        << "1 vs " << workers << " workers";
  }
}

// Scale knobs (the million-processor tentpole): with the arena-backed ring
// queue layout, deterministic work stealing must match a shadow engine
// running the same pure rule — for any worker count, steal on or off. The
// parameter is (arena, steal); the arena is the only queue layout, so the
// first element is always true and only keeps the test names stable.
class RtEquivalenceScale
    : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(RtEquivalenceScale, ArenaAndStealMatchEngine) {
  const bool steal_on = std::get<1>(GetParam());
  const std::uint64_t n = 192;
  const std::uint64_t steps = 48;
  core::Fractions f;
  f.t_min = 64;  // phase_len 4: phases interleave with steal-active steps
  const core::PhaseParams params = core::PhaseParams::from_n(n, f);
  sim::StealConfig steal;
  steal.enabled = steal_on;

  const RunRecord sim_r = run_sim(n, 2, steps, WhichModel::kBurst, params,
                                  steal);
  if (steal_on) {
    // The burst spikes guarantee loaded victims while quiet processors run
    // dry, so an all-green run with zero steals would be vacuous.
    EXPECT_GT(sim_r.steal_events, 0u);
  }
  for (unsigned workers : {1u, 2u, 8u}) {
    const RunRecord rt_r = run_rt(n, 2, steps, WhichModel::kBurst, params,
                                  workers, steal);
    expect_equal(sim_r, rt_r,
                 std::string("scale steal=") + (steal_on ? "on" : "off") +
                     " workers=" + std::to_string(workers));
  }
}

INSTANTIATE_TEST_SUITE_P(
    ArenaSteal, RtEquivalenceScale,
    ::testing::Combine(::testing::Values(true), ::testing::Bool()),
    [](const auto& param_info) {
      return std::string("arena_on_steal_") +
             (std::get<1>(param_info.param) ? "on" : "off");
    });

// One 2^16-processor point: the tentpole's target regime (scaled down in
// steps) with arena and stealing both on stays bit-identical to the engine.
TEST(RtEquivalenceScale64k, ArenaStealMatchesEngine) {
  const std::uint64_t n = 1ULL << 16;
  const std::uint64_t steps = 24;
  core::Fractions f;
  f.t_min = 64;
  const core::PhaseParams params = core::PhaseParams::from_n(n, f);
  sim::StealConfig steal;
  steal.enabled = true;

  const RunRecord sim_r = run_sim(n, 3, steps, WhichModel::kBurst, params,
                                  steal);
  EXPECT_GT(sim_r.steal_events, 0u);
  for (unsigned workers : {1u, 4u}) {
    const RunRecord rt_r = run_rt(n, 3, steps, WhichModel::kBurst, params,
                                  workers, steal);
    expect_equal(sim_r, rt_r, "n64k workers=" + std::to_string(workers));
  }
}

// The sweep classifies every processor from its post-generation load, and
// the steal pass runs between it and the phase, so a steal that takes a
// victim below the heavy threshold and lifts a thief above the light
// threshold must reclassify both. Default fractions at n = 192 (T = 16:
// heavy 8, light 1, a phase every step) and 4-task steal batches make
// that happen: a victim at 8..11 tasks drops below 8, a dry thief rises to
// 4. The engine classifies after its steals, so it is the reference; the
// worker counts must also agree with each other field by field.
TEST(RtEquivalenceStealClasses, StealFlipsClassesBeforeThePhase) {
  const std::uint64_t n = 192;
  const std::uint64_t steps = 48;
  const std::uint64_t seed = 5;
  const core::PhaseParams params = core::PhaseParams::from_n(n);
  ASSERT_EQ(params.phase_len, 1u);
  sim::StealConfig steal;
  steal.enabled = true;
  const RunRecord sim_r =
      run_sim(n, seed, steps, WhichModel::kBurst, params, steal);
  EXPECT_GT(sim_r.steal_flip_steps, 0u);

  std::vector<DiffRun> runs;
  for (const unsigned workers : {1u, 2u, 4u}) {
    DiffRun r{make_model(WhichModel::kBurst, n), nullptr};
    rt::RtConfig cfg;
    cfg.n = n;
    cfg.seed = seed;
    cfg.workers = workers;
    cfg.policy = rt::RtPolicy::kThreshold;
    cfg.params = params;
    cfg.steal = steal;
    r.run = std::make_unique<rt::Runtime>(cfg, r.model.get());
    drive(*r.run, steps, seed, n);
    expect_equal(sim_r, record_of(r.run->result(), n),
                 "steal flips, workers=" + std::to_string(workers));
    if (!runs.empty()) {
      EXPECT_EQ(rt::diff(runs.front().run->result(), r.run->result()), "")
          << "1 vs " << workers << " workers";
    }
    runs.push_back(std::move(r));
  }
}

// The end-of-step load reduction reads per-block summaries that the
// generate/consume sweep writes and only rescans the blocks whose queues
// changed later in the step, so check it where every block boundary can
// hide a stale summary: several 256-processor blocks per shard, transfers
// between blocks on every step, and a receiver that can end the step as the
// unique maximum (light 7 and transfer 8 at T = 16: a light ends at up to
// 15 while its heavy sender ends at its load minus 8). After each step the
// runtime's running max and its summed snapshot shard loads (telemetry
// snapshot every step) must equal the engine's.
TEST(RtEquivalenceBlocks, LoadReductionMatchesEngineEveryStep) {
  const std::uint64_t n = 1024;
  const std::uint64_t steps = 40;
  const std::uint64_t seed = 4;
  core::Fractions f;
  f.light = 7.0 / 16.0;
  f.transfer = 0.5;
  const core::PhaseParams params = core::PhaseParams::from_n(n, f);
  ASSERT_EQ(params.light_threshold, 7u);
  ASSERT_EQ(params.transfer_amount, 8u);
  for (const bool steal_on : {false, true}) {
    sim::StealConfig steal;
    steal.enabled = steal_on;
    auto sim_model = make_model(WhichModel::kBurst, n);
    core::ThresholdBalancer balancer({.params = params});
    sim::Engine eng({.n = n, .seed = seed, .steal = steal}, sim_model.get(),
                    &balancer);
    std::vector<std::uint64_t> total(steps), running_max(steps);
    const std::vector<Spike> spikes = spikes_for(seed, n);
    const auto deposit_spikes = [&](std::uint64_t s, auto&& deposit) {
      for (const Spike& sp : spikes) {
        if (sp.step != s) continue;
        for (std::uint32_t i = 0; i < sp.tasks; ++i) {
          deposit(sp.proc,
                  sim::Task{static_cast<std::uint32_t>(s), sp.proc, 1});
        }
      }
    };
    for (std::uint64_t s = 0; s < steps; ++s) {
      deposit_spikes(s, [&](std::uint32_t p, sim::Task t) {
        eng.deposit(p, t);
      });
      eng.step_once();
      total[s] = eng.total_load();
      running_max[s] = eng.running_max_load();
    }
    EXPECT_GT(eng.messages().transfers, 0u);

    for (const unsigned workers : {1u, 2u, 8u}) {
      SCOPED_TRACE("steal=" + std::to_string(steal_on) +
                   " workers=" + std::to_string(workers));
      auto rt_model = make_model(WhichModel::kBurst, n);
      rt::RtConfig cfg;
      cfg.n = n;
      cfg.seed = seed;
      cfg.workers = workers;
      cfg.policy = rt::RtPolicy::kThreshold;
      cfg.params = params;
      cfg.steal = steal;
      cfg.telemetry = true;
      cfg.telemetry_interval = 1;
      rt::Runtime run(cfg, rt_model.get());
      for (std::uint64_t s = 0; s < steps; ++s) {
        deposit_spikes(s, [&](std::uint32_t p, sim::Task t) {
          run.deposit(p, t);
        });
        run.run(1);
        ASSERT_EQ(run.running_max_load(), running_max[s]) << "step " << s;
      }
      // One snapshot line per worker per step: sum its shard loads by step.
      std::vector<std::uint64_t> summed(steps, 0);
      std::uint64_t lines = 0;
      const std::string& jsonl = run.telemetry_jsonl();
      const auto field = [&](std::size_t line, const std::string& key) {
        const std::size_t at = jsonl.find("\"" + key + "\":", line);
        return std::strtoull(jsonl.c_str() + at + key.size() + 3, nullptr, 10);
      };
      for (std::size_t line = 0; line < jsonl.size();
           line = jsonl.find('\n', line) + 1) {
        summed.at(field(line, "step")) += field(line, "shard_load");
        ++lines;
      }
      EXPECT_EQ(lines, steps * workers);
      for (std::uint64_t s = 0; s < steps; ++s) {
        EXPECT_EQ(summed[s], total[s]) << "step " << s;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// rt::diff
// ---------------------------------------------------------------------------

/// A spiked threshold run with both sojourn clocks on, so every group diff
/// compares (and each wall-clock field it leaves out) is populated.
DiffRun diff_run(unsigned workers) {
  const std::uint64_t n = 192;
  DiffRun r{make_model(WhichModel::kBurst, n), nullptr};
  rt::RtConfig cfg;
  cfg.n = n;
  cfg.seed = 2;
  cfg.workers = workers;
  cfg.policy = rt::RtPolicy::kThreshold;
  core::Fractions f;
  f.t_min = 64;
  cfg.params = core::PhaseParams::from_n(n, f);
  cfg.track_sojourn = true;
  cfg.time_sojourn = true;
  r.run = std::make_unique<rt::Runtime>(cfg, r.model.get());
  drive(*r.run, 48, cfg.seed, n);
  return r;
}

/// Own copies of `procs` (unbound queues), for perturbing a processor.
std::vector<rt::RtProcessor> clone(std::span<const rt::RtProcessor> procs) {
  std::vector<rt::RtProcessor> out(procs.size());
  for (std::size_t p = 0; p < procs.size(); ++p) {
    const rt::RtProcessor& a = procs[p];
    rt::RtProcessor& b = out[p];
    for (const rt::RtTask& t : a.queue) b.queue.push_back(t);
    b.generated = a.generated;
    b.consumed = a.consumed;
    b.consumed_on_origin = a.consumed_on_origin;
    b.tasks_sent = a.tasks_sent;
    b.tasks_received = a.tasks_received;
    b.balance_initiations = a.balance_initiations;
  }
  return out;
}

/// The first processor with at least one queued task.
std::size_t first_queued(std::span<const rt::RtProcessor> procs) {
  std::size_t p = 0;
  while (p < procs.size() && procs[p].queue.size() == 0) ++p;
  return p;
}

/// Rebuilds p's queue with `edit` applied to its first task.
template <typename Edit>
void edit_first_task(std::vector<rt::RtProcessor>& procs, std::size_t p,
                     Edit edit) {
  std::vector<rt::RtTask> tasks;
  for (const rt::RtTask& t : procs[p].queue) tasks.push_back(t);
  edit(tasks[0]);
  procs[p].queue = rt::TaskQueue();
  for (const rt::RtTask& t : tasks) procs[p].queue.push_back(t);
}

TEST(RunResultDiff, EqualRunsGiveEmpty) {
  const DiffRun one = diff_run(1);
  const DiffRun four = diff_run(4);
  EXPECT_EQ(rt::diff(one.run->result(), one.run->result()), "");
  EXPECT_EQ(rt::diff(four.run->result(), four.run->result()), "");
  EXPECT_EQ(rt::diff(one.run->result(), four.run->result()), "");
  // A copy over cloned processors is the same run too (clone() is complete).
  rt::RunResult copy = one.run->result();
  const std::vector<rt::RtProcessor> procs = clone(copy.procs);
  copy.procs = procs;
  EXPECT_EQ(rt::diff(one.run->result(), copy), "");
}

TEST(RunResultDiff, NamesTheFirstDivergentField) {
  const DiffRun r = diff_run(1);
  const rt::RunResult& a = r.run->result();
  ASSERT_GE(a.out.ledger.size(), 3u);
  ASSERT_GE(a.out.phases.size(), 2u);
  ASSERT_FALSE(a.out.phases[1].heavy_procs.empty());
  ASSERT_GT(a.out.sojourn_steps.total(), 0u);
  const std::size_t q = first_queued(a.procs);
  ASSERT_LT(q, a.procs.size());

  // Each perturbation of a copy must be named, with both values.
  const auto named = [&](const rt::RunResult& b, const std::string& field) {
    const std::string d = rt::diff(a, b);
    EXPECT_EQ(d.rfind(field + ": a=", 0), 0u) << "want " << field << ", got "
                                              << d;
  };
  rt::RunResult b = a;
  b.out.msg.accepts += 1;
  named(b, "msg.accepts");
  b = a;
  b.out.dup_suppressed += 1;
  named(b, "dup_suppressed");
  b = a;
  b.out.ledger[2].count += 1;
  named(b, "ledger[2]");
  b = a;
  b.out.phases[1].end_step += 1;
  named(b, "phases[1].end_step");
  b = a;
  b.out.phases[1].heavy_procs[0] += 1;
  named(b, "phases[1].heavy_procs[0]");
  b = a;
  b.out.sojourn_steps.add(1);
  named(b, "sojourn_steps[1]");

  b = a;
  std::vector<rt::RtProcessor> procs = clone(a.procs);
  procs[5].tasks_received += 1;
  b.procs = procs;
  named(b, "proc[5].tasks_received");
  procs = clone(a.procs);
  edit_first_task(procs, q, [](rt::RtTask& t) { t.task.origin += 1; });
  b.procs = procs;
  named(b, "proc[" + std::to_string(q) + "].queue[0]");
}

TEST(RunResultDiff, IgnoresWallClockAndWitnesses) {
  const DiffRun r = diff_run(1);
  const rt::RunResult& a = r.run->result();
  ASSERT_GT(a.out.sojourn_us.count(), 0u);
  const std::size_t q = first_queued(a.procs);
  ASSERT_LT(q, a.procs.size());

  rt::RunResult b = a;
  b.out.sojourn_us.add(12345);
  EXPECT_EQ(rt::diff(a, b), "");
  b = a;
  b.out.mutation_applied += 1;
  EXPECT_EQ(rt::diff(a, b), "");
  b = a;
  b.out.dropped_tasks += 4;
  b.out.dropped.push_back(rt::LedgerEntry{1, 2, 3, 4});
  EXPECT_EQ(rt::diff(a, b), "");
  std::vector<rt::RtProcessor> procs = clone(a.procs);
  edit_first_task(procs, q, [](rt::RtTask& t) { t.birth_us += 777; });
  b = a;
  b.procs = procs;
  EXPECT_EQ(rt::diff(a, b), "");
}

TEST(RunResultDiff, PhaseLogSameWhetherInspectedEachStepOrOnce) {
  // result() takes the completed phases from the kernel at every rebuild
  // and copies the one still open, whose end is written later: a run
  // inspected after every step must read the same as one inspected once.
  const std::uint64_t n = 192;
  rt::RtConfig cfg;
  cfg.n = n;
  cfg.seed = 4;
  cfg.workers = 2;
  cfg.policy = rt::RtPolicy::kThreshold;
  core::Fractions f;
  f.t_min = 64;
  cfg.params = core::PhaseParams::from_n(n, f);
  cfg.latency = 3;
  const auto run = [&](bool inspect_each_step, bool& saw_open) {
    auto model = make_model(WhichModel::kSingle, n);
    auto r = std::make_unique<rt::Runtime>(cfg, model.get());
    for (std::uint32_t s = 0; s < 160; ++s) {
      if (s % 29 == 0) {
        const auto p = static_cast<std::uint32_t>(s * 7 % n);
        for (int i = 0; i < 40; ++i) r->deposit(p, sim::Task{s, p, 1});
      }
      r->run(1);
      if (inspect_each_step) {
        const std::vector<rt::RtPhaseSummary>& ph = r->result().out.phases;
        saw_open |= !ph.empty() && !ph.back().completed;
      }
    }
    return DiffRun{std::move(model), std::move(r)};
  };
  bool saw_open = false, unused = false;
  const DiffRun each = run(true, saw_open);
  const DiffRun once = run(false, unused);
  EXPECT_TRUE(saw_open);
  EXPECT_GE(once.run->result().out.phases.size(), 4u);
  EXPECT_EQ(rt::diff(each.run->result(), once.run->result()), "");
}

}  // namespace
