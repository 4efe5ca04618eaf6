// Bit-for-bit equivalence of rt::Runtime against its serial specification,
// sim::Engine + core::ThresholdBalancer (testing::Reference): the same seed
// must yield the same rt::RunResult — classifications, transfer ledger,
// every counter and the final per-task queue contents — for ANY worker
// count, so each check is one rt::diff against the reference's result.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/params.hpp"
#include "models/burst.hpp"
#include "models/single.hpp"
#include "rt/runtime.hpp"
#include "sim/engine.hpp"
#include "testing/reference.hpp"

namespace {

using namespace clb;
using clb::testing::Reference;

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

/// Runs `steps` steps on `run` (an rt::Runtime or a testing::Reference),
/// depositing spikes_for(seed, n) on the way.
template <typename Run>
void drive(Run& run, std::uint64_t steps, std::uint64_t seed,
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

/// A runtime or a reference and the model it reads, which must outlive it.
template <typename Run>
struct Owned {
  std::unique_ptr<sim::LoadModel> model;
  std::unique_ptr<Run> run;
};

template <typename Run>
Owned<Run> build(const rt::RtConfig& cfg, WhichModel which) {
  Owned<Run> r{make_model(which, cfg.n), nullptr};
  r.run = std::make_unique<Run>(cfg, r.model.get());
  return r;
}

/// `cfg` run for `steps` steps with the spikes deposited.
template <typename Run>
Owned<Run> run_of(const rt::RtConfig& cfg, WhichModel which,
                  std::uint64_t steps) {
  Owned<Run> r = build<Run>(cfg, which);
  drive(*r.run, steps, cfg.seed, cfg.n);
  return r;
}

rt::RtConfig threshold_config(std::uint64_t n, std::uint64_t seed,
                              const core::PhaseParams& params,
                              const sim::StealConfig& steal = {}) {
  rt::RtConfig cfg;
  cfg.n = n;
  cfg.seed = seed;
  cfg.policy = rt::RtPolicy::kThreshold;
  cfg.params = params;
  cfg.steal = steal;
  return cfg;
}

/// The runtime at each worker count must give the reference's result, and
/// both must conserve tasks (rt::diff leaves the drop counters out).
void expect_matches(const rt::RunResult& want, rt::RtConfig cfg,
                    WhichModel which, std::uint64_t steps,
                    std::initializer_list<unsigned> workers) {
  EXPECT_TRUE(want.conservation_holds()) << "reference";
  for (const unsigned w : workers) {
    cfg.workers = w;
    const Owned<rt::Runtime> got = run_of<rt::Runtime>(cfg, which, steps);
    const rt::RunResult& res = got.run->result();
    EXPECT_EQ(rt::diff(want, res), "")
        << model_name(which) << " seed=" << cfg.seed << " workers=" << w;
    EXPECT_TRUE(res.conservation_holds()) << "workers=" << w;
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

  const rt::RtConfig cfg = threshold_config(n, seed, params);
  const auto ref = run_of<Reference>(cfg, which, steps);
  expect_matches(ref.run->result(), cfg, which, steps, {1, 2, 8});
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
  const rt::RtConfig cfg = threshold_config(n, 5, params);
  const auto ref = run_of<Reference>(cfg, WhichModel::kSingle, steps);
  expect_matches(ref.run->result(), cfg, WhichModel::kSingle, steps,
                 {1, 3, 8});
}

// NoBalancing policy: generation/consumption alone must already match the
// engine exactly (same per-processor Philox streams, any worker count).
TEST(RtEquivalenceNone, UnbalancedMatchesEngine) {
  const std::uint64_t steps = 64;
  rt::RtConfig cfg;
  cfg.n = 128;
  cfg.seed = 11;
  cfg.policy = rt::RtPolicy::kNone;
  const auto ref = run_of<Reference>(cfg, WhichModel::kBurst, steps);
  expect_matches(ref.run->result(), cfg, WhichModel::kBurst, steps, {4});
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

  auto run_air = [&](unsigned workers) {
    rt::RtConfig cfg;
    cfg.n = n;
    cfg.seed = 7;
    cfg.workers = workers;
    cfg.policy = rt::RtPolicy::kAllInAir;
    Owned<rt::Runtime> r = build<rt::Runtime>(cfg, WhichModel::kSingle);
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

  const Owned<rt::Runtime> base = run_air(1);
  EXPECT_GT(base.run->result().out.msg.transfers, 0u);
  for (const unsigned workers : {2u, 8u}) {
    const Owned<rt::Runtime> other = run_air(workers);
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

  const rt::RtConfig cfg = threshold_config(n, 2, params, steal);
  const auto ref = run_of<Reference>(cfg, WhichModel::kBurst, steps);
  const rt::RunResult& want = ref.run->result();
  if (steal_on) {
    // The burst spikes guarantee loaded victims while quiet processors run
    // dry, so an all-green run with zero steals would be vacuous.
    EXPECT_GT(want.out.steal_events, 0u);
  }
  expect_matches(want, cfg, WhichModel::kBurst, steps, {1, 2, 8});
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

  const rt::RtConfig cfg = threshold_config(n, 3, params, steal);
  const auto ref = run_of<Reference>(cfg, WhichModel::kBurst, steps);
  const rt::RunResult& want = ref.run->result();
  EXPECT_GT(want.out.steal_events, 0u);
  expect_matches(want, cfg, WhichModel::kBurst, steps, {1, 4});
}

// The sweep classifies every processor from its post-generation load, and
// the steal pass runs between it and the phase, so a steal that takes a
// victim below the heavy threshold and lifts a thief above the light
// threshold must reclassify both. Default fractions at n = 192 (T = 16:
// heavy 8, light 1, a phase every step) and 4-task steal batches make
// that happen: a victim at 8..11 tasks drops below 8, a dry thief rises to
// 4. The engine classifies after its steals, so it is the reference.
TEST(RtEquivalenceStealClasses, StealFlipsClassesBeforeThePhase) {
  const std::uint64_t n = 192;
  const std::uint64_t steps = 48;
  const core::PhaseParams params = core::PhaseParams::from_n(n);
  ASSERT_EQ(params.phase_len, 1u);
  sim::StealConfig steal;
  steal.enabled = true;
  const rt::RtConfig cfg = threshold_config(n, 5, params, steal);

  // Steps on which a steal took a victim below the heavy threshold and gave
  // a thief more than the light threshold. The balancer classified the
  // post-steal loads; undoing this step's steals shows what a
  // classification before them would have said.
  std::uint64_t flip_steps = 0;
  auto ref = build<Reference>(cfg, WhichModel::kBurst);
  ref.run->on_decided([&](const sim::Engine& e) {
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
    if (victim_flip && thief_flip) ++flip_steps;
  });
  drive(*ref.run, steps, cfg.seed, n);
  EXPECT_GT(flip_steps, 0u);
  expect_matches(ref.run->result(), cfg, WhichModel::kBurst, steps,
                 {1, 2, 4});
}

// The end-of-step load reduction reads per-block summaries that the
// generate/consume sweep writes and only rescans the blocks whose queues
// changed later in the step, so check it where every block boundary can
// hide a stale summary: several 256-processor blocks per shard, transfers
// between blocks on every step, and a receiver that can end the step as the
// unique maximum (light 7 and transfer 8 at T = 16: a light ends at up to
// 15 while its heavy sender ends at its load minus 8). After each step the
// runtime's running max and its summed snapshot shard loads (telemetry
// snapshot every step) must equal the reference's, and at the end so must
// the whole result.
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
    rt::RtConfig cfg = threshold_config(n, seed, params, steal);
    cfg.telemetry = true;
    cfg.telemetry_interval = 1;
    const std::vector<Spike> spikes = spikes_for(seed, n);
    const auto deposit_spikes = [&](std::uint64_t s, auto& run) {
      for (const Spike& sp : spikes) {
        if (sp.step != s) continue;
        for (std::uint32_t i = 0; i < sp.tasks; ++i) {
          run.deposit(sp.proc,
                      sim::Task{static_cast<std::uint32_t>(s), sp.proc, 1});
        }
      }
    };
    auto ref = build<Reference>(cfg, WhichModel::kBurst);
    std::vector<std::uint64_t> total(steps), running_max(steps);
    for (std::uint64_t s = 0; s < steps; ++s) {
      deposit_spikes(s, *ref.run);
      ref.run->run(1);
      total[s] = ref.run->engine().total_load();
      running_max[s] = ref.run->engine().running_max_load();
    }
    const rt::RunResult& want = ref.run->result();
    EXPECT_GT(want.out.msg.transfers, 0u);

    for (const unsigned workers : {1u, 2u, 8u}) {
      SCOPED_TRACE("steal=" + std::to_string(steal_on) +
                   " workers=" + std::to_string(workers));
      cfg.workers = workers;
      auto rt_model = make_model(WhichModel::kBurst, n);
      rt::Runtime run(cfg, rt_model.get());
      for (std::uint64_t s = 0; s < steps; ++s) {
        deposit_spikes(s, run);
        run.run(1);
        ASSERT_EQ(run.running_max_load(), running_max[s]) << "step " << s;
      }
      EXPECT_EQ(rt::diff(want, run.result()), "");
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
Owned<rt::Runtime> diff_run(unsigned workers) {
  const std::uint64_t n = 192;
  core::Fractions f;
  f.t_min = 64;
  rt::RtConfig cfg = threshold_config(n, 2, core::PhaseParams::from_n(n, f));
  cfg.workers = workers;
  cfg.track_sojourn = true;
  cfg.time_sojourn = true;
  return run_of<rt::Runtime>(cfg, WhichModel::kBurst, 48);
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
  const Owned<rt::Runtime> one = diff_run(1);
  const Owned<rt::Runtime> four = diff_run(4);
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
  const Owned<rt::Runtime> r = diff_run(1);
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
  const Owned<rt::Runtime> r = diff_run(1);
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
    return Owned<rt::Runtime>{std::move(model), std::move(r)};
  };
  bool saw_open = false, unused = false;
  const Owned<rt::Runtime> each = run(true, saw_open);
  const Owned<rt::Runtime> once = run(false, unused);
  EXPECT_TRUE(saw_open);
  EXPECT_GE(once.run->result().out.phases.size(), 4u);
  EXPECT_EQ(rt::diff(each.run->result(), once.run->result()), "");
}

}  // namespace
