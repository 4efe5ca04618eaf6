// The runtime oracle: drives rt::Runtime scenarios and checks them against
// the strongest reference available.
//
// Threshold / unbalanced scenarios run in lockstep with a shadow
// sim::Engine (same seed, model, phase parameters): after every step the
// total loads must agree, and periodically — plus at the end — every queue
// must match task-by-task in FIFO order, along with message counters and
// the applied-transfer ledger. This is an *identity* check: the
// kMailboxDrop mutation keeps the sender's books consistent (count
// conservation stays green by design, see rt::RtConfig), so only the
// missing tasks on the receiver's queue can convict it.
//
// All-in-air scenarios use per-processor scatter streams that deliberately
// differ from the serial baseline's single global stream, so there is no
// engine to compare against; they are checked for count conservation every
// step and for a bit-identical replay under a different worker count.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/params.hpp"
#include "dist/dist_balancer.hpp"
#include "rt/runtime.hpp"
#include "sim/engine.hpp"
#include "testing/oracle.hpp"
#include "util/check.hpp"

namespace clb::testing {

namespace {

rt::RtPolicy policy_of(const Scenario& s) {
  switch (s.balancer) {
    case BalancerKind::kNone: return rt::RtPolicy::kNone;
    case BalancerKind::kAllInAir: return rt::RtPolicy::kAllInAir;
    case BalancerKind::kStaleSq: return rt::RtPolicy::kStaleSq;
    case BalancerKind::kLocalSearch: return rt::RtPolicy::kLocalSearch;
    default: return rt::RtPolicy::kThreshold;
  }
}

/// A runtime scenario with overrides re-applied into the runtime envelope
/// (the shrinker's --n floor of 16 is below the runtime's n > 16 CHECK).
Scenario sanitized(const Scenario& in) {
  Scenario s = in;
  if (s.n < 32) s.n = 32;
  return s;
}

struct RtRun {
  std::unique_ptr<sim::LoadModel> model;
  std::unique_ptr<rt::Runtime> run;
};

RtRun build_rt(const Scenario& s, unsigned workers) {
  RtRun r;
  r.model = build_runtime(s).model;
  rt::RtConfig cfg;
  cfg.n = s.n;
  cfg.seed = s.engine_seed;
  cfg.workers = workers;
  cfg.deterministic = true;
  cfg.policy = policy_of(s);
  if (cfg.policy == rt::RtPolicy::kThreshold) {
    core::Fractions fr;
    fr.t_min = s.t_min;
    cfg.params = core::PhaseParams::from_n(s.n, fr);
    cfg.game = collision::CollisionConfig{s.a, s.b, s.c, 0};
    if (s.rt_latency) {
      cfg.latency = s.latency;
      cfg.link.jitter = s.link_jitter;
      cfg.link.bandwidth = s.link_bandwidth;
      cfg.link.loss_per_64k = s.link_loss;
    }
  }
  cfg.stale = baselines::StaleSqConfig{s.stale_staleness, s.stale_gap};
  cfg.ls = baselines::LocalSearchConfig{s.ls_min_load};
  cfg.crashes = s.crashes;
  cfg.steal.enabled =
      s.rt_steal || s.mutation == sim::MutationKind::kStealDuplicateTask;
  // The runtime fault as one {kind, ordinal} pair; ordinal kinds hit the
  // first event (later ordinals risk never firing on lightly loaded
  // scenarios). Engine kinds inject through sim::Engine and stay off here,
  // as does crash-lose-queue on a crash-free scenario: it has nothing to
  // lose, and the runtime's config check refuses it without a schedule.
  const sim::MutationInfo& m = sim::mutation_info(s.mutation);
  if (m.site == sim::MutationSite::kRuntime &&
      (s.mutation != sim::MutationKind::kCrashLoseQueue ||
       !cfg.crashes.empty())) {
    cfg.mutation = s.mutation;
    cfg.mutation_ordinal = m.ordinal ? 1 : 0;
  }
  r.run = std::make_unique<rt::Runtime>(cfg, r.model.get());
  return r;
}

void apply_rt_faults(const Scenario& s, rt::Runtime& run, std::uint64_t step) {
  for (const FaultEvent& ev : s.faults) {
    if (ev.step != step) continue;
    for (std::uint32_t i = 0; i < ev.tasks; ++i) {
      run.deposit(ev.proc,
                  sim::Task{static_cast<std::uint32_t>(step), ev.proc, 1});
    }
  }
}

/// Element-wise queue comparison (the FIFO/identity oracle).
bool queues_match(const sim::Engine& eng, const rt::RunResult& run,
                  std::uint64_t* bad_proc, std::string* what) {
  for (std::uint64_t p = 0; p < eng.n(); ++p) {
    const sim::Processor& sp = eng.processor(p);
    const rt::RtProcessor& rp = run.processor(p);
    if (sp.load() != rp.queue.size()) {
      *bad_proc = p;
      *what = "queue length " + std::to_string(rp.queue.size()) +
              " != engine's " + std::to_string(sp.load());
      return false;
    }
    for (std::uint64_t i = 0; i < sp.load(); ++i) {
      const sim::Task& a = sp.queue.at(i);
      const sim::Task& b = rp.queue[i].task;
      if (a.birth_step != b.birth_step || a.origin != b.origin) {
        *bad_proc = p;
        *what = "task identity diverges at FIFO position " +
                std::to_string(i);
        return false;
      }
    }
  }
  return true;
}

OracleReport run_against_engine(const Scenario& s) {
  RtRun main = build_rt(s, s.threads);

  // The shadow engine: same model family, seed and (for threshold) phase
  // parameters. build_runtime already realises the scenario's threshold
  // balancer with the runtime-compatible options (clamp_to_runtime zeroed
  // the spread/preround/prune/streaming/weight dimensions), so it can be
  // reused verbatim; the capture wrapper replays the engine's clamp rule on
  // scheduled transfers into a ledger comparable with rt::Runtime's.
  // Latency scenarios instead shadow dist::DistThresholdBalancer — the
  // protocol the latency fabric mirrors message for message.
  ScenarioRuntime shadow = build_runtime(s);
  std::unique_ptr<dist::DistThresholdBalancer> dist_shadow;
  sim::Balancer* inner = shadow.balancer.get();
  if (s.rt_latency) {
    dist::DistConfig dc;
    core::Fractions fr;
    fr.t_min = s.t_min;
    dc.params = core::PhaseParams::from_n(s.n, fr);
    dc.a = s.a;
    dc.b = s.b;
    dc.c = s.c;
    dc.latency = s.latency;
    // Same link model as the runtime (the shadow stays clean: scenario
    // mutations only ever reach the rt side).
    dc.link.jitter = s.link_jitter;
    dc.link.bandwidth = s.link_bandwidth;
    dc.link.loss_per_64k = s.link_loss;
    dist_shadow = std::make_unique<dist::DistThresholdBalancer>(dc);
    inner = dist_shadow.get();
  }
  CaptureBalancer cap(inner);
  sim::EngineConfig ec{.n = s.n, .seed = s.engine_seed,
                       .liveness = shadow.liveness.get()};
  // The shadow steals with the same pure rule (the mutation, if any, only
  // ever reaches the rt side).
  if (s.rt_steal || s.mutation == sim::MutationKind::kStealDuplicateTask) {
    ec.steal.enabled = true;
  }
  sim::Engine eng(ec, shadow.model.get(), &cap);

  std::vector<rt::LedgerEntry> engine_ledger;
  cap.set_post_capture_hook([&](sim::Engine& e) {
    for (const sim::Transfer& t : cap.captured()) {
      engine_ledger.push_back(
          {e.step(), t.from, t.to,
           static_cast<std::uint32_t>(
               std::min<std::uint64_t>(t.count, e.load(t.from)))});
    }
  });

  for (std::uint64_t step = 0; step < s.steps; ++step) {
    apply_rt_faults(s, *main.run, step);
    for (const FaultEvent& ev : s.faults) {
      if (ev.step != step) continue;
      for (std::uint32_t i = 0; i < ev.tasks; ++i) {
        eng.deposit(ev.proc,
                    sim::Task{static_cast<std::uint32_t>(step), ev.proc, 1});
      }
    }
    main.run->run(1);
    eng.step_once();

    const rt::RunResult& res = main.run->result();
    if (!res.conservation_holds()) {
      return OracleReport::failure(
          step, "runtime count conservation violated: generated + deposited "
                "!= consumed + queued + dropped");
    }
    if (res.total_load() != eng.total_load()) {
      return OracleReport::failure(
          step, "runtime total load " + std::to_string(res.total_load()) +
                    " != engine total load " +
                    std::to_string(eng.total_load()));
    }
    // Full identity sweep periodically and on the last step; O(total load),
    // so every 8th step keeps the fuzz sweep affordable while still
    // pinpointing a violation within one phase or two.
    if (step % 8 == 7 || step + 1 == s.steps) {
      std::uint64_t bad_proc = 0;
      std::string what;
      if (!queues_match(eng, res, &bad_proc, &what)) {
        return OracleReport::failure(
            step, "FIFO/identity divergence on processor " +
                      std::to_string(bad_proc) + ": " + what);
      }
    }
  }

  const rt::RunResult& res = main.run->result();
  const sim::MessageCounters& em = eng.messages();
  const sim::MessageCounters& rm = res.out.msg;
  if (em.queries != rm.queries || em.accepts != rm.accepts ||
      em.id_messages != rm.id_messages || em.control != rm.control ||
      em.transfers != rm.transfers || em.tasks_moved != rm.tasks_moved) {
    return OracleReport::failure(s.steps,
                                 "message counters diverge from engine");
  }
  if (eng.clamped_transfers() != res.out.clamped) {
    return OracleReport::failure(s.steps, "clamped-transfer counts diverge");
  }
  if (eng.rehomed_tasks() != res.out.rehomed_tasks ||
      eng.rehomed_events() != res.out.rehomed_events) {
    return OracleReport::failure(
        s.steps, "crash re-home accounting diverges from engine (" +
                     std::to_string(res.out.rehomed_tasks) + "/" +
                     std::to_string(res.out.rehomed_events) + " vs " +
                     std::to_string(eng.rehomed_tasks()) + "/" +
                     std::to_string(eng.rehomed_events()) + ")");
  }

  // Ledger comparison, both sides canonically sorted. The runtime books
  // steals into its ledger alongside balancer transfers; merge the engine's
  // steal log in before sorting so both sides carry the same event set.
  // A steal and a phase transfer may share (step, from, to), so `count`
  // joins the sort key to keep the order total.
  for (const sim::StealRecord& t : eng.steal_log()) {
    engine_ledger.push_back({t.step, t.from, t.to, t.count});
  }
  std::sort(engine_ledger.begin(), engine_ledger.end(),
            [](const rt::LedgerEntry& a, const rt::LedgerEntry& b) {
              if (a.step != b.step) return a.step < b.step;
              if (a.from != b.from) return a.from < b.from;
              if (a.to != b.to) return a.to < b.to;
              return a.count < b.count;
            });
  const std::vector<rt::LedgerEntry>& rt_ledger = res.out.ledger;
  if (engine_ledger.size() != rt_ledger.size()) {
    return OracleReport::failure(s.steps, "transfer ledger sizes diverge");
  }
  for (std::size_t i = 0; i < rt_ledger.size(); ++i) {
    const rt::LedgerEntry& a = engine_ledger[i];
    const rt::LedgerEntry& b = rt_ledger[i];
    if (a.step != b.step || a.from != b.from || a.to != b.to ||
        a.count != b.count) {
      return OracleReport::failure(s.steps, "transfer ledger entry " +
                                               std::to_string(i) +
                                               " diverges from engine");
    }
  }

  if (dist_shadow != nullptr) {
    // Latency fabrics additionally agree phase by phase: same start/end
    // step (duration ∝ latency rides on this), same matching outcome.
    const std::vector<dist::DistPhaseRecord>& dl =
        dist_shadow->stats().phase_log;
    std::vector<const rt::RtPhaseSummary*> completed;
    for (const rt::RtPhaseSummary& ps : res.out.phases) {
      if (ps.completed) completed.push_back(&ps);
    }
    if (completed.size() != dl.size()) {
      return OracleReport::failure(
          s.steps, "completed phase counts diverge from dist shadow (" +
                       std::to_string(completed.size()) + " vs " +
                       std::to_string(dl.size()) + ")");
    }
    for (std::size_t i = 0; i < dl.size(); ++i) {
      const dist::DistPhaseRecord& a = dl[i];
      const rt::RtPhaseSummary& b = *completed[i];
      if (a.phase_index != b.phase_index || a.start_step != b.start_step ||
          a.end_step != b.end_step || a.num_heavy != b.num_heavy ||
          a.matched != b.matched || a.unmatched != b.unmatched ||
          a.forced != b.forced) {
        return OracleReport::failure(s.steps,
                                     "phase record " + std::to_string(i) +
                                         " diverges from dist shadow");
      }
    }
  }
  return OracleReport{};
}

OracleReport run_air(const Scenario& s) {
  RtRun main = build_rt(s, s.threads);
  for (std::uint64_t step = 0; step < s.steps; ++step) {
    apply_rt_faults(s, *main.run, step);
    main.run->run(1);
    if (!main.run->result().conservation_holds()) {
      return OracleReport::failure(
          step, "runtime count conservation violated (all-in-air)");
    }
  }

  // Determinism: a fresh runtime with a different worker count must land on
  // the bit-identical state.
  RtRun replay = build_rt(s, s.threads_replay);
  for (std::uint64_t step = 0; step < s.steps; ++step) {
    apply_rt_faults(s, *replay.run, step);
    replay.run->run(1);
  }
  const std::string split =
      rt::diff(main.run->result(), replay.run->result());
  if (!split.empty()) {
    return OracleReport::failure(
        s.steps, "all-in-air runtime is not deterministic across worker "
                 "counts (" +
                     std::to_string(s.threads) + " vs " +
                     std::to_string(s.threads_replay) + "): " + split);
  }
  return OracleReport{};
}

}  // namespace

OracleReport run_rt_scenario(const Scenario& in) {
  CLB_CHECK(in.runtime, "run_rt_scenario needs a runtime scenario");
  const Scenario s = sanitized(in);
  OracleReport r = policy_of(s) == rt::RtPolicy::kAllInAir
                       ? run_air(s)
                       : run_against_engine(s);
  if (sim::mutation_info(s.mutation).site == sim::MutationSite::kRuntime) {
    // Report whether the fault actually fired — a scenario that never
    // offers its hook a victim (no transfer, no lost attempt, no non-empty
    // crashed queue, ...) cannot convict anything, and the harness counts
    // such runs separately. Deterministic mode makes the single-threaded
    // replay fire exactly where the checked run did, so its witness answers
    // the question; a second run is cheap at fuzz sizes.
    RtRun probe = build_rt(s, 1);
    for (std::uint64_t step = 0; step < s.steps; ++step) {
      apply_rt_faults(s, *probe.run, step);
      probe.run->run(1);
    }
    r.mutation_applied = probe.run->result().out.mutation_applied > 0;
  }
  return r;
}

}  // namespace clb::testing
