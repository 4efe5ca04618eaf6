// The runtime oracle: drives rt::Runtime scenarios and checks them against
// the strongest reference available.
//
// Every policy but all-in-air runs in lockstep with a testing::Reference,
// the serial specification of the same config (sim::Engine with the
// threshold balancer, its dist:: form on the latency fabric, or the
// baseline). After every step count conservation must hold and the total
// loads must agree; at the end rt::diff compares the two results in full,
// every queue task by task in FIFO order included. That identity check is
// what convicts the kMailboxDrop mutation, which keeps the sender's books
// consistent (count conservation stays green by design, see rt::RtConfig).
//
// All-in-air scenarios use per-processor scatter streams that deliberately
// differ from the serial baseline's single global stream, so there is no
// engine to compare against; they are checked for count conservation every
// step and for a bit-identical replay under a different worker count.
#include <cstdint>
#include <memory>
#include <string>

#include "core/params.hpp"
#include "rt/runtime.hpp"
#include "testing/oracle.hpp"
#include "testing/reference.hpp"
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

/// Deposits the scenario's spikes for `step` (on a runtime or a Reference).
template <typename Run>
void apply_rt_faults(const Scenario& s, Run& run, std::uint64_t step) {
  for (const FaultEvent& ev : s.faults) {
    if (ev.step != step) continue;
    for (std::uint32_t i = 0; i < ev.tasks; ++i) {
      run.deposit(ev.proc,
                  sim::Task{static_cast<std::uint32_t>(step), ev.proc, 1});
    }
  }
}

OracleReport run_against_engine(const Scenario& s) {
  RtRun main = build_rt(s, s.threads);
  // The shadow: the serial specification of the same config (latency
  // scenarios shadow dist::DistThresholdBalancer, the protocol the latency
  // fabric mirrors message for message). The runtime's fault, if any, never
  // reaches it.
  std::unique_ptr<sim::LoadModel> shadow_model = build_runtime(s).model;
  Reference ref(main.run->config(), shadow_model.get());

  for (std::uint64_t step = 0; step < s.steps; ++step) {
    apply_rt_faults(s, *main.run, step);
    apply_rt_faults(s, ref, step);
    main.run->run(1);
    ref.run(1);

    const rt::RunResult& res = main.run->result();
    if (!res.conservation_holds()) {
      return OracleReport::failure(
          step, "runtime count conservation violated: generated + deposited "
                "!= consumed + queued + dropped");
    }
    if (res.total_load() != ref.engine().total_load()) {
      return OracleReport::failure(
          step, "runtime total load " + std::to_string(res.total_load()) +
                    " != engine total load " +
                    std::to_string(ref.engine().total_load()));
    }
  }

  // Everything else at once: queues task by task in FIFO order (the
  // identity check), every counter, the ledger and the phase log.
  const std::string split = rt::diff(ref.result(), main.run->result());
  if (!split.empty()) {
    return OracleReport::failure(s.steps,
                                 "runtime diverges from the engine: " + split);
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
