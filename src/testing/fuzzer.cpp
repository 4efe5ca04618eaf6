#include "testing/fuzzer.hpp"

#include <cstdio>

namespace clb::testing {

Scenario materialize(const FuzzOptions& opt, std::uint64_t index) {
  Scenario s = Scenario::sample(opt.scenario_seed, index);

  if (opt.mutate != sim::MutationKind::kNone) {
    s.mutation = opt.mutate;
    // Mutations are engine-state faults; collision games have none. A
    // scenario sampled as collision-only carries protocol constants from
    // the wider standalone-game ranges — clamp them back into the
    // threshold balancer's envelope (binary trees: b in {1, 2}).
    s.collision_only = false;
    if (s.a < 4) s.a = 5;
    if (s.b > 2) s.b = 2;
    if (s.c > 2) s.c = 2;
    if (opt.mutate == sim::MutationKind::kMailboxDrop ||
        opt.mutate == sim::MutationKind::kDelaySkew ||
        opt.mutate == sim::MutationKind::kLinkLossNoRetransmit ||
        opt.mutate == sim::MutationKind::kDupDelivery) {
      // These faults live in rt::Runtime; conviction needs the threshold
      // policy, whose rt runs are cross-validated task-by-task against the
      // simulator (mailbox-drop) / the dist shadow (the latency-fabric
      // mutations).
      s.balancer = BalancerKind::kThreshold;
      clamp_to_runtime(s);
      if (opt.mutate == sim::MutationKind::kDelaySkew) {
        // The skewed fabric only exists in latency mode; a delay of 1 step
        // cannot be shortened, and the victim ordinal counts sends in
        // arrival order, so a single worker keeps the run replayable.
        s.rt_latency = true;
        if (s.a > 8) s.a = 8;
        if (s.latency < 2) s.latency = 2;
        s.threads = 1;
        s.threads_replay = 1;
      }
      if (opt.mutate == sim::MutationKind::kLinkLossNoRetransmit ||
          opt.mutate == sim::MutationKind::kDupDelivery) {
        // Link mutations need a lossy latency fabric: loss draws gate both
        // the dropped first attempt and the ack-loss duplicate. 50% loss
        // makes either fire within a handful of transfers; a single worker
        // keeps the mutated run replayable.
        s.rt_latency = true;
        if (s.a > 8) s.a = 8;
        s.link_loss = 32768;
        s.threads = 1;
        s.threads_replay = 1;
      }
    } else if (opt.mutate == sim::MutationKind::kCrashLoseQueue) {
      // The vanished queue lives in rt::Runtime's crash handler; an
      // unbalanced run keeps conviction pure (count conservation alone must
      // notice the lost tasks). Force a mid-run crash with a fresh spike on
      // the doomed processor so its queue is guaranteed non-empty.
      s.balancer = BalancerKind::kNone;
      clamp_to_runtime(s);
      s.rt_latency = false;
      const std::uint64_t crash_step = s.steps > 2 ? s.steps / 2 : 1;
      const std::uint32_t victim =
          static_cast<std::uint32_t>(index % s.n);
      s.crashes.clear();
      s.crashes.push_back(core::CrashEvent{crash_step, victim, 8});
      s.faults.push_back(FaultEvent{crash_step - 1, victim, 32});
    } else if (opt.mutate == sim::MutationKind::kStaleFreeLunch) {
      // The cheat lives in the rt stale-SQ policy; the honest engine-side
      // StaleShortestQueue shadow convicts it via queue identity / ledger
      // divergence (totals agree — transfers conserve load either way).
      // Staleness >= 4 guarantees stale and fresh boards actually differ;
      // a spike makes imbalance (and therefore decisions) certain.
      s.balancer = BalancerKind::kStaleSq;
      clamp_to_runtime(s);
      s.rt_latency = false;
      s.stale_staleness = 8;
      s.stale_gap = 2;
      s.crashes.clear();
      s.faults.push_back(FaultEvent{1, static_cast<std::uint32_t>(index % s.n),
                                    64});
    } else if (opt.mutate == sim::MutationKind::kStealDuplicateTask) {
      // The clone lives in rt::Runtime's steal path; an unbalanced run keeps
      // conviction pure (count conservation and queue identity against the
      // engine shadow both notice the extra copies). A spike on one
      // processor guarantees a loaded victim while its neighbours run dry,
      // so steals are certain to fire.
      s.balancer = BalancerKind::kNone;
      clamp_to_runtime(s);
      s.rt_latency = false;
      s.rt_steal = true;
      s.crashes.clear();
      s.faults.push_back(FaultEvent{1, static_cast<std::uint32_t>(index % s.n),
                                    64});
    } else {
      // The remaining mutations inject through sim::Engine's test hooks,
      // which the runtime path never calls.
      s.runtime = false;
    }
    if (opt.mutate == sim::MutationKind::kReorder &&
        s.balancer == BalancerKind::kAllInAir) {
      // AllInAir reshuffles queues wholesale, so the oracle runs in multiset
      // mode and cannot see ordering — give reorder a scheduled-transfer
      // balancer it can be convicted under.
      s.balancer = BalancerKind::kThreshold;
    }
    if (opt.mutate == sim::MutationKind::kPhantomMessage) {
      // Only the threshold balancer's per-phase attribution can notice a
      // message smuggled in outside every phase window; atomic execution
      // guarantees no phase is left open at end of run.
      s.balancer = BalancerKind::kThreshold;
      s.spread_execution = false;
    }
  }

  if (opt.runtime_only) {
    // The TSan long tier: every scenario on real worker threads. Collision
    // games have no runtime form — fold them into engine scenarios first.
    s.collision_only = false;
    if (!s.runtime) clamp_to_runtime(s);
    // Keep the latency fabric under continuous sanitizer pressure: every
    // other eligible scenario runs it (deterministically by index).
    if (s.balancer == BalancerKind::kThreshold && index % 2 == 1) {
      s.rt_latency = true;
      if (s.a > 8) s.a = 8;
      // Rotate the link-model knobs so the sanitizer tier keeps every
      // fabric shape (plain, jittered, shaped, lossy) under pressure
      // regardless of what the organic draws picked.
      switch ((index / 2) % 4) {
        case 1: s.link_jitter = 2; break;
        case 2: s.link_bandwidth = 2; break;
        case 3: s.link_loss = 16384; break;
        default: break;
      }
    }
    // Rotate the steal path on top of the organic draws so this tier keeps
    // it under sanitizer pressure regardless of what the organic draws
    // picked (stealing is instant-fabric only; the sanitizer below drops it
    // from latency scenarios).
    if (index % 4 == 2) s.rt_steal = true;
  }

  if (opt.workload_zoo) {
    // The workload-zoo tier: every scenario drives a production model on
    // rt::Runtime worker threads, rotating the information baselines (and
    // the threshold protocol as control) deterministically by index; every
    // third baseline scenario additionally carries a mid-run crash.
    s.collision_only = false;
    const ModelKind zoo_models[] = {
        ModelKind::kDiurnal, ModelKind::kFlashCrowd, ModelKind::kPareto,
        ModelKind::kZipf,    ModelKind::kHetero,
    };
    s.model = zoo_models[index % 5];
    s.weight_based = false;
    const BalancerKind rotation[] = {
        BalancerKind::kStaleSq, BalancerKind::kLocalSearch,
        BalancerKind::kNone,    BalancerKind::kStaleSq,
        BalancerKind::kLocalSearch, BalancerKind::kThreshold,
    };
    s.balancer = rotation[index % 6];
    s.rt_latency = false;
    s.link_jitter = 0;
    s.link_bandwidth = 0;
    s.link_loss = 0;
    clamp_to_runtime(s);
    s.crashes.clear();
    if (index % 3 == 0 && s.balancer != BalancerKind::kThreshold) {
      core::CrashEvent ev;
      ev.step = s.steps > 2 ? s.steps / 2 : 1;
      ev.proc = static_cast<std::uint32_t>(index % s.n);
      ev.down_steps = 4 + index % 12;
      s.crashes.push_back(ev);
    }
  }

  // Work stealing runs on the instant fabric only; any tier or mutation
  // branch that forced the latency fabric (or dropped back to sim::Engine)
  // on an organically steal-enabled scenario sheds the knob here.
  if (s.rt_latency || !s.runtime) s.rt_steal = false;

  if (opt.n != kNoOverride) {
    s.n = opt.n < 16 ? 16 : opt.n;
    for (FaultEvent& ev : s.faults) ev.proc %= static_cast<std::uint32_t>(s.n);
    for (core::CrashEvent& ev : s.crashes) {
      ev.proc %= static_cast<std::uint32_t>(s.n);
    }
  }
  if (opt.steps != kNoOverride) {
    s.steps = opt.steps < 1 ? 1 : opt.steps;
    std::vector<FaultEvent> kept;
    for (const FaultEvent& ev : s.faults) {
      if (ev.step < s.steps) kept.push_back(ev);
    }
    s.faults = std::move(kept);
    std::vector<core::CrashEvent> crashes_kept;
    for (const core::CrashEvent& ev : s.crashes) {
      if (ev.step < s.steps) crashes_kept.push_back(ev);
    }
    s.crashes = std::move(crashes_kept);
    if (opt.mutate == sim::MutationKind::kCrashLoseQueue && s.crashes.empty()) {
      // Shrinking the horizon must not disarm the mutation: re-pin the
      // doomed crash (and the spike that fills its queue) inside the new
      // range instead of leaving crash-lose-queue armed with no schedule.
      const std::uint64_t crash_step = s.steps > 2 ? s.steps / 2 : 1;
      const std::uint32_t victim = static_cast<std::uint32_t>(index % s.n);
      s.crashes.push_back(core::CrashEvent{crash_step, victim, 8});
      s.faults.push_back(FaultEvent{crash_step - 1, victim, 32});
    }
    if (s.mutation_step >= s.steps) s.mutation_step = s.steps - 1;
  }
  if (opt.max_faults != kNoOverride && s.faults.size() > opt.max_faults) {
    s.faults.resize(opt.max_faults);
  }
  return s;
}

Scenario shrink_failure(const FuzzOptions& opt, const Scenario& failing) {
  const auto fails = [](const Scenario& c) { return !check_scenario(c).ok; };
  const auto candidate = [&](const Scenario& cur, std::uint64_t n,
                             std::uint64_t steps, std::uint64_t max_faults) {
    FuzzOptions o = opt;
    o.n = n;
    o.steps = steps;
    o.max_faults = max_faults;
    return materialize(o, cur.index);
  };

  Scenario cur = failing;

  // Halve n while the failure persists (floor 16 keeps every component's
  // preconditions — collision needs a < n, the threshold realisation needs
  // a non-degenerate machine).
  while (cur.n / 2 >= 16) {
    Scenario cand = candidate(cur, cur.n / 2, cur.steps, cur.faults.size());
    if (!fails(cand)) break;
    cur = cand;
  }

  // Drop fault events: find the smallest prefix that still fails.
  for (std::uint64_t k = 0; k < cur.faults.size(); ++k) {
    Scenario cand = candidate(cur, cur.n, cur.steps, k);
    if (fails(cand)) {
      cur = cand;
      break;
    }
  }

  // Bisect steps down to the earliest still-failing run length.
  std::uint64_t lo = 1, hi = cur.steps;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    Scenario cand = candidate(cur, cur.n, mid, cur.faults.size());
    if (fails(cand)) {
      cur = cand;
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return cur;
}

int run_fuzz(const FuzzOptions& opt) {
  std::uint64_t checked = 0;
  std::uint64_t failures = 0;
  std::uint64_t mutations_armed = 0;

  const auto run_one = [&](std::uint64_t index) {
    const Scenario s = materialize(opt, index);
    if (s.mutation != sim::MutationKind::kNone) ++mutations_armed;
    const OracleReport r = check_scenario(s);
    ++checked;
    if (opt.verbose) {
      std::printf("[%s] #%llu %s\n", r.ok ? "ok" : "FAIL",
                  static_cast<unsigned long long>(index),
                  s.describe().c_str());
    }
    if (r.ok) return;
    ++failures;
    std::printf("FAIL scenario #%llu (step %llu): %s\n",
                static_cast<unsigned long long>(index),
                static_cast<unsigned long long>(r.fail_step), r.what.c_str());
    std::printf("  %s\n", s.describe().c_str());
    Scenario minimal = opt.shrink ? shrink_failure(opt, s) : s;
    if (opt.shrink) {
      const OracleReport mr = check_scenario(minimal);
      std::printf("  shrunk to: %s\n", minimal.describe().c_str());
      std::printf("  minimal failure (step %llu): %s\n",
                  static_cast<unsigned long long>(mr.fail_step),
                  mr.what.c_str());
    }
    std::printf("  repro: %s\n", minimal.repro_command().c_str());
  };

  if (opt.index != kNoOverride) {
    run_one(opt.index);
  } else {
    for (std::uint64_t i = 0; i < opt.count; ++i) run_one(i);
  }

  if (opt.expect_failure) {
    if (failures > 0) {
      std::printf("expect-failure: oracle convicted %llu of %llu mutated "
                  "scenarios — harness self-test passed\n",
                  static_cast<unsigned long long>(failures),
                  static_cast<unsigned long long>(checked));
      return 0;
    }
    std::printf("expect-failure: oracle caught NOTHING across %llu mutated "
                "scenarios (%llu armed) — the oracle is blind\n",
                static_cast<unsigned long long>(checked),
                static_cast<unsigned long long>(mutations_armed));
    return 1;
  }
  std::printf("fuzz: %llu scenarios checked, %llu failures\n",
              static_cast<unsigned long long>(checked),
              static_cast<unsigned long long>(failures));
  return failures == 0 ? 0 : 1;
}

}  // namespace clb::testing
