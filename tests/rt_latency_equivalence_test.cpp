// Lockstep cross-validation of rt::Runtime's latency fabric against
// sim::Engine + dist::DistThresholdBalancer: with the same seed, latency
// and game parameters, the two fabrics must produce identical
// transfer ledgers, final per-task queue contents, message counters and
// per-phase records (start/end step, heavy count, matched/unmatched,
// forced) — for ANY worker count, for uniform latencies and for per-hop
// topology routing. Both fabrics derive delivery times from the shared
// net::DeliveryPolicy and order deliveries by the shared net::SeqKey, so a
// divergence here means one of them broke the contract.
//
// Also covered, per the latency tier's charter:
//   * the dist phase-duration ∝ latency result reproduced on real threads;
//   * the delay-skew fault (one message delivered a superstep early) is
//     convicted by exactly this cross-check;
//   * the mailbox-drop mutation picks its victim by canonical (step, source)
//     order — the same victim at every worker count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/params.hpp"
#include "dist/dist_balancer.hpp"
#include "models/single.hpp"
#include "net/topology.hpp"
#include "rt/runtime.hpp"
#include "sim/engine.hpp"
#include "testing/oracle.hpp"

namespace {

using namespace clb;

std::unique_ptr<sim::LoadModel> make_model() {
  return std::make_unique<models::SingleModel>(0.45, 0.1);
}

/// Load spikes deposited before a step executes, identically on both sides
/// (guarantees heavy processors, so phases do real matching work).
struct Spike {
  std::uint64_t step;
  std::uint32_t proc;
  std::uint32_t tasks;
};

std::vector<Spike> spikes_for(std::uint64_t seed, std::uint64_t n) {
  const auto p = [&](std::uint64_t k) {
    return static_cast<std::uint32_t>((seed * 7 + k * 13) % n);
  };
  return {{0, p(0), 48}, {11, p(1), 56}, {29, p(2), 64}};
}

struct PhaseRecord {
  std::uint64_t phase_index = 0;
  std::uint64_t start_step = 0;
  std::uint64_t end_step = 0;
  std::uint64_t num_heavy = 0;
  std::uint64_t matched = 0;
  std::uint64_t unmatched = 0;
  bool forced = false;
};

struct RunRecord {
  std::vector<std::vector<sim::Task>> queues;
  std::vector<std::uint64_t> generated;
  std::vector<std::uint64_t> consumed;
  std::vector<std::uint64_t> initiations;
  sim::MessageCounters msg;
  std::uint64_t clamped = 0;
  std::uint64_t running_max = 0;
  std::uint64_t total_load = 0;
  // Link-model counters (all zero on an unshaped fabric). Both fabrics plan
  // every link's sends in the same order, so these must agree exactly.
  std::uint64_t retransmits = 0;
  std::uint64_t dup_suppressed = 0;
  std::uint64_t queued_delay = 0;
  std::vector<rt::LedgerEntry> ledger;
  std::vector<PhaseRecord> phases;
};

struct Lockstep {
  std::uint64_t n = 128;
  std::uint64_t seed = 1;
  std::uint64_t steps = 160;
  std::uint32_t latency = 1;
  const net::Topology* topology = nullptr;
  net::NetConfig link{};
  core::PhaseParams params;

  explicit Lockstep(std::uint64_t n_procs) : n(n_procs) {
    core::Fractions f;
    f.t_min = 64;
    params = core::PhaseParams::from_n(n, f);
  }
};

RunRecord run_dist(const Lockstep& su) {
  auto model = make_model();
  dist::DistConfig dc;
  dc.params = su.params;
  dc.latency = su.latency;
  dc.topology = su.topology;
  dc.link = su.link;
  dist::DistThresholdBalancer inner(dc);
  clb::testing::CaptureBalancer cap(&inner);
  sim::Engine eng({.n = su.n, .seed = su.seed}, model.get(), &cap);

  RunRecord r;
  cap.set_post_capture_hook([&](sim::Engine& e) {
    // After on_step, before apply_transfers: loads are what the protocol
    // saw, so the scheduled counts can be clamped exactly like
    // Engine::apply_transfers will (sources are distinct within a step).
    for (const sim::Transfer& t : cap.captured()) {
      const std::uint64_t cnt =
          std::min<std::uint64_t>(t.count, e.load(t.from));
      r.ledger.push_back(
          {e.step(), t.from, t.to, static_cast<std::uint32_t>(cnt)});
    }
  });

  const std::vector<Spike> spikes = spikes_for(su.seed, su.n);
  for (std::uint64_t s = 0; s < su.steps; ++s) {
    for (const Spike& sp : spikes) {
      if (sp.step != s) continue;
      for (std::uint32_t i = 0; i < sp.tasks; ++i) {
        eng.deposit(sp.proc,
                    sim::Task{static_cast<std::uint32_t>(s), sp.proc, 1});
      }
    }
    eng.step_once();
  }

  for (std::uint64_t p = 0; p < su.n; ++p) {
    const sim::Processor& proc = eng.processor(p);
    std::vector<sim::Task> q;
    for (std::uint64_t i = 0; i < proc.queue.size(); ++i) {
      q.push_back(proc.queue.at(i));
    }
    r.queues.push_back(std::move(q));
    r.generated.push_back(proc.generated);
    r.consumed.push_back(proc.consumed);
    r.initiations.push_back(proc.balance_initiations);
  }
  r.msg = eng.messages();
  r.clamped = eng.clamped_transfers();
  r.running_max = eng.running_max_load();
  r.total_load = eng.total_load();
  r.retransmits = inner.network().retransmits();
  r.dup_suppressed = inner.network().dup_suppressed();
  r.queued_delay = inner.network().link_queued_delay();
  std::sort(r.ledger.begin(), r.ledger.end(),
            [](const rt::LedgerEntry& a, const rt::LedgerEntry& b) {
              if (a.step != b.step) return a.step < b.step;
              if (a.from != b.from) return a.from < b.from;
              return a.to < b.to;
            });
  for (const dist::DistPhaseRecord& pr : inner.stats().phase_log) {
    r.phases.push_back({pr.phase_index, pr.start_step, pr.end_step,
                        pr.num_heavy, pr.matched, pr.unmatched, pr.forced});
  }
  EXPECT_TRUE(eng.conservation_holds());
  return r;
}

/// Runs `su` on the runtime, depositing the spikes between run() calls.
void drive(rt::Runtime& run, const Lockstep& su) {
  const std::vector<Spike> spikes = spikes_for(su.seed, su.n);
  std::uint64_t done = 0;
  for (const Spike& sp : spikes) {
    if (sp.step > done) {
      run.run(sp.step - done);
      done = sp.step;
    }
    for (std::uint32_t i = 0; i < sp.tasks; ++i) {
      run.deposit(sp.proc,
                  sim::Task{static_cast<std::uint32_t>(sp.step), sp.proc, 1});
    }
  }
  run.run(su.steps - done);
}

RunRecord run_rt(const Lockstep& su, unsigned workers,
                 std::uint64_t skew_message = 0) {
  auto model = make_model();
  rt::RtConfig cfg;
  cfg.n = su.n;
  cfg.seed = su.seed;
  cfg.workers = workers;
  cfg.policy = rt::RtPolicy::kThreshold;
  cfg.params = su.params;
  cfg.latency = su.latency;
  cfg.topology = su.topology;
  cfg.link = su.link;
  if (skew_message != 0) {
    cfg.mutation = sim::MutationKind::kDelaySkew;
    cfg.mutation_ordinal = skew_message;
  }
  rt::Runtime run(cfg, model.get());

  drive(run, su);
  const rt::RunResult& res = run.result();

  RunRecord r;
  for (std::uint64_t p = 0; p < su.n; ++p) {
    const rt::RtProcessor& proc = res.processor(p);
    std::vector<sim::Task> q;
    for (const rt::RtTask& t : proc.queue) q.push_back(t.task);
    r.queues.push_back(std::move(q));
    r.generated.push_back(proc.generated);
    r.consumed.push_back(proc.consumed);
    r.initiations.push_back(proc.balance_initiations);
  }
  r.msg = res.out.msg;
  r.clamped = res.out.clamped;
  r.running_max = res.out.running_max;
  r.total_load = res.total_load();
  r.retransmits = res.out.retransmits;
  r.dup_suppressed = res.out.dup_suppressed;
  r.queued_delay = res.out.queued_delay;
  r.ledger = res.out.ledger;
  for (const rt::RtPhaseSummary& ps : res.out.phases) {
    if (!ps.completed) continue;  // run ended mid-phase
    r.phases.push_back({ps.phase_index, ps.start_step, ps.end_step,
                        ps.num_heavy, ps.matched, ps.unmatched, ps.forced});
    EXPECT_EQ(ps.heavy_procs.size(), ps.num_heavy);
    EXPECT_TRUE(std::is_sorted(ps.heavy_procs.begin(), ps.heavy_procs.end()));
  }
  EXPECT_TRUE(res.conservation_holds());
  EXPECT_EQ(res.fabric_in_flight(), 0u) << "undelivered messages at exit";
  return r;
}

void expect_equal(const RunRecord& dist_r, const RunRecord& rt_r,
                  const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(dist_r.queues.size(), rt_r.queues.size());
  for (std::size_t p = 0; p < dist_r.queues.size(); ++p) {
    const auto& a = dist_r.queues[p];
    const auto& b = rt_r.queues[p];
    ASSERT_EQ(a.size(), b.size()) << "queue length, proc " << p;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].birth_step, b[i].birth_step)
          << "proc " << p << " pos " << i;
      EXPECT_EQ(a[i].origin, b[i].origin) << "proc " << p << " pos " << i;
    }
    EXPECT_EQ(dist_r.generated[p], rt_r.generated[p]) << "generated " << p;
    EXPECT_EQ(dist_r.consumed[p], rt_r.consumed[p]) << "consumed " << p;
    EXPECT_EQ(dist_r.initiations[p], rt_r.initiations[p])
        << "initiations " << p;
  }

  EXPECT_EQ(dist_r.msg.queries, rt_r.msg.queries);
  EXPECT_EQ(dist_r.msg.accepts, rt_r.msg.accepts);
  EXPECT_EQ(dist_r.msg.id_messages, rt_r.msg.id_messages);
  EXPECT_EQ(dist_r.msg.control, rt_r.msg.control);
  EXPECT_EQ(dist_r.msg.transfers, rt_r.msg.transfers);
  EXPECT_EQ(dist_r.msg.tasks_moved, rt_r.msg.tasks_moved);
  EXPECT_EQ(dist_r.clamped, rt_r.clamped);
  EXPECT_EQ(dist_r.running_max, rt_r.running_max);
  EXPECT_EQ(dist_r.total_load, rt_r.total_load);
  EXPECT_EQ(dist_r.retransmits, rt_r.retransmits);
  EXPECT_EQ(dist_r.dup_suppressed, rt_r.dup_suppressed);
  EXPECT_EQ(dist_r.queued_delay, rt_r.queued_delay);

  ASSERT_EQ(dist_r.ledger.size(), rt_r.ledger.size());
  for (std::size_t i = 0; i < dist_r.ledger.size(); ++i) {
    EXPECT_EQ(dist_r.ledger[i].step, rt_r.ledger[i].step) << "ledger " << i;
    EXPECT_EQ(dist_r.ledger[i].from, rt_r.ledger[i].from) << "ledger " << i;
    EXPECT_EQ(dist_r.ledger[i].to, rt_r.ledger[i].to) << "ledger " << i;
    EXPECT_EQ(dist_r.ledger[i].count, rt_r.ledger[i].count) << "ledger " << i;
  }

  ASSERT_EQ(dist_r.phases.size(), rt_r.phases.size());
  for (std::size_t i = 0; i < dist_r.phases.size(); ++i) {
    const PhaseRecord& a = dist_r.phases[i];
    const PhaseRecord& b = rt_r.phases[i];
    EXPECT_EQ(a.phase_index, b.phase_index) << "phase " << i;
    EXPECT_EQ(a.start_step, b.start_step) << "phase " << i;
    EXPECT_EQ(a.end_step, b.end_step) << "phase " << i;
    EXPECT_EQ(a.num_heavy, b.num_heavy) << "phase " << i;
    EXPECT_EQ(a.matched, b.matched) << "phase " << i;
    EXPECT_EQ(a.unmatched, b.unmatched) << "phase " << i;
    EXPECT_EQ(a.forced, b.forced) << "phase " << i;
  }
}

double mean_duration(const RunRecord& r) {
  double sum = 0;
  std::size_t count = 0;
  for (const PhaseRecord& p : r.phases) {
    if (p.num_heavy == 0) continue;  // idle phases finish in one step anyway
    sum += static_cast<double>(p.end_step - p.start_step);
    ++count;
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

std::uint64_t total_transferred(const RunRecord& r) {
  std::uint64_t total = 0;
  for (const auto& e : r.ledger) total += e.count;
  return total;
}

class RtLatencyEquivalence
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::uint32_t>> {
};

TEST_P(RtLatencyEquivalence, MatchesDistForAllWorkerCounts) {
  Lockstep su(128);
  su.seed = std::get<0>(GetParam());
  su.latency = std::get<1>(GetParam());

  const RunRecord dist_r = run_dist(su);
  // The protocol must actually move tasks, or the test proves nothing.
  ASSERT_GT(total_transferred(dist_r), 0u);
  for (unsigned workers : {1u, 2u, 8u}) {
    const RunRecord rt_r = run_rt(su, workers);
    expect_equal(dist_r, rt_r,
                 "latency=" + std::to_string(su.latency) + " seed=" +
                     std::to_string(su.seed) + " workers=" +
                     std::to_string(workers));
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndLatencies, RtLatencyEquivalence,
    ::testing::Combine(::testing::Values(1u, 2u),
                       ::testing::Values(1u, 2u, 8u)),
    [](const auto& param_info) {
      return "seed" + std::to_string(std::get<0>(param_info.param)) +
             "_latency" + std::to_string(std::get<1>(param_info.param));
    });

// Per-hop routing: the same lockstep equivalence on a hypercube, where
// delays differ per (src, dst) pair — exercises the Topology constructor of
// the shared DeliveryPolicy on both sides.
TEST(RtLatencyTopology, MatchesDistOnHypercube) {
  Lockstep su(128);
  su.seed = 3;
  su.latency = 1;
  su.steps = 192;
  net::HypercubeTopology cube(su.n);
  su.topology = &cube;

  const RunRecord dist_r = run_dist(su);
  ASSERT_GT(total_transferred(dist_r), 0u);
  for (unsigned workers : {1u, 4u}) {
    const RunRecord rt_r = run_rt(su, workers);
    expect_equal(dist_r, rt_r, "hypercube workers=" + std::to_string(workers));
  }
}

// Link-model lockstep grid: the same bit-identical equivalence with each of
// the net::LinkModel knobs live — heterogeneous per-link jitter, per-link
// bandwidth caps (FIFO queueing) and loss + retransmit. Each test asserts
// its knob actually bit (nonzero jitter spread / queued delay / retransmit
// count), so the equivalence is never vacuous.
TEST(RtLatencyLinks, HeterogeneousJitterMatchesDist) {
  Lockstep su(128);
  su.seed = 1;
  su.latency = 2;
  su.link.jitter = 3;
  const RunRecord dist_r = run_dist(su);
  ASSERT_GT(total_transferred(dist_r), 0u);
  for (unsigned workers : {1u, 2u, 8u}) {
    expect_equal(dist_r, run_rt(su, workers),
                 "jitter workers=" + std::to_string(workers));
  }
}

TEST(RtLatencyLinks, BandwidthCapMatchesDist) {
  Lockstep su(128);
  su.seed = 2;
  su.latency = 2;
  su.link.bandwidth = 1;  // one message per link per step; bursts queue
  const RunRecord dist_r = run_dist(su);
  ASSERT_GT(total_transferred(dist_r), 0u);
  ASSERT_GT(dist_r.queued_delay, 0u) << "the cap never queued anything";
  for (unsigned workers : {1u, 2u, 8u}) {
    expect_equal(dist_r, run_rt(su, workers),
                 "bandwidth workers=" + std::to_string(workers));
  }
}

TEST(RtLatencyLinks, LossRetransmitMatchesDist) {
  Lockstep su(128);
  su.seed = 1;
  su.latency = 2;
  su.link.loss_per_64k = 16384;  // 25% per transmission
  const RunRecord dist_r = run_dist(su);
  ASSERT_GT(total_transferred(dist_r), 0u);
  ASSERT_GT(dist_r.retransmits, 0u) << "the wire never lost anything";
  for (unsigned workers : {1u, 2u, 8u}) {
    expect_equal(dist_r, run_rt(su, workers),
                 "loss workers=" + std::to_string(workers));
  }
}

TEST(RtLatencyLinks, AllKnobsTogetherMatchesDist) {
  Lockstep su(128);
  su.seed = 2;
  su.latency = 1;
  su.steps = 224;  // shaped phases run longer; leave room to quiesce
  su.link.jitter = 2;
  su.link.bandwidth = 1;
  su.link.loss_per_64k = 8192;  // 12.5%
  const RunRecord dist_r = run_dist(su);
  ASSERT_GT(total_transferred(dist_r), 0u);
  for (unsigned workers : {1u, 2u, 8u}) {
    expect_equal(dist_r, run_rt(su, workers),
                 "all-knobs workers=" + std::to_string(workers));
  }
}

// The arena-backed queue layout under the latency fabric with jittered
// links. (Work stealing is instant-fabric only, so the latency tier has no
// steal dimension.)
TEST(RtLatencyArena, ArenaMatchesDistForAllWorkerCounts) {
  Lockstep su(128);
  su.seed = 2;
  su.latency = 2;
  su.link.jitter = 2;
  const RunRecord dist_r = run_dist(su);
  ASSERT_GT(total_transferred(dist_r), 0u);
  for (unsigned workers : {1u, 2u, 8u}) {
    expect_equal(dist_r, run_rt(su, workers),
                 "arena workers=" + std::to_string(workers));
  }
}

// The paper's EXP-19 effect on real threads: a round trip costs 2*latency
// steps, so phases with actual matching work take proportionally longer at
// higher latency. (Durations are bit-identical to dist's by the equivalence
// tests above; this pins the trend itself.)
TEST(RtLatencyScaling, PhaseDurationGrowsWithLatency) {
  Lockstep lo(128);
  Lockstep hi(128);
  hi.latency = 8;
  const double d1 = mean_duration(run_rt(lo, 4));
  const double d8 = mean_duration(run_rt(hi, 4));
  ASSERT_GT(d1, 0.0);
  EXPECT_GE(d8, 3.0 * d1) << "latency 8 phases should dominate latency 1";
}

// The delay-skew fault: one message delivered a superstep early must make
// the lockstep cross-check diverge — ledger, counters, or phase log. This
// is the conviction the fuzzer's delay-skew mutation relies on.
TEST(RtLatencySkew, EarlyDeliveryDivergesFromDist) {
  Lockstep su(128);
  su.seed = 1;
  su.latency = 4;
  const RunRecord dist_r = run_dist(su);
  ASSERT_GT(total_transferred(dist_r), 0u);

  // Sanity: with no skew the fabrics agree (same setup as the suite above).
  expect_equal(dist_r, run_rt(su, 1), "skew baseline");

  // Skewing an early message must produce an observable divergence. Any
  // single ordinal can happen to be immaterial (e.g. an accept that was not
  // on the phase's critical path), so probe the first few sends and require
  // that at least one convicts — the fuzzer's mutation path does the same.
  bool diverged = false;
  for (std::uint64_t k = 1; k <= 8 && !diverged; ++k) {
    const RunRecord skewed = run_rt(su, 1, /*skew_message=*/k);
    diverged = skewed.ledger != dist_r.ledger ||
               skewed.phases.size() != dist_r.phases.size();
    if (!diverged) {
      for (std::size_t i = 0; i < skewed.phases.size() && !diverged; ++i) {
        diverged = skewed.phases[i].end_step != dist_r.phases[i].end_step ||
                   skewed.phases[i].matched != dist_r.phases[i].matched;
      }
    }
  }
  EXPECT_TRUE(diverged)
      << "a fabric delivering early should not survive the cross-check";
}

// The mailbox-drop mutation in latency mode: the victim is the k-th transfer in
// canonical (step, source) order, so every worker count convicts the same
// message — and it is exactly the k-th entry of the clean run's ledger.
TEST(RtLatencyDrop, VictimIsWorkerCountInvariant) {
  Lockstep su(128);
  su.seed = 2;
  su.latency = 2;
  const RunRecord clean = run_rt(su, 1);
  ASSERT_GE(clean.ledger.size(), 3u);
  const rt::LedgerEntry victim = clean.ledger[2];  // k = 3

  auto run_dropped = [&](unsigned workers) {
    auto model = make_model();
    rt::RtConfig cfg;
    cfg.n = su.n;
    cfg.seed = su.seed;
    cfg.workers = workers;
    cfg.policy = rt::RtPolicy::kThreshold;
    cfg.params = su.params;
    cfg.latency = su.latency;
    cfg.mutation = sim::MutationKind::kMailboxDrop;
    cfg.mutation_ordinal = 3;
    rt::Runtime run(cfg, model.get());
    drive(run, su);
    const rt::RunResult& res = run.result();
    EXPECT_EQ(res.out.mutation_applied, 1u) << "workers=" << workers;
    // Count-based conservation books the dropped tasks and stays green —
    // only the fuzzer's identity oracle convicts the drop (by design).
    EXPECT_TRUE(res.conservation_holds()) << "workers=" << workers;
    EXPECT_EQ(res.out.dropped_tasks, victim.count) << "workers=" << workers;
    const std::vector<rt::LedgerEntry>& log = res.out.dropped;
    ASSERT_EQ(log.size(), 1u) << "workers=" << workers;
    EXPECT_EQ(log[0].step, victim.step) << "workers=" << workers;
    EXPECT_EQ(log[0].from, victim.from) << "workers=" << workers;
    EXPECT_EQ(log[0].to, victim.to) << "workers=" << workers;
    EXPECT_EQ(log[0].count, victim.count) << "workers=" << workers;
  };
  for (unsigned workers : {1u, 2u, 8u}) run_dropped(workers);
}

}  // namespace
