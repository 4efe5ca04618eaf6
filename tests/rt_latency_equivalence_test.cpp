// Lockstep cross-validation of rt::Runtime's latency fabric against its
// serial specification, sim::Engine + dist::DistThresholdBalancer
// (testing::Reference): with the same seed, latency and game parameters the
// two must give the same rt::RunResult — transfer ledger, final per-task
// queue contents, every counter, the fabric's sent/delivered and link
// counters and the phase log (start/end step, heavy set, matched/unmatched,
// forced) — for ANY worker count, for uniform latencies, for per-hop
// topology routing and for failsafe phase ends. Both fabrics derive
// delivery times from the shared net::DeliveryPolicy and order deliveries
// by the shared net::SeqKey, so a divergence here means one of them broke
// the contract.
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
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "core/params.hpp"
#include "dist/dist_balancer.hpp"
#include "models/single.hpp"
#include "net/topology.hpp"
#include "rt/runtime.hpp"
#include "testing/reference.hpp"

namespace {

using namespace clb;
using clb::testing::Reference;

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

/// One lockstep setup: the runtime's config (the reference reads the same
/// one) and the run length.
struct Lockstep {
  rt::RtConfig cfg;
  std::uint64_t steps = 160;

  explicit Lockstep(std::uint64_t n) {
    cfg.n = n;
    cfg.seed = 1;
    cfg.policy = rt::RtPolicy::kThreshold;
    core::Fractions f;
    f.t_min = 64;
    cfg.params = core::PhaseParams::from_n(n, f);
    cfg.latency = 1;
  }
};

/// A runtime or a reference and the model it reads, which must outlive it.
template <typename Run>
struct Owned {
  std::unique_ptr<sim::LoadModel> model;
  std::unique_ptr<Run> run;
};

/// `cfg` run for `steps` steps, the spikes deposited between run() calls.
template <typename Run>
Owned<Run> run_of(const rt::RtConfig& cfg, std::uint64_t steps) {
  Owned<Run> r{make_model(), nullptr};
  r.run = std::make_unique<Run>(cfg, r.model.get());
  std::uint64_t done = 0;
  for (const Spike& sp : spikes_for(cfg.seed, cfg.n)) {
    if (sp.step > done) {
      r.run->run(sp.step - done);
      done = sp.step;
    }
    for (std::uint32_t i = 0; i < sp.tasks; ++i) {
      r.run->deposit(sp.proc, sim::Task{static_cast<std::uint32_t>(sp.step),
                                        sp.proc, 1});
    }
  }
  r.run->run(steps - done);
  return r;
}

std::uint64_t total_transferred(const rt::RunResult& r) {
  std::uint64_t total = 0;
  for (const rt::LedgerEntry& e : r.out.ledger) total += e.count;
  return total;
}

/// The reference run of `su`, which must move tasks, or a test matching it
/// proves nothing.
Owned<Reference> reference(const Lockstep& su) {
  Owned<Reference> ref = run_of<Reference>(su.cfg, su.steps);
  EXPECT_GT(total_transferred(ref.run->result()), 0u);
  return ref;
}

/// The runtime at each worker count must give the reference's result. Both
/// must conserve tasks (rt::diff leaves the drop counters out), and the
/// runtime must leave no message on the fabric and report every completed
/// phase's heavy set in full and sorted.
void expect_matches(const rt::RunResult& want, const Lockstep& su,
                    std::initializer_list<unsigned> workers) {
  EXPECT_TRUE(want.conservation_holds()) << "reference";
  rt::RtConfig cfg = su.cfg;
  for (const unsigned w : workers) {
    cfg.workers = w;
    const Owned<rt::Runtime> got = run_of<rt::Runtime>(cfg, su.steps);
    const rt::RunResult& res = got.run->result();
    EXPECT_EQ(rt::diff(want, res), "")
        << "latency=" << cfg.latency << " seed=" << cfg.seed
        << " workers=" << w;
    EXPECT_TRUE(res.conservation_holds()) << "workers=" << w;
    EXPECT_EQ(res.fabric_in_flight(), 0u)
        << "undelivered messages at exit, workers=" << w;
    for (const rt::RtPhaseSummary& ps : res.out.phases) {
      if (!ps.completed) continue;
      EXPECT_EQ(ps.heavy_procs.size(), ps.num_heavy);
      EXPECT_TRUE(
          std::is_sorted(ps.heavy_procs.begin(), ps.heavy_procs.end()));
    }
  }
}

double mean_duration(const rt::RunResult& r) {
  double sum = 0;
  std::size_t count = 0;
  for (const rt::RtPhaseSummary& p : r.out.phases) {
    // Idle phases finish in one step anyway; an open one has no end yet.
    if (p.num_heavy == 0 || !p.completed) continue;
    sum += static_cast<double>(p.end_step - p.start_step);
    ++count;
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

class RtLatencyEquivalence
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::uint32_t>> {
};

TEST_P(RtLatencyEquivalence, MatchesDistForAllWorkerCounts) {
  Lockstep su(128);
  su.cfg.seed = std::get<0>(GetParam());
  su.cfg.latency = std::get<1>(GetParam());
  const Owned<Reference> ref = reference(su);
  expect_matches(ref.run->result(), su, {1, 2, 8});
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
  su.cfg.seed = 3;
  su.steps = 192;
  net::HypercubeTopology cube(su.cfg.n);
  su.cfg.topology = &cube;
  const Owned<Reference> ref = reference(su);
  expect_matches(ref.run->result(), su, {1, 4});
}

// Link-model lockstep grid: the same bit-identical equivalence with each of
// the net::LinkModel knobs live — heterogeneous per-link jitter, per-link
// bandwidth caps (FIFO queueing) and loss + retransmit. Each test asserts
// its knob actually bit (nonzero jitter spread / queued delay / retransmit
// count), so the equivalence is never vacuous.
TEST(RtLatencyLinks, HeterogeneousJitterMatchesDist) {
  Lockstep su(128);
  su.cfg.latency = 2;
  su.cfg.link.jitter = 3;
  const Owned<Reference> ref = reference(su);
  expect_matches(ref.run->result(), su, {1, 2, 8});
}

TEST(RtLatencyLinks, BandwidthCapMatchesDist) {
  Lockstep su(128);
  su.cfg.seed = 2;
  su.cfg.latency = 2;
  su.cfg.link.bandwidth = 1;  // one message per link per step; bursts queue
  const Owned<Reference> ref = reference(su);
  expect_matches(ref.run->result(), su, {1, 2, 8});
  EXPECT_GT(ref.run->result().out.queued_delay, 0u)
      << "the cap never queued anything";
}

TEST(RtLatencyLinks, LossRetransmitMatchesDist) {
  Lockstep su(128);
  su.cfg.latency = 2;
  su.cfg.link.loss_per_64k = 16384;  // 25% per transmission
  const Owned<Reference> ref = reference(su);
  expect_matches(ref.run->result(), su, {1, 2, 8});
  EXPECT_GT(ref.run->result().out.retransmits, 0u)
      << "the wire never lost anything";
}

TEST(RtLatencyLinks, AllKnobsTogetherMatchesDist) {
  Lockstep su(128);
  su.cfg.seed = 2;
  su.steps = 224;  // shaped phases run longer; leave room to quiesce
  su.cfg.link.jitter = 2;
  su.cfg.link.bandwidth = 1;
  su.cfg.link.loss_per_64k = 8192;  // 12.5%
  const Owned<Reference> ref = reference(su);
  expect_matches(ref.run->result(), su, {1, 2, 8});
}

// The arena-backed queue layout under the latency fabric with jittered
// links. (Work stealing is instant-fabric only, so the latency tier has no
// steal dimension.)
TEST(RtLatencyArena, ArenaMatchesDistForAllWorkerCounts) {
  Lockstep su(128);
  su.cfg.seed = 2;
  su.cfg.latency = 2;
  su.cfg.link.jitter = 2;
  const Owned<Reference> ref = reference(su);
  expect_matches(ref.run->result(), su, {1, 2, 8});
}

// No phase above ends by the failsafe; here every one does. A 3-step bound
// at latency 2 cuts each phase before its round trips resolve (the
// reference hands RtConfig::max_phase_steps to dist::DistConfig), so the
// forced net reset — requests aborted, undelivered messages discarded —
// runs on both sides phase after phase. The runtime books a discarded
// message as delivered; dist::Network::total_delivered() does not, which is
// why the reference reports total_sent() - in_flight() instead (at seed 1:
// 40 phases, 1,499 messages sent, 540 of them delivered by dist's count).
TEST(RtLatencyForced, FailsafePhaseEndsMatchDist) {
  Lockstep su(128);
  su.cfg.latency = 2;
  su.cfg.max_phase_steps = 3;
  const Owned<Reference> ref = run_of<Reference>(su.cfg, su.steps);
  const rt::RunResult& want = ref.run->result();
  expect_matches(want, su, {1, 2, 8});
  std::uint64_t completed = 0, forced = 0;
  for (const rt::RtPhaseSummary& ps : want.out.phases) {
    completed += ps.completed;
    forced += ps.forced;
  }
  EXPECT_GT(completed, 0u);
  EXPECT_EQ(forced, completed) << "a phase ended without the failsafe";
  const dist::Network& net = ref.run->dist()->network();
  EXPECT_LT(net.total_delivered(), want.out.fab_delivered)
      << "no forced end discarded a message";
}

// The paper's EXP-19 effect on real threads: a round trip costs 2*latency
// steps, so phases with actual matching work take proportionally longer at
// higher latency. (Durations are bit-identical to dist's by the equivalence
// tests above; this pins the trend itself.)
TEST(RtLatencyScaling, PhaseDurationGrowsWithLatency) {
  Lockstep lo(128);
  Lockstep hi(128);
  hi.cfg.latency = 8;
  lo.cfg.workers = hi.cfg.workers = 4;
  const double d1 =
      mean_duration(run_of<rt::Runtime>(lo.cfg, lo.steps).run->result());
  const double d8 =
      mean_duration(run_of<rt::Runtime>(hi.cfg, hi.steps).run->result());
  ASSERT_GT(d1, 0.0);
  EXPECT_GE(d8, 3.0 * d1) << "latency 8 phases should dominate latency 1";
}

// The delay-skew fault: one message delivered a superstep early must make
// the lockstep cross-check diverge. This is the conviction the fuzzer's
// delay-skew mutation relies on.
TEST(RtLatencySkew, EarlyDeliveryDivergesFromDist) {
  Lockstep su(128);
  su.cfg.latency = 4;
  // Sanity: with no skew the fabrics agree (same setup as the suite above).
  const Owned<Reference> ref = reference(su);
  const rt::RunResult& want = ref.run->result();
  expect_matches(want, su, {1});

  // Skewing an early message must produce an observable divergence. Any
  // single ordinal can happen to be immaterial (e.g. an accept that was not
  // on the phase's critical path), so probe the first few sends and require
  // that at least one convicts — the fuzzer's mutation path does the same.
  rt::RtConfig cfg = su.cfg;
  cfg.mutation = sim::MutationKind::kDelaySkew;
  bool diverged = false;
  for (std::uint64_t k = 1; k <= 8 && !diverged; ++k) {
    cfg.mutation_ordinal = k;
    const Owned<rt::Runtime> skewed = run_of<rt::Runtime>(cfg, su.steps);
    diverged = !rt::diff(want, skewed.run->result()).empty();
  }
  EXPECT_TRUE(diverged)
      << "a fabric delivering early should not survive the cross-check";
}

// The mailbox-drop mutation in latency mode: the victim is the k-th transfer in
// canonical (step, source) order, so every worker count convicts the same
// message — and it is exactly the k-th entry of the clean run's ledger.
TEST(RtLatencyDrop, VictimIsWorkerCountInvariant) {
  Lockstep su(128);
  su.cfg.seed = 2;
  su.cfg.latency = 2;
  const Owned<rt::Runtime> clean = run_of<rt::Runtime>(su.cfg, su.steps);
  ASSERT_GE(clean.run->result().out.ledger.size(), 3u);
  const rt::LedgerEntry victim = clean.run->result().out.ledger[2];  // k = 3

  rt::RtConfig cfg = su.cfg;
  cfg.mutation = sim::MutationKind::kMailboxDrop;
  cfg.mutation_ordinal = 3;
  for (const unsigned workers : {1u, 2u, 8u}) {
    cfg.workers = workers;
    const Owned<rt::Runtime> run = run_of<rt::Runtime>(cfg, su.steps);
    const rt::RunResult& res = run.run->result();
    EXPECT_EQ(res.out.mutation_applied, 1u) << "workers=" << workers;
    // Count-based conservation books the dropped tasks and stays green —
    // only the fuzzer's identity oracle convicts the drop (by design).
    EXPECT_TRUE(res.conservation_holds()) << "workers=" << workers;
    EXPECT_EQ(res.out.dropped_tasks, victim.count) << "workers=" << workers;
    ASSERT_EQ(res.out.dropped.size(), 1u) << "workers=" << workers;
    EXPECT_EQ(res.out.dropped[0], victim) << "workers=" << workers;
  }
}

}  // namespace
