// One kernel, two substrates: the configs the cross-process transport
// gained with the shared shard kernel (zoo policies, crash schedules,
// stealing, the latency fabric, the fault hooks) must run shadow-identical
// over real sockets; both substrates must resolve and refuse configs the
// same way; wall-clock sojourn must stay meaningful across shards; and the
// sharded steal reduction must reproduce the full-board rule.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/params.hpp"
#include "models/burst.hpp"
#include "models/single.hpp"
#include "rng/philox.hpp"
#include "rt/runtime.hpp"
#include "sim/engine.hpp"
#include "sim/steal.hpp"
#include "transport/process_runtime.hpp"
#include "transport/shadow.hpp"

namespace {

using namespace clb;
using namespace clb::transport;

ModelSpec burst_spec() {
  models::BurstConfig bc;
  bc.period = 16;
  bc.burst_len = 8;
  bc.hot_fraction = 0.1;
  bc.burst_rate = 6;
  return ModelSpec::bursty(bc);
}

enum class Lifted { kStaleSq, kLocalSearch, kCrash, kSteal, kLatencyLossy };

const char* lifted_name(Lifted l) {
  switch (l) {
    case Lifted::kStaleSq: return "stale_sq";
    case Lifted::kLocalSearch: return "local_search";
    case Lifted::kCrash: return "crash";
    case Lifted::kSteal: return "steal";
    case Lifted::kLatencyLossy: return "latency_lossy";
  }
  return "?";
}

rt::RtConfig lifted_config(Lifted which, unsigned shards, rt::Transport t) {
  rt::RtConfig c;
  c.n = 192;
  c.seed = 3;
  c.workers = shards;
  c.transport = t;
  c.track_sojourn = true;
  core::Fractions f;
  f.t_min = 64;  // phase_len 4
  switch (which) {
    case Lifted::kStaleSq:
      c.policy = rt::RtPolicy::kStaleSq;
      c.stale.staleness = 4;
      break;
    case Lifted::kLocalSearch:
      c.policy = rt::RtPolicy::kLocalSearch;
      break;
    case Lifted::kCrash:
      c.policy = rt::RtPolicy::kStaleSq;
      // Two crashes whose heirs (the next processor up) sit across a shard
      // boundary at 2 shards (95 -> 96) and at 3 shards (63 -> 64).
      c.crashes = {core::CrashEvent{9, 63, 8}, core::CrashEvent{20, 95, 6}};
      break;
    case Lifted::kSteal:
      c.policy = rt::RtPolicy::kThreshold;
      c.params = core::PhaseParams::from_n(c.n, f);
      c.steal.enabled = true;
      break;
    case Lifted::kLatencyLossy:
      c.policy = rt::RtPolicy::kThreshold;
      c.params = core::PhaseParams::from_n(c.n, f);
      c.latency = 2;
      c.link.jitter = 2;
      c.link.loss_per_64k = 8192;  // 12.5%
      break;
  }
  return c;
}

struct Checked {
  std::unique_ptr<ProcessRuntime> pr;
  ShadowReport rep;
};

/// Runs `cfg` over sockets for `steps`, then shadow-checks it.
Checked run_and_check(const rt::RtConfig& cfg, std::uint64_t steps) {
  Checked c{std::make_unique<ProcessRuntime>(cfg, burst_spec()), {}};
  c.pr->run(steps);
  c.rep = shadow_check(*c.pr);
  return c;
}

class TransportEquivalenceLifted
    : public ::testing::TestWithParam<std::tuple<Lifted, unsigned>> {};

TEST_P(TransportEquivalenceLifted, UdsMatchesShadow) {
  const Lifted which = std::get<0>(GetParam());
  const unsigned shards = std::get<1>(GetParam());
  const Checked c =
      run_and_check(lifted_config(which, shards, rt::Transport::kUds), 64);
  EXPECT_TRUE(c.rep.ok) << c.rep.divergence;
  EXPECT_TRUE(c.pr->result().conservation_holds());
  // The lifted feature actually ran over the wire.
  const rt::ShardOutputs& o = c.pr->result().out;
  switch (which) {
    case Lifted::kStaleSq:
    case Lifted::kLocalSearch:
      EXPECT_GT(o.msg.transfers, 0u);
      break;
    case Lifted::kCrash:
      EXPECT_EQ(o.rehomed_events, 2u);
      EXPECT_GT(o.rehomed_tasks, 0u);
      break;
    case Lifted::kSteal:
      EXPECT_GT(o.steal_events, 0u);
      break;
    case Lifted::kLatencyLossy:
      EXPECT_GT(o.fab_sent, 0u);
      EXPECT_GT(o.retransmits, 0u);
      EXPECT_FALSE(c.pr->result().out.phases.empty());
      break;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, TransportEquivalenceLifted,
    ::testing::Combine(::testing::Values(Lifted::kStaleSq, Lifted::kLocalSearch,
                                         Lifted::kCrash, Lifted::kSteal,
                                         Lifted::kLatencyLossy),
                       ::testing::Values(2u, 3u)),
    [](const auto& param_info) {
      return std::string(lifted_name(std::get<0>(param_info.param))) +
             "_shards" + std::to_string(std::get<1>(param_info.param));
    });

// Same kernel over loopback TCP: the lossy latency fabric, 2 shards.
TEST(TransportEquivalenceTcp, LatencyLossyMatchesShadow) {
  const Checked c = run_and_check(
      lifted_config(Lifted::kLatencyLossy, 2, rt::Transport::kTcp), 64);
  EXPECT_TRUE(c.rep.ok) << c.rep.divergence;
}

// The mailbox-drop mutation over sockets: the sender books the
// transfer, the receiver never sees it, conservation still balances (the
// drop is booked) — and the honest shadow convicts the run.
TEST(TransportEquivalenceHooks, DroppedTransferConvictedByShadow) {
  for (const unsigned shards : {2u, 3u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    rt::RtConfig cfg = lifted_config(Lifted::kSteal, shards,
                                     rt::Transport::kUds);
    cfg.steal.enabled = false;
    cfg.mutation = sim::MutationKind::kMailboxDrop;
    cfg.mutation_ordinal = 1;
    const Checked c = run_and_check(cfg, 64);
    const rt::RunResult& res = c.pr->result();
    EXPECT_GT(res.out.dropped_tasks, 0u);
    EXPECT_EQ(res.out.mutation_applied, 1u);
    EXPECT_TRUE(res.conservation_holds());
    EXPECT_FALSE(c.rep.ok) << "a dropped transfer must not survive the shadow";
    // Convicted by the drop's effect on the protocol, not by its witnesses
    // (rt::diff leaves those out).
    EXPECT_EQ(c.rep.divergence.find("mutation_applied"), std::string::npos)
        << c.rep.divergence;
    EXPECT_EQ(c.rep.divergence.find("dropped"), std::string::npos)
        << c.rep.divergence;
  }
}

// Shards stamp wall-clock sojourn against the coordinator's clock origin,
// so a task moved to another shard and consumed right away can never read
// as negative (which would wrap to ~2^32 us).
TEST(TransportSojourn, CrossShardSojournWithinRunWallClock) {
  rt::RtConfig cfg = lifted_config(Lifted::kSteal, 3, rt::Transport::kUds);
  cfg.steal.enabled = false;
  cfg.time_sojourn = true;
  ProcessRuntime pr(cfg, burst_spec());
  pr.run(96);

  const rt::Partition part(cfg.n, 3);
  bool crossed = false;
  for (const rt::LedgerEntry& e : pr.result().out.ledger) {
    crossed |= part.owner_of(e.from) != part.owner_of(e.to);
  }
  ASSERT_TRUE(crossed) << "no transfer moved tasks across shards";

  const stats::IntHistogram& h = pr.result().out.sojourn_us;
  ASSERT_GT(h.total(), 0u);
  const std::vector<std::uint64_t>& counts = h.counts();
  std::uint64_t max_us = 0;
  for (std::uint64_t v = 0; v < counts.size(); ++v) {
    if (counts[v] != 0) max_us = v;
  }
  EXPECT_LE(static_cast<double>(max_us), pr.wall_seconds() * 1e6);
}

// workers = 0 resolves to the same shard count on both substrates.
TEST(SubstrateConfig, WorkersZeroResolvesAlike) {
  rt::RtConfig cfg = lifted_config(Lifted::kStaleSq, 0, rt::Transport::kInProc);
  const unsigned want = std::min<std::uint64_t>(
      std::max(1u, std::thread::hardware_concurrency()), cfg.n);
  EXPECT_EQ(rt::resolve_workers(cfg), want);

  cfg.transport = rt::Transport::kUds;
  const Checked c = run_and_check(cfg, 16);
  EXPECT_EQ(c.pr->worker_count(), want);
  EXPECT_TRUE(c.rep.ok) << c.rep.divergence;

  cfg.transport = rt::Transport::kInProc;
  models::SingleModel model(0.45, 0.1);
  rt::Runtime r(cfg, &model);
  EXPECT_EQ(r.worker_count(), want);
}

// One validator: a config that breaks four rules is refused by both
// constructors, and the message names all four.
TEST(SubstrateConfigDeathTest, BothConstructorsNameEveryViolation) {
  rt::RtConfig cfg;
  cfg.n = 64;
  cfg.policy = rt::RtPolicy::kNone;
  cfg.latency = 2;         // the latency fabric needs kThreshold
  cfg.steal.enabled = true;  // stealing needs the instant fabric
  cfg.mutation = sim::MutationKind::kStaleFreeLunch;  // needs kStaleSq
  cfg.deterministic = false;  // every run sorts into the canonical order
  EXPECT_TRUE(rt::validate(cfg).size() == 4u);
  const char* all_four =
      "deterministic = false \\(arrival-order mode\\) no longer exists.*"
      "latency fabric runs the threshold protocol only.*"
      "work stealing runs on the instant fabric only.*"
      "mutation stale-free-lunch needs policy stale-sq";
  models::SingleModel model(0.45, 0.1);
  EXPECT_DEATH(rt::Runtime(cfg, &model), all_four);
  cfg.transport = rt::Transport::kUds;
  EXPECT_DEATH(ProcessRuntime(cfg, ModelSpec::single(0.45, 0.1)), all_four);
}

// The fault-injection rules: an engine-only kind, an ordinal that does not
// fit its kind, and every row of validate()'s site table (a kind armed on a
// config that lacks what it injects into) are each refused by name. The
// lossy-latency config has no stealing, crashes or stale-sq; the stealing
// config runs the instant fabric. frame-corrupt on the in-proc transport is
// refused by rt::Runtime as well.
TEST(SubstrateConfigDeathTest, MutationRefusalsNameTheRule) {
  const rt::RtConfig lossy =
      lifted_config(Lifted::kLatencyLossy, 2, rt::Transport::kInProc);
  const rt::RtConfig steal =
      lifted_config(Lifted::kSteal, 2, rt::Transport::kInProc);
  const struct {
    const rt::RtConfig* base;
    sim::MutationKind kind;
    std::uint64_t ordinal;
    std::string rule;
  } cases[] = {
      {&lossy, sim::MutationKind::kReorder, 0,
       "mutation reorder injects through sim::Engine, not the runtime"},
      {&lossy, sim::MutationKind::kMailboxDrop, 0,
       "mutation mailbox-drop: mutation_ordinal must be >= 1"},
      {&lossy, sim::MutationKind::kDupDelivery, 3,
       "mutation dup-delivery: mutation_ordinal must be 0"},
      {&lossy, sim::MutationKind::kFrameCorrupt, 1,
       "mutation frame-corrupt needs a socket transport (kUds or kTcp)"},
      {&lossy, sim::MutationKind::kStealDuplicateTask, 0,
       "mutation steal-duplicate-task needs steal.enabled"},
      {&lossy, sim::MutationKind::kCrashLoseQueue, 0,
       "mutation crash-lose-queue needs a crash schedule"},
      {&lossy, sim::MutationKind::kStaleFreeLunch, 0,
       "mutation stale-free-lunch needs policy stale-sq"},
      {&steal, sim::MutationKind::kDelaySkew, 1,
       "mutation delay-skew needs the latency fabric (latency >= 1)"},
      {&steal, sim::MutationKind::kLinkLossNoRetransmit, 0,
       "mutation link-loss-no-retransmit needs a lossy latency link "
       "(link.loss_per_64k > 0)"},
      {&steal, sim::MutationKind::kDupDelivery, 0,
       "mutation dup-delivery needs a lossy latency link "
       "(link.loss_per_64k > 0)"},
  };
  for (const auto& c : cases) {
    rt::RtConfig cfg = *c.base;
    cfg.mutation = c.kind;
    cfg.mutation_ordinal = c.ordinal;
    EXPECT_EQ(rt::validate(cfg), std::vector<std::string>{c.rule})
        << sim::to_string(c.kind);
  }
  rt::RtConfig cfg = lossy;
  cfg.mutation = sim::MutationKind::kFrameCorrupt;
  cfg.mutation_ordinal = 1;
  models::SingleModel model(0.45, 0.1);
  EXPECT_DEATH(rt::Runtime(cfg, &model),
               "rt::Runtime refuses the config: mutation frame-corrupt");
}

// Inspecting a processor that does not exist aborts on both substrates,
// naming the processor and n, instead of reading past the array.
TEST(SubstrateInspectionDeathTest, ProcessorOutOfRangeNamesPAndN) {
  rt::RtConfig cfg;
  cfg.n = 64;
  cfg.workers = 2;
  cfg.policy = rt::RtPolicy::kNone;
  models::SingleModel model(0.45, 0.1);
  rt::Runtime r(cfg, &model);
  const rt::RunResult& res = r.result();
  EXPECT_EQ(res.processor(63).queue.size(), 0u);
  EXPECT_DEATH((void)res.processor(64),
               "RunResult::processor: processor 64 out of range \\(n = 64\\)");
  EXPECT_DEATH((void)res.processor(1000), "processor 1000 out of range");
}

TEST(SubstrateInspectionDeathTest, ProcessRuntimeProcessorOutOfRange) {
  rt::RtConfig cfg;
  cfg.n = 64;
  cfg.workers = 2;
  cfg.policy = rt::RtPolicy::kNone;
  cfg.transport = rt::Transport::kUds;
  ProcessRuntime pr(cfg, ModelSpec::single(0.45, 0.1));
  pr.run(4);
  // Collected here, so the forked death-test child aborts in the bounds
  // check without touching the shard sockets it shares with this process.
  const rt::RunResult& res = pr.result();
  EXPECT_EQ(res.procs.size(), 64u);
  EXPECT_DEATH((void)res.processor(64),
               "RunResult::processor: processor 64 out of range "
               "\\(n = 64\\)");
}

// A task born after the next step to run would book a negative sojourn when
// consumed; both deposits refuse it, naming p, its birth step and the step.
TEST(SubstrateInspectionDeathTest, RuntimeRefusesFutureBornDeposit) {
  rt::RtConfig cfg;
  cfg.n = 8;
  cfg.workers = 1;
  cfg.policy = rt::RtPolicy::kNone;
  cfg.track_sojourn = true;
  models::SingleModel model(0.45, 0.1);
  rt::Runtime r(cfg, &model);
  r.run(4);
  r.deposit(3, sim::Task{4, 3, 1});  // born at the next step: accepted
  EXPECT_DEATH(r.deposit(3, sim::Task{100, 3, 1}),
               "Runtime::deposit: task for processor 3 born at step 100, "
               "after step 4");
  EXPECT_DEATH(r.deposit(8, sim::Task{0, 8, 1}),
               "Runtime::deposit: processor 8 out of range \\(n = 8\\)");
}

TEST(SubstrateInspectionDeathTest, ProcessRuntimeRefusesFutureBornDeposit) {
  rt::RtConfig cfg;
  cfg.n = 8;
  cfg.workers = 2;
  cfg.policy = rt::RtPolicy::kNone;
  cfg.track_sojourn = true;
  cfg.transport = rt::Transport::kUds;
  ProcessRuntime pr(cfg, ModelSpec::single(0.45, 0.1));
  pr.run(4);
  pr.deposit(3, sim::Task{4, 3, 1});
  // The refusal comes before any frame is sent, so the forked death-test
  // child never writes to the shard sockets it shares with this process.
  EXPECT_DEATH(pr.deposit(3, sim::Task{100, 3, 1}),
               "ProcessRuntime::deposit: task for processor 3 born at step "
               "100, after step 4");
  pr.run(2);
  EXPECT_EQ(pr.result().out.deposited, 1u);
}

// Both substrates run one superstep schedule. On the threshold-burst shape
// (the repository benchmark's burst model, n = 2^16, seed 1, 64 steps) a
// step costs the classify and closing exchanges, a phase's level costs
// 3 exchanges per collision round plus children, reports and scan, and a
// phase that ran a level one more to deliver its last transfers.
TEST(SubstrateSchedule, ThresholdExchangesPerStepRoundAndLevel) {
  models::BurstConfig bc;
  bc.p_base = 0.2;
  bc.p_consume = 0.5;
  bc.period = 64;
  bc.burst_len = 16;
  bc.hot_fraction = 0.05;
  bc.burst_rate = 8;
  bc.rotate_hotspot = true;
  constexpr std::uint64_t kSteps = 64;
  rt::RtConfig cfg;
  cfg.n = 1u << 16;
  cfg.seed = 1;
  cfg.policy = rt::RtPolicy::kThreshold;
  cfg.params = core::PhaseParams::from_n(cfg.n);
  cfg.telemetry = true;
  ASSERT_EQ(cfg.params.phase_len, 1u);  // every step classifies

  std::uint64_t expected = 0;
  for (const unsigned workers : {1u, 2u, 4u}) {
    cfg.workers = workers;
    models::BurstModel model(bc, cfg.n);
    rt::Runtime r(cfg, &model);
    r.run(kSteps);
    const std::vector<rt::RtPhaseSummary>& phases = r.result().out.phases;
    ASSERT_EQ(phases.size(), kSteps);
    std::uint64_t count = 2 * kSteps;
    for (const rt::RtPhaseSummary& ps : phases) {
      count += 3 * std::uint64_t{ps.collision_rounds} +
               3 * std::uint64_t{ps.levels_used} + (ps.levels_used > 0);
    }
    if (expected == 0) expected = count;
    EXPECT_EQ(count, expected) << workers << " workers";
    for (unsigned i = 0; i < workers; ++i) {
      EXPECT_EQ(r.worker_telemetry(i).barrier_waits, count)
          << "worker " << i << " of " << workers;
    }
  }
  EXPECT_EQ(expected, 1154u);  // 18.03 exchanges per step

  cfg.workers = 2;
  cfg.telemetry = false;
  cfg.transport = rt::Transport::kUds;
  ProcessRuntime pr(cfg, ModelSpec::bursty(bc));
  pr.run(kSteps);
  EXPECT_EQ(pr.wire_stats().barriers, 2 * expected);
}

// The wire form carries every RtConfig field the kernel reads, the clock
// origin included, and the shard state every output the kernel books.
TEST(PayloadCodecLifted, ConfigAndStateCarryEveryKernelField) {
  ShardRunConfig c;
  static_cast<rt::RtConfig&>(c) =
      lifted_config(Lifted::kLatencyLossy, 3, rt::Transport::kUds);
  c.mutation = sim::MutationKind::kDupDelivery;
  c.mutation_ordinal = 5;
  c.link.bandwidth = 2;
  c.link.rto = 3;
  c.link.max_attempts = 6;
  c.phase_gap = 2;
  c.max_phase_steps = 40;
  c.stale = {7, 3};
  c.ls.min_load = 5;
  c.crashes = {core::CrashEvent{9, 63, 8}};
  c.steal = {true, 6, 3, 2};
  c.clock_origin_ns = 123456789012345;
  Writer w;
  c.serialize(w);
  Reader r(w.data());
  const ShardRunConfig back = ShardRunConfig::deserialize(r);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(back.latency, 2u);
  EXPECT_EQ(back.mutation, sim::MutationKind::kDupDelivery);
  EXPECT_EQ(back.mutation_ordinal, 5u);
  EXPECT_EQ(back.link.jitter, 2u);
  EXPECT_EQ(back.link.bandwidth, 2u);
  EXPECT_EQ(back.link.loss_per_64k, 8192u);
  EXPECT_EQ(back.link.rto, 3u);
  EXPECT_EQ(back.link.max_attempts, 6u);
  EXPECT_EQ(back.phase_gap, 2u);
  EXPECT_EQ(back.max_phase_steps, 40u);
  EXPECT_EQ(back.stale.staleness, 7u);
  EXPECT_EQ(back.stale.gap, 3u);
  EXPECT_EQ(back.ls.min_load, 5u);
  EXPECT_EQ(back.crashes, c.crashes);
  EXPECT_TRUE(back.steal.enabled);
  EXPECT_EQ(back.steal.min_victim_load, 6u);
  EXPECT_EQ(back.steal.max_steals_per_step, 3u);
  EXPECT_EQ(back.steal.max_batch, 2u);
  EXPECT_EQ(back.clock_origin_ns, c.clock_origin_ns);

  ShardState s;
  s.dropped.push_back(rt::LedgerEntry{3, 1, 2, 4});
  s.dropped_tasks = 4;
  std::uint64_t v = 10;
  for (std::uint64_t* f :
       {&s.steal_events, &s.stolen_tasks, &s.rehomed_tasks, &s.rehomed_events,
        &s.fab_sent, &s.fab_delivered, &s.retransmits, &s.dup_suppressed,
        &s.queued_delay, &s.mutation_applied}) {
    *f = v++;
  }
  Writer ws;
  s.serialize(ws);
  Reader rs(ws.data());
  const ShardState sb = ShardState::deserialize(rs, {});
  EXPECT_TRUE(rs.exhausted());
  ASSERT_EQ(sb.dropped.size(), 1u);
  EXPECT_EQ(sb.dropped[0].count, 4u);
  EXPECT_EQ(sb.dropped_tasks, 4u);
  v = 10;
  for (const std::uint64_t f :
       {sb.steal_events, sb.stolen_tasks, sb.rehomed_tasks, sb.rehomed_events,
        sb.fab_sent, sb.fab_delivered, sb.retransmits, sb.dup_suppressed,
        sb.queued_delay, sb.mutation_applied}) {
    EXPECT_EQ(f, v++);
  }
}

/// The documented steal rule, written out over full boards.
std::vector<sim::Transfer> reference_steals(
    const std::vector<std::uint32_t>& load,
    const std::vector<std::uint8_t>& dry,
    const std::vector<std::uint8_t>& alive, const sim::StealConfig& sc) {
  std::vector<std::uint32_t> thieves, victims;
  for (std::uint32_t p = 0; p < load.size(); ++p) {
    if (!alive[p]) continue;
    if (dry[p] && thieves.size() < sc.max_steals_per_step) thieves.push_back(p);
    if (load[p] >= sc.min_victim_load) victims.push_back(p);
  }
  std::stable_sort(victims.begin(), victims.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return load[a] > load[b];
                   });
  std::vector<sim::Transfer> out;
  for (std::size_t i = 0; i < std::min(thieves.size(), victims.size()); ++i) {
    const std::uint32_t count =
        std::min<std::uint32_t>(sc.max_batch, load[victims[i]] / 2);
    if (count != 0) out.push_back({victims[i], thieves[i], count});
  }
  std::sort(out.begin(), out.end(),
            [](const sim::Transfer& a, const sim::Transfer& b) {
              return a.from < b.from;
            });
  return out;
}

// The sharded steal reduction: each shard's first-k thieves and top-k
// victims, merged, give exactly the documented full-board decision list
// for any shard count (and steal_decisions is its one-shard case).
TEST(StealMerge, ShardedCandidatesReproduceFullBoardRule) {
  sim::StealConfig sc;
  sc.enabled = true;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const std::uint64_t n = 50 + seed * 7;
    rng::CounterRng rng(seed, 1, 2);
    std::vector<std::uint32_t> load(n);
    std::vector<std::uint8_t> dry(n), alive(n);
    for (std::uint64_t p = 0; p < n; ++p) {
      dry[p] = rng() % 5 == 0;
      load[p] = dry[p] ? 0 : static_cast<std::uint32_t>(rng() % 9);
      alive[p] = rng() % 11 != 0;
    }
    const std::vector<sim::Transfer> want =
        reference_steals(load, dry, alive, sc);
    for (const unsigned shards : {1u, 2u, 3u, 7u}) {
      const rt::Partition part(n, shards);
      std::vector<std::vector<std::uint64_t>> blobs(shards);
      for (unsigned s = 0; s < shards; ++s) {
        sim::StealCandidates c;
        c.reset(sc);
        const auto [b, e] = part.range(s);
        for (std::uint64_t p = b; p < e; ++p) {
          if (alive[p]) c.offer(static_cast<std::uint32_t>(p), load[p], dry[p]);
        }
        c.encode(blobs[s]);
      }
      const std::vector<sim::Transfer> got = sim::steal_merge(blobs, sc);
      ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].from, want[i].from);
        EXPECT_EQ(got[i].to, want[i].to);
        EXPECT_EQ(got[i].count, want[i].count);
      }
    }
  }
}

}  // namespace
