// End-to-end lockstep runs of the cross-process transport: shard processes
// over UDS (and TCP) must be bit-identical — ledger, counters, phase log,
// per-queue task identity — to the in-memory rt::Runtime shadow for every
// seed x model x shard-count combination, and the frame-corrupt mutation
// (a payload corrupted BEFORE the frame is signed, so the CRC accepts it)
// must be convicted by the shadow cross-check and by nothing weaker.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/params.hpp"
#include "models/burst.hpp"
#include "transport/process_runtime.hpp"
#include "transport/shadow.hpp"

namespace {

using namespace clb;
using namespace clb::transport;

enum class WhichModel { kSingle, kBurst };

const char* model_name(WhichModel m) {
  return m == WhichModel::kSingle ? "single" : "burst";
}

ModelSpec spec_for(WhichModel m) {
  if (m == WhichModel::kSingle) return ModelSpec::single(0.45, 0.1);
  models::BurstConfig bc;
  bc.period = 16;
  bc.burst_len = 8;
  bc.hot_fraction = 0.1;
  bc.burst_rate = 6;
  return ModelSpec::bursty(bc);
}

/// Same spike schedule as rt_equivalence_test.cpp: deposits guarantee heavy
/// processors, so transfers (and with >= 2 shards, cross-process transfers)
/// actually happen.
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

ShardRunConfig make_cfg(std::uint64_t n, std::uint64_t seed,
                        std::uint32_t workers, WhichModel which) {
  ShardRunConfig c;
  c.n = n;
  c.seed = seed;
  c.workers = workers;
  c.policy = rt::RtPolicy::kThreshold;
  core::Fractions f;
  f.t_min = 64;  // phase_len 4: phases interleave with plain steps
  c.params = core::PhaseParams::from_n(n, f);
  c.model = spec_for(which);
  return c;
}

/// Drives the run()/deposit() interleave of rt_equivalence_test's run_rt.
void drive(ProcessRuntime& pr, std::uint64_t steps, std::uint64_t seed,
           std::uint64_t n) {
  const std::vector<Spike> spikes = spikes_for(seed, n);
  std::uint64_t done = 0;
  for (const Spike& sp : spikes) {
    if (sp.step > done) {
      pr.run(sp.step - done);
      done = sp.step;
    }
    for (std::uint32_t i = 0; i < sp.tasks; ++i) {
      pr.deposit(sp.proc,
                 sim::Task{static_cast<std::uint32_t>(sp.step), sp.proc, 1});
    }
  }
  pr.run(steps - done);
}

class TransportEquivalence
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, WhichModel>> {
};

TEST_P(TransportEquivalence, UdsMatchesShadowForAllShardCounts) {
  const std::uint64_t seed = std::get<0>(GetParam());
  const WhichModel which = std::get<1>(GetParam());
  const std::uint64_t n = 192;
  const std::uint64_t steps = 48;

  std::unique_ptr<ProcessRuntime> two;
  for (std::uint32_t shards : {2u, 4u}) {
    SCOPED_TRACE(std::string(model_name(which)) + " seed=" +
                 std::to_string(seed) + " shards=" + std::to_string(shards));
    auto pr = std::make_unique<ProcessRuntime>(
        make_cfg(n, seed, shards, which), WireKind::kUds);
    drive(*pr, steps, seed, n);

    const ShadowReport rep = shadow_check(*pr);
    EXPECT_TRUE(rep.ok) << rep.divergence;
    EXPECT_TRUE(pr->result().conservation_holds());
    EXPECT_FALSE(pr->result().out.phases.empty());

    // The wire actually carried the run: frames in both planes, one barrier
    // wave per superstep, RTTs measured.
    const obs::WireStats& ws = pr->wire_stats();
    EXPECT_GT(ws.bytes_sent, 0u);
    EXPECT_GT(ws.frames_sent, 0u);
    EXPECT_GT(ws.barriers, 0u);
    EXPECT_EQ(ws.barrier_rtt_us.total(), ws.barriers);

    // Shard-count invariance, directly: 2 and 4 processes produce the same
    // bits, not merely the same shadow verdict.
    if (two == nullptr) {
      two = std::move(pr);
    } else {
      EXPECT_EQ(rt::diff(two->result(), pr->result()), "")
          << "2-shard vs 4-shard state diverged";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndModels, TransportEquivalence,
    ::testing::Combine(::testing::Values(1u, 2u, 3u),
                       ::testing::Values(WhichModel::kSingle,
                                         WhichModel::kBurst)),
    [](const auto& param_info) {
      return std::string(model_name(std::get<1>(param_info.param))) + "_seed" +
             std::to_string(std::get<0>(param_info.param));
    });

// Same codec, same protocol, different socket: one TCP run must pass the
// identical shadow check.
TEST(TransportTcp, MatchesShadow) {
  const std::uint64_t n = 192;
  ProcessRuntime pr(make_cfg(n, 1, 2, WhichModel::kSingle), WireKind::kTcp);
  drive(pr, 48, 1, n);
  const ShadowReport rep = shadow_check(pr);
  EXPECT_TRUE(rep.ok) << rep.divergence;
  EXPECT_GT(pr.wire_stats().barriers, 0u);
}

// kNone policy: no data plane at all (no kBatch frames), only the lockstep
// barrier; generation/consumption must still match the shadow exactly.
TEST(TransportNone, UnbalancedMatchesShadow) {
  ShardRunConfig cfg = make_cfg(128, 11, 3, WhichModel::kBurst);
  cfg.policy = rt::RtPolicy::kNone;
  ProcessRuntime pr(cfg, WireKind::kUds);
  pr.run(64);
  const ShadowReport rep = shadow_check(pr);
  EXPECT_TRUE(rep.ok) << rep.divergence;
  EXPECT_EQ(pr.result().out.msg.transfers, 0u);
}

// The RtConfig seam: constructing from an rt::RtConfig with
// transport = kUds must behave identically to the native constructor.
TEST(TransportSeam, RtConfigConstructor) {
  rt::RtConfig cfg;
  cfg.n = 192;
  cfg.seed = 2;
  cfg.workers = 2;
  cfg.policy = rt::RtPolicy::kThreshold;
  core::Fractions f;
  f.t_min = 64;
  cfg.params = core::PhaseParams::from_n(cfg.n, f);
  cfg.transport = rt::Transport::kUds;
  ProcessRuntime pr(cfg, spec_for(WhichModel::kSingle));
  drive(pr, 48, 2, cfg.n);
  const ShadowReport rep = shadow_check(pr);
  EXPECT_TRUE(rep.ok) << rep.divergence;
}

// The frame-corrupt mutation: worker 0 flips one bit in the first task of
// its first remote kTransfer payload BEFORE the frame is signed. The CRC
// accepts the frame, sequence numbers stay clean, every counter remains
// self-consistent — only the shadow-fabric cross-check can convict it,
// through task identity (still queued) or the sojourn histogram (consumed).
TEST(TransportMutation, FrameCorruptConvictedByShadowOnly) {
  const std::uint64_t n = 192;
  ShardRunConfig cfg = make_cfg(n, 1, 2, WhichModel::kSingle);
  cfg.mutation = sim::MutationKind::kFrameCorrupt;
  cfg.mutation_ordinal = 1;
  cfg.track_sojourn = true;  // convicts even if the corrupted task was consumed
  ProcessRuntime pr(cfg, WireKind::kUds);
  drive(pr, 48, 1, n);

  // The transport itself is oblivious: the run completes, conservation holds
  // (the task still exists, just with a forged birth identity), counters are
  // plausible. The witness counts the one forged frame.
  EXPECT_TRUE(pr.result().conservation_holds());
  EXPECT_EQ(pr.result().out.mutation_applied, 1u);

  const ShadowReport rep = shadow_check(pr);
  EXPECT_FALSE(rep.ok)
      << "a corrupted-before-signing frame must not survive the shadow check";
  // Named by task identity or the sojourn histogram, as above — not by the
  // witness or a counter.
  const bool queue = rep.divergence.rfind("proc[", 0) == 0 &&
                     rep.divergence.find("].queue[") != std::string::npos;
  const bool sojourn = rep.divergence.rfind("sojourn_steps", 0) == 0;
  EXPECT_TRUE(queue || sojourn) << rep.divergence;
}

// Control for the mutation test: the identical scenario with the fault
// injection off passes — so the conviction above is the corruption, not the
// scenario.
TEST(TransportMutation, SameScenarioCleanPasses) {
  const std::uint64_t n = 192;
  ShardRunConfig cfg = make_cfg(n, 1, 2, WhichModel::kSingle);
  cfg.track_sojourn = true;
  ProcessRuntime pr(cfg, WireKind::kUds);
  drive(pr, 48, 1, n);
  const ShadowReport rep = shadow_check(pr);
  EXPECT_TRUE(rep.ok) << rep.divergence;
}

}  // namespace
