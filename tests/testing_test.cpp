// Tests for the src/testing fuzz subsystem itself: scenario sampling,
// override materialisation, the invariant oracle (clean pass + seeded
// mutation conviction), shrinking, and repro-command round-trips.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "sim/mutation.hpp"
#include "testing/fuzzer.hpp"
#include "testing/oracle.hpp"
#include "testing/scenario.hpp"

namespace {

// clb::testing clashes with gtest's ::testing inside `using namespace clb`,
// so everything here goes through an explicit alias instead.
namespace fuzz = clb::testing;
using fuzz::FuzzOptions;
using clb::sim::MutationKind;
using fuzz::Scenario;

TEST(Scenario, SamplingIsDeterministic) {
  for (std::uint64_t i = 0; i < 16; ++i) {
    const Scenario a = Scenario::sample(42, i);
    const Scenario b = Scenario::sample(42, i);
    EXPECT_EQ(a.describe(), b.describe());
    EXPECT_EQ(a.n, b.n);
    EXPECT_EQ(a.steps, b.steps);
    EXPECT_EQ(a.engine_seed, b.engine_seed);
    EXPECT_EQ(a.faults.size(), b.faults.size());
  }
}

TEST(Scenario, SamplingCoversCollisionAndEngineScenarios) {
  bool saw_collision = false, saw_engine = false, saw_faults = false;
  for (std::uint64_t i = 0; i < 32; ++i) {
    const Scenario s = Scenario::sample(1, i);
    (s.collision_only ? saw_collision : saw_engine) = true;
    saw_faults = saw_faults || !s.faults.empty();
    EXPECT_GE(s.n, 16u);
    EXPECT_GE(s.steps, 1u);
    EXPECT_LT(s.b, s.a);
  }
  EXPECT_TRUE(saw_collision);
  EXPECT_TRUE(saw_engine);
  EXPECT_TRUE(saw_faults);
}

TEST(Fuzzer, MaterializeAppliesOverrides) {
  FuzzOptions opt;
  opt.scenario_seed = 1;
  opt.n = 4;  // below the floor of 16
  opt.steps = 3;
  opt.max_faults = 0;
  const Scenario s = fuzz::materialize(opt, 0);
  EXPECT_EQ(s.n, 16u);
  EXPECT_EQ(s.steps, 3u);
  EXPECT_TRUE(s.faults.empty());
}

TEST(Fuzzer, MaterializeForcedMutationKeepsBalancerConfigValid) {
  // Collision-only scenarios sample b up to a-1; a forced mutation converts
  // them to engine scenarios whose threshold balancer CLB_CHECKs b in {1,2}.
  FuzzOptions opt;
  opt.scenario_seed = 1;
  opt.mutate = MutationKind::kDropTask;
  for (std::uint64_t i = 0; i < 24; ++i) {
    const Scenario s = fuzz::materialize(opt, i);
    EXPECT_FALSE(s.collision_only);
    EXPECT_GE(s.a, 4u);
    EXPECT_LE(s.b, 2u);
    EXPECT_LE(s.c, 2u);
    EXPECT_EQ(s.mutation, MutationKind::kDropTask);
  }
}

TEST(Oracle, CleanScenariosPass) {
  for (std::uint64_t i = 0; i < 12; ++i) {
    const Scenario s = Scenario::sample(7, i);
    const auto report = fuzz::check_scenario(s);
    EXPECT_TRUE(report.ok) << "index " << i << ": " << report.what;
  }
}

// Every kind the fuzzer injects (engine hooks and runtime config alike) is
// convicted, and each conviction comes with the kind's own witness.
TEST(Oracle, ConvictsEveryMutationKind) {
  for (const clb::sim::MutationInfo& m : clb::sim::mutations()) {
    if (m.site != clb::sim::MutationSite::kEngine &&
        m.site != clb::sim::MutationSite::kRuntime) {
      continue;
    }
    const MutationKind kind = m.kind;
    FuzzOptions opt;
    opt.scenario_seed = 1;
    opt.mutate = kind;
    bool convicted = false;
    for (std::uint64_t i = 0; i < 8 && !convicted; ++i) {
      const Scenario s = fuzz::materialize(opt, i);
      const auto report = fuzz::check_scenario(s);
      convicted = !report.ok;
      if (!report.ok) {
        EXPECT_TRUE(report.mutation_applied) << m.name << " index " << i;
      }
    }
    EXPECT_TRUE(convicted) << "mutation " << m.name << " never caught";
  }
}

// The name table covers every kind: each name parses back to its kind, and
// a name no kind carries parses to nothing (clb_fuzz exits 2 on it).
TEST(Mutation, NamesRoundTripForEveryKind) {
  const int last = static_cast<int>(MutationKind::kFrameCorrupt);
  for (int i = 0; i <= last; ++i) {
    const auto k = static_cast<MutationKind>(i);
    EXPECT_EQ(clb::sim::mutation_from_string(clb::sim::to_string(k)), k) << i;
  }
  EXPECT_FALSE(clb::sim::mutation_from_string("typo").has_value());
}

// Every engine and runtime kind has a `fuzz_mutation_<name>` ctest tier,
// and every tier names such a kind: the build passes the tier list of
// src/testing/CMakeLists.txt in, so a kind added to the table cannot go
// without a self-test in tier-1 and in CI's TSan step.
TEST(Mutation, EveryEngineAndRuntimeKindHasACtestTier) {
  const std::set<std::string> tiers{CLB_FUZZ_MUTATION_TIERS};
  std::set<std::string> kinds;
  for (const clb::sim::MutationInfo& row : clb::sim::mutations()) {
    if (row.site == clb::sim::MutationSite::kEngine ||
        row.site == clb::sim::MutationSite::kRuntime) {
      kinds.emplace(row.name);
    }
  }
  EXPECT_EQ(tiers, kinds);
}

TEST(Oracle, ShrinkProducesSmallerStillFailingScenario) {
  FuzzOptions opt;
  opt.scenario_seed = 1;
  opt.mutate = MutationKind::kDropTask;
  // Find a failing index first.
  for (std::uint64_t i = 0; i < 8; ++i) {
    FuzzOptions replay = opt;
    replay.index = i;
    const Scenario s = fuzz::materialize(replay, i);
    if (fuzz::check_scenario(s).ok) continue;
    const Scenario small = fuzz::shrink_failure(replay, s);
    EXPECT_FALSE(fuzz::check_scenario(small).ok);
    EXPECT_LE(small.n, s.n);
    EXPECT_LE(small.steps, s.steps);
    EXPECT_LE(small.faults.size(), s.faults.size());
    return;
  }
  FAIL() << "no failing scenario found to shrink";
}

TEST(Fuzzer, ReproCommandRoundTrips) {
  const Scenario s = Scenario::sample(5, 3);
  const std::string cmd = s.repro_command();
  EXPECT_NE(cmd.find("--scenario-seed=5"), std::string::npos);
  EXPECT_NE(cmd.find("--index=3"), std::string::npos);
  EXPECT_NE(cmd.find("--n=" + std::to_string(s.n)), std::string::npos);
  EXPECT_NE(cmd.find("--steps=" + std::to_string(s.steps)),
            std::string::npos);
}

TEST(Fuzzer, RunFuzzCleanBatchReturnsZero) {
  FuzzOptions opt;
  opt.scenario_seed = 11;
  opt.count = 25;
  EXPECT_EQ(fuzz::run_fuzz(opt), 0);
}

TEST(Fuzzer, RunFuzzExpectFailureConvictsMutant) {
  FuzzOptions opt;
  opt.scenario_seed = 1;
  opt.count = 8;
  opt.mutate = MutationKind::kDupTask;
  opt.expect_failure = true;
  opt.shrink = false;
  EXPECT_EQ(fuzz::run_fuzz(opt), 0);
}

}  // namespace
