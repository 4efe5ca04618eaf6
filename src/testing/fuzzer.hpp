// Fuzz driver: samples scenarios, runs each under the invariant oracle,
// and on failure shrinks to a minimal reproducer.
//
// Shrinking only ever changes the three override dimensions (n, steps,
// fault count) of a sampled scenario — everything else stays a pure
// function of (scenario_seed, index) — so a failure always reduces to one
// short command line:
//
//   clb_fuzz --scenario-seed=S --index=I --n=.. --steps=.. --max-faults=..
//
// `--mutate` forces a deliberately broken behaviour into every scenario;
// with `--expect-failure` the run succeeds iff the oracle catches at least
// one mutated scenario (the harness's self-test, registered in ctest).
#pragma once

#include <cstdint>
#include <string>

#include "testing/oracle.hpp"
#include "testing/scenario.hpp"

namespace clb::testing {

/// Sentinel for "no override".
inline constexpr std::uint64_t kNoOverride = ~0ULL;

struct FuzzOptions {
  std::uint64_t scenario_seed = 1;
  std::uint64_t count = 200;      ///< scenarios checked (indices 0..count-1)
  std::uint64_t index = kNoOverride;  ///< replay exactly one index
  // Shrinker override dimensions (kNoOverride = keep sampled value).
  std::uint64_t n = kNoOverride;
  std::uint64_t steps = kNoOverride;
  std::uint64_t max_faults = kNoOverride;
  sim::MutationKind mutate = sim::MutationKind::kNone;
  bool expect_failure = false;
  bool shrink = true;
  bool verbose = false;
  /// Force every scenario into rt::Runtime (the long-tier thread-sanitizer
  /// sweep uses this): engine scenarios are clamped into the runtime
  /// envelope and every other threshold scenario runs the latency fabric.
  bool runtime_only = false;
  /// Force every scenario into the workload zoo on rt::Runtime: zoo models
  /// and the information baselines rotate deterministically by index, and
  /// every third eligible scenario carries a crash/recovery schedule.
  bool workload_zoo = false;
};

/// Samples scenario (seed, index) and applies the option overrides plus the
/// mutation normalisation (a forced mutation needs a scenario shape the
/// oracle can convict: reorder needs per-queue order tracking, phantom
/// messages need the threshold balancer's phase attribution).
Scenario materialize(const FuzzOptions& opt, std::uint64_t index);

/// Greedily minimises a failing scenario along n, fault count, and steps,
/// re-checking after every candidate reduction. Returns the smallest still-
/// failing scenario found.
Scenario shrink_failure(const FuzzOptions& opt, const Scenario& failing);

/// Runs the whole fuzz campaign; prints progress and failures to stdout.
/// Returns a process exit code: 0 on success (no failures, or, with
/// expect_failure, at least one caught mutation), 1 otherwise.
int run_fuzz(const FuzzOptions& opt);

}  // namespace clb::testing
