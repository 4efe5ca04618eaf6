// clb_fuzz: scenario fuzzer + invariant oracle entry point.
//
// Default run checks `--count` scenarios sampled from `--scenario-seed`.
// A failing scenario is shrunk (n, fault count, steps) and reported as one
// replayable command line. `--mutate=<kind> --expect-failure` flips the
// harness into self-test mode: it PASSES iff the oracle catches the
// deliberately broken behaviour.
#include <cstdint>
#include <cstdio>
#include <string>

#include "sim/mutation.hpp"
#include "testing/fuzzer.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using clb::testing::FuzzOptions;
  using clb::testing::kNoOverride;
  using clb::sim::MutationSite;

  // Every kind this harness can inject, from the enum's own name table;
  // frame-corrupt lives in the socket transport, which only the
  // shard-process tests drive.
  std::string kinds;
  for (const clb::sim::MutationInfo& m : clb::sim::mutations()) {
    if (m.site == MutationSite::kTransport) continue;
    kinds += (kinds.empty() ? "" : "|") + std::string(m.name);
  }

  clb::util::Cli cli(
      "clb_fuzz: randomized scenario fuzzer with a full-state invariant "
      "oracle (conservation by identity, FIFO order, collision-protocol "
      "invariants, message attribution, cross-thread determinism)");
  const auto* seed = cli.flag_u64("scenario-seed", 1, "scenario stream seed");
  const auto* count = cli.flag_u64("count", 200, "scenarios to check");
  const auto* index =
      cli.flag_u64("index", kNoOverride, "replay exactly this index");
  const auto* n = cli.flag_u64("n", kNoOverride, "override machine size");
  const auto* steps = cli.flag_u64("steps", kNoOverride, "override run length");
  const auto* max_faults =
      cli.flag_u64("max-faults", kNoOverride, "cap fault events");
  const auto* mutate =
      cli.flag_str("mutate", "none", "inject a broken behaviour: " + kinds);
  const auto* expect_failure = cli.flag_bool(
      "expect-failure", false,
      "succeed iff the oracle catches at least one scenario (self-test)");
  const auto* runtime_only = cli.flag_bool(
      "runtime-only", false,
      "clamp every scenario onto rt::Runtime worker threads (TSan sweeps); "
      "every other threshold scenario runs the latency fabric");
  const auto* workload_zoo = cli.flag_bool(
      "workload-zoo", false,
      "drive every scenario through the production workload zoo on "
      "rt::Runtime: zoo models + information baselines rotate by index, "
      "every third baseline scenario crashes a processor mid-run");
  const auto* no_shrink =
      cli.flag_bool("no-shrink", false, "report failures without shrinking");
  const auto* verbose = cli.flag_bool("verbose", false, "per-scenario lines");
  cli.parse(argc, argv);
  const auto kind = clb::sim::mutation_from_string(*mutate);
  if (!kind ||
      clb::sim::mutation_info(*kind).site == MutationSite::kTransport) {
    std::fprintf(stderr, "clb_fuzz: cannot inject --mutate=%s (one of: %s)\n",
                 mutate->c_str(), kinds.c_str());
    return 2;
  }

  FuzzOptions opt;
  opt.scenario_seed = *seed;
  opt.count = *count;
  opt.index = *index;
  opt.n = *n;
  opt.steps = *steps;
  opt.max_faults = *max_faults;
  opt.mutate = *kind;
  opt.expect_failure = *expect_failure;
  opt.runtime_only = *runtime_only;
  opt.workload_zoo = *workload_zoo;
  opt.shrink = !*no_shrink;
  opt.verbose = *verbose;
  return clb::testing::run_fuzz(opt);
}
