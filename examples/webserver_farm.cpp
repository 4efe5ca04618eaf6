// Scenario: a server farm with rotating hot spots — the workload the
// paper's introduction motivates (load generated "in place", correlated,
// with related tasks that should stay together) — now served by the real
// concurrent runtime: worker threads own server shards, exchange the
// protocol's messages through lock-free outboxes, and burn actual CPU per
// request (--spin), so the printed sojourn is wall-clock microseconds, not
// simulator steps.
//
// Three policies side by side:
//   * none        — requests queue up where they land,
//   * threshold   — the paper's algorithm,
//   * all-in-air  — global rescatter (flat load, no locality, huge traffic).
//
//   ./webserver_farm [--n 4096] [--steps 4000] [--workers 0] [--spin 128]
#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include "clb.hpp"

namespace {

struct Row {
  std::string policy;
  double tasks_per_sec;
  std::uint64_t max_load;
  std::uint64_t p50_us;
  std::uint64_t p99_us;
  double remote_pct;
  double msgs_per_task;
};

Row run_policy(const std::string& policy, std::uint64_t n,
               std::uint64_t steps, std::uint64_t seed, unsigned workers,
               std::uint32_t spin) {
  clb::models::BurstConfig bc;
  bc.p_base = 0.25;
  bc.p_consume = 0.6;
  bc.period = 128;
  bc.burst_len = 8;
  bc.hot_fraction = 0.03;
  bc.burst_rate = 4;
  clb::models::BurstModel model(bc, n);

  clb::rt::RtConfig cfg;
  cfg.n = n;
  cfg.seed = seed;
  cfg.workers = workers;
  cfg.spin_work = spin;
  cfg.time_sojourn = true;
  if (policy == "threshold") {
    cfg.policy = clb::rt::RtPolicy::kThreshold;
    cfg.params = clb::core::PhaseParams::from_n(n);
  } else if (policy == "all-in-air") {
    cfg.policy = clb::rt::RtPolicy::kAllInAir;
  } else {
    cfg.policy = clb::rt::RtPolicy::kNone;
  }

  clb::rt::Runtime run(cfg, &model);
  run.run(steps);

  const clb::rt::RunResult& res = run.result();
  const clb::stats::LogHistogram& soj = res.out.sojourn_us;
  const std::uint64_t remote = run.remote_pushes();
  const std::uint64_t self = run.self_pushes();
  return Row{
      policy,
      static_cast<double>(res.total_consumed()) /
          (run.wall_seconds() > 0 ? run.wall_seconds() : 1e-9),
      res.out.running_max,
      soj.quantile(0.50),
      soj.quantile(0.99),
      remote + self > 0 ? 100.0 * static_cast<double>(remote) /
                              static_cast<double>(remote + self)
                        : 0.0,
      res.total_generated() > 0
          ? static_cast<double>(res.out.msg.protocol_total() +
                                res.out.msg.control) /
                static_cast<double>(res.total_generated())
          : 0.0};
}

}  // namespace

int main(int argc, char** argv) {
  clb::util::Cli cli(
      "webserver_farm: bursty hot spots on the concurrent runtime");
  const auto n = cli.flag_u64("n", 4096, "number of servers");
  const auto steps = cli.flag_u64("steps", 4000, "runtime steps");
  const auto seed = cli.flag_u64("seed", 7, "random seed");
  const auto workers =
      cli.flag_u64("workers", 0, "worker threads (0 = hardware concurrency)");
  const auto spin =
      cli.flag_u64("spin", 128, "spin-work iterations per served request");
  cli.parse(argc, argv);

  const unsigned w = *workers != 0
                         ? static_cast<unsigned>(*workers)
                         : std::max(1u, std::thread::hardware_concurrency());
  clb::util::print_banner("server farm with rotating hot spots (rt::Runtime)");
  std::printf("  workers=%u  spin=%llu iterations/request\n\n", w,
              static_cast<unsigned long long>(*spin));

  clb::util::Table table({"policy", "tasks/sec", "max_load", "p50 us",
                          "p99 us", "remote_%", "msgs/task"});
  for (const char* policy : {"none", "threshold", "all-in-air"}) {
    const Row r = run_policy(policy, *n, *steps, *seed, w,
                             static_cast<std::uint32_t>(*spin));
    table.row()
        .cell(r.policy)
        .cell(r.tasks_per_sec, 0)
        .cell(r.max_load)
        .cell(r.p50_us)
        .cell(r.p99_us)
        .cell(r.remote_pct, 1)
        .cell(r.msgs_per_task, 3);
  }
  std::fputs(table.str().c_str(), stdout);
  clb::util::print_note(
      "threshold pulls the p99 sojourn toward the unbalanced p50 for a few "
      "percent of remote messages; all-in-air flattens harder but ships "
      "every task across a shard. docs/runtime.md explains the machinery.");
  return 0;
}
