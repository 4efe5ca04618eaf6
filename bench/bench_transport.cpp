// EXP-26 (extension) — the cross-process transport: what does a real wire
// cost?
//
// The same deterministic lockstep protocol runs on three substrates: the
// in-proc rt::Runtime (threads), transport::ProcessRuntime over
// Unix-domain sockets, and optionally over loopback TCP — same seeds, same
// spike schedule, bit-identical outputs (the harness proves it before
// measuring: a shadow-fabric cross-check convicts any divergence and aborts
// the bench). The sweep then reports, per substrate and shard count,
// wall-clock throughput, task sojourn (p50/p95/p99 us), the slowdown versus
// the in-proc run at the same worker count, and the wire bill: bytes and
// frames per step, the exchange count (wire.barriers), and each exchange's
// peer wait (wire.barrier_rtt_*: a shard's first peer write to its last
// peer frame) — the cross-process analogue of the in-proc barrier stall.
//
// Gauges land under exp26.<substrate>.w<k>.*; tools/perfbench.py --grids=exp26
// folds them into the perf report.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "transport/process_runtime.hpp"
#include "transport/shadow.hpp"

namespace {

using namespace clb;

/// Deterministic deposit schedule shared by every substrate: guarantees
/// heavy processors so transfers (and cross-shard frames) actually flow.
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

struct Outcome {
  double wall = 0;
  std::uint64_t consumed = 0;
  stats::LogHistogram sojourn_us;
  std::uint64_t running_max = 0;
  obs::WireStats wire;  // zero for in-proc
};

transport::ShardRunConfig shard_cfg(std::uint64_t n, std::uint64_t seed,
                                    std::uint32_t workers, std::uint64_t spin,
                                    const core::PhaseParams& params) {
  transport::ShardRunConfig c;
  c.n = n;
  c.seed = seed;
  c.workers = workers;
  c.policy = rt::RtPolicy::kThreshold;
  c.params = params;
  c.spin_work = static_cast<std::uint32_t>(spin);
  c.track_sojourn = true;
  c.time_sojourn = true;
  c.model = transport::ModelSpec::single(0.45, 0.1);
  return c;
}

template <typename Runner>
void drive(Runner& run, std::uint64_t steps, std::uint64_t seed,
           std::uint64_t n) {
  const std::vector<Spike> spikes = spikes_for(seed, n);
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
  run.run(steps - done);
}

Outcome run_inproc(std::uint64_t n, std::uint64_t seed, std::uint64_t steps,
                   unsigned workers, std::uint64_t spin,
                   const core::PhaseParams& params) {
  models::SingleModel model(0.45, 0.1);
  rt::RtConfig cfg;
  cfg.n = n;
  cfg.seed = seed;
  cfg.workers = workers;
  cfg.policy = rt::RtPolicy::kThreshold;
  cfg.params = params;
  cfg.spin_work = static_cast<std::uint32_t>(spin);
  cfg.track_sojourn = true;
  cfg.time_sojourn = true;
  rt::Runtime run(cfg, &model);
  drive(run, steps, seed, n);
  Outcome o;
  o.wall = run.wall_seconds();
  const rt::RunResult& res = run.result();
  o.consumed = res.total_consumed();
  o.sojourn_us = res.out.sojourn_us;
  o.running_max = res.out.running_max;
  return o;
}

Outcome run_process(std::uint64_t n, std::uint64_t seed, std::uint64_t steps,
                    unsigned workers, std::uint64_t spin,
                    const core::PhaseParams& params, transport::WireKind wire) {
  transport::ProcessRuntime run(
      shard_cfg(n, seed, static_cast<std::uint32_t>(workers), spin, params),
      wire);
  drive(run, steps, seed, n);
  Outcome o;
  o.wall = run.wall_seconds();
  const rt::RunResult& res = run.result();
  o.consumed = res.total_consumed();
  o.sojourn_us = res.out.sojourn_us;
  o.running_max = res.out.running_max;
  o.wire = run.wire_stats();
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("EXP-26: cross-process transport cost (UDS/TCP vs in-proc)");
  const auto n = cli.flag_u64("n", 1 << 11, "logical processors");
  const auto steps = cli.flag_u64("steps", 512, "lockstep steps per run");
  const auto seed = cli.flag_u64("seed", 1, "seed");
  const auto spin = cli.flag_u64(
      "spin", 64, "spin-work iterations per consumed task");
  const auto workers_csv = cli.flag_str(
      "workers", "2,4", "comma-separated shard counts (processes/threads)");
  const auto transports_csv = cli.flag_str(
      "transports", "inproc,uds",
      "substrates to sweep: inproc,uds,tcp (inproc is the baseline)");
  const auto check_steps = cli.flag_u64(
      "check-steps", 48,
      "steps of the shadow-checked conviction run before measuring");
  bench::SmokeFlag smoke(cli);
  bench::ObsFlags obs_flags(cli);
  cli.parse(argc, argv);
  smoke.apply();
  if (smoke.on()) {
    cli.override_u64("steps", 96);
    cli.override_str("workers", "2");
    cli.override_u64("check-steps", 32);
  }

  obs::Recorder rec(obs_flags.config("bench_transport", argc, argv));
  rec.manifest().set_seed(*seed);
  rec.manifest().set_param("n", *n);
  rec.manifest().set_param("steps", *steps);
  rec.manifest().set_param("spin", *spin);

  std::vector<unsigned> workers;
  for (std::uint64_t w : util::Cli::parse_u64_list(*workers_csv)) {
    workers.push_back(static_cast<unsigned>(w));
  }
  const bool want_inproc = transports_csv->find("inproc") != std::string::npos;
  const bool want_uds = transports_csv->find("uds") != std::string::npos;
  const bool want_tcp = transports_csv->find("tcp") != std::string::npos;

  core::Fractions fr;
  fr.t_min = 64;
  const core::PhaseParams params = core::PhaseParams::from_n(*n, fr);

  util::print_banner("EXP-26  cross-process transport: the price of a wire");
  util::print_note("expect: identical protocol outputs on every substrate "
                   "(shadow-checked below); UDS pays a peer wait per "
                   "exchange and frame serialisation, TCP adds loopback stack "
                   "overhead on top — throughput gap narrows as spin work "
                   "grows");

  // ---- Conviction gate: a wire that corrupts or reorders is disqualified
  // before any timing is read. Small run, full shadow cross-check.
  {
    const std::uint64_t cn = std::min<std::uint64_t>(*n, 256);
    const core::PhaseParams cparams = core::PhaseParams::from_n(cn, fr);
    transport::ProcessRuntime pr(shard_cfg(cn, *seed, 2, 0, cparams),
                                 transport::WireKind::kUds);
    drive(pr, *check_steps, *seed, cn);
    const transport::ShadowReport rep = transport::shadow_check(pr);
    if (!rep.ok) {
      std::fprintf(stderr, "FATAL: shadow divergence: %s\n",
                   rep.divergence.c_str());
      return 1;
    }
    util::print_note("shadow cross-check passed: UDS run is bit-identical "
                     "to the in-memory runtime");
    rec.metrics().gauge("exp26.shadow_ok") = 1.0;
  }

  util::Table table({"substrate", "workers", "tasks/sec", "vs inproc",
                     "p50 us", "p99 us", "max load", "KB/step",
                     "peer wait p99 us"});

  for (unsigned w : workers) {
    double inproc_rate = 0;
    const auto emit_row = [&](const std::string& name, const Outcome& o,
                              bool has_wire) {
      const double secs = std::max(o.wall, 1e-9);
      const double rate = static_cast<double>(o.consumed) / secs;
      if (name == "inproc") inproc_rate = rate;
      const double rel = inproc_rate > 0 ? rate / inproc_rate : 1.0;
      const double kb_per_step =
          has_wire ? static_cast<double>(o.wire.bytes_sent) / 1024.0 /
                         static_cast<double>(*steps)
                   : 0.0;
      table.row()
          .cell(name)
          .cell(static_cast<std::uint64_t>(w))
          .cell(rate, 0)
          .cell(rel, 3)
          .cell(o.sojourn_us.quantile(0.50))
          .cell(o.sojourn_us.quantile(0.99))
          .cell(o.running_max)
          .cell(kb_per_step, 1)
          .cell(has_wire
                    ? static_cast<std::uint64_t>(
                          o.wire.barrier_rtt_us.quantile(0.99))
                    : 0);

      const std::string prefix =
          "exp26." + name + ".w" + std::to_string(w) + ".";
      auto& m = rec.metrics();
      m.gauge(prefix + "tasks_per_sec") = rate;
      m.gauge(prefix + "wall_seconds") = secs;
      m.gauge(prefix + "vs_inproc") = rel;
      m.gauge(prefix + "sojourn_p50_us") =
          static_cast<double>(o.sojourn_us.quantile(0.50));
      m.gauge(prefix + "sojourn_p95_us") =
          static_cast<double>(o.sojourn_us.quantile(0.95));
      m.gauge(prefix + "sojourn_p99_us") =
          static_cast<double>(o.sojourn_us.quantile(0.99));
      m.gauge(prefix + "consumed") = static_cast<double>(o.consumed);
      m.gauge(prefix + "running_max_load") =
          static_cast<double>(o.running_max);
      if (has_wire) {
        obs::export_wire_stats(m, prefix, o.wire);
        m.gauge(prefix + "wire.kb_per_step") = kb_per_step;
      }
    };

    if (want_inproc) {
      emit_row("inproc", run_inproc(*n, *seed, *steps, w, *spin, params),
               false);
    }
    if (want_uds) {
      emit_row("uds",
               run_process(*n, *seed, *steps, w, *spin, params,
                           transport::WireKind::kUds),
               true);
    }
    if (want_tcp) {
      emit_row("tcp",
               run_process(*n, *seed, *steps, w, *spin, params,
                           transport::WireKind::kTcp),
               true);
    }
  }

  clb::bench::emit(table, "transport_1");
  util::print_note("gauges: exp26.<substrate>.w<k>.{tasks_per_sec, "
                   "vs_inproc, sojourn_p50/p95/p99_us, wire.*}; "
                   "tools/perfbench.py --grids=exp26 folds them into the "
                   "report");
  rec.finish();
  return 0;
}
