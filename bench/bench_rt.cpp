// EXP-21 (extension) — the concurrent runtime: scaling and latency.
//
// rt::Runtime executes the paper's protocol on real worker threads
// (shared-nothing shards, one shard kernel per thread, lock-free outboxes,
// barrier-separated supersteps). Every experiment below is one row of the
// grid table in main(): its points (one runtime config each), its driver,
// and one column list that yields both the printed table and the row's
// <prefix>.<point>.<gauge> metrics. --grids picks the rows to run; the row
// name is also the BENCH_rt.json section tools/perfbench.py records and the
// tools/statcheck.py section that bands it.
//
// exp21 (gauges rt.*) — runtime scaling: spin work attached to every
// consumed task so "consume" costs real CPU, worker counts swept for
// Threshold vs NoBalancing vs AllInAir under the Single and Burst models.
// Measured: wall-clock throughput (tasks/sec), speedup over the 1-worker run
// of the same configuration, task sojourn latency (p50/p95/p99 in
// microseconds), and contention exposure (fraction of messages addressed to
// another worker's shard). Every (model, policy) row gives the same
// counters at every worker count (FATAL-checked). tools/perfbench.py
// distils it into BENCH_rt.json's "runs".
//
// exp22 — the latency fabric on real threads. Deterministic runs with a
// message latency attached to every protocol send (the dist:: delay-queue
// policy, executed by worker threads) report per-phase durations: EXP-19's
// phase-duration ∝ latency result, reproduced on the concurrent runtime.
//
// exp24 — the link model on the same fabric. A loss × bandwidth grid
// (heterogeneous jitter on every point): lost attempts are retransmitted
// after an RTO, ack losses schedule (suppressed) duplicates, and bandwidth
// caps serialize each link's sends. Phase durations stretch with the
// retransmit/queueing delay while the match rate holds.
//
// exp25 — the production workload zoo. Every zoo model (diurnal,
// flash-crowd, pareto, zipf, hetero) runs deterministically under four
// policies: unbalanced control, the stale-information shortest-queue
// baseline, Berenbrink–Kling local search, and the paper's threshold
// protocol. A crash/recovery pass re-runs the liveness-aware policies with
// processors dying mid-run.
//
// exp27 — million-processor scale. A throughput grid over n x workers x
// {arena, arena+steal}: the arena-backed SoA queues alone, and with
// deterministic work stealing live (RtConfig::steal). Every row of one
// (n, mode) pair must agree on every counter across worker counts — the
// bench FATALs if they diverge.
#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "obs/json.hpp"

namespace {

using namespace clb;

std::unique_ptr<sim::LoadModel> make_zoo_model(const std::string& name,
                                               std::uint64_t n) {
  if (name == "diurnal") {
    models::DiurnalConfig dc;
    dc.period = 64;
    dc.proc_skew = 1.0 / static_cast<double>(n);  // peak sweeps the machine
    return std::make_unique<models::DiurnalModel>(dc);
  }
  if (name == "flash-crowd") {
    return std::make_unique<models::FlashCrowdModel>(
        models::FlashCrowdConfig{}, n);
  }
  if (name == "pareto") {
    return std::make_unique<models::ParetoModel>(models::ParetoConfig{});
  }
  if (name == "zipf") {
    models::ZipfConfig zc;
    zc.rotate_period = 96;  // hot-shard migration
    return std::make_unique<models::ZipfModel>(zc, n);
  }
  return std::make_unique<models::HeteroModel>(models::HeteroConfig{});
}

rt::RtPolicy zoo_policy_of(const std::string& name) {
  if (name == "none") return rt::RtPolicy::kNone;
  if (name == "stale-sq") return rt::RtPolicy::kStaleSq;
  if (name == "local-search") return rt::RtPolicy::kLocalSearch;
  return rt::RtPolicy::kThreshold;
}

std::unique_ptr<sim::LoadModel> make_model(const std::string& name,
                                           std::uint64_t n) {
  if (name == "burst") {
    models::BurstConfig bc;
    bc.period = 64;
    bc.burst_len = 16;
    bc.hot_fraction = 0.05;
    bc.burst_rate = 8;
    return std::make_unique<models::BurstModel>(bc, n);
  }
  return std::make_unique<models::SingleModel>(0.45, 0.1);
}

rt::RtPolicy policy_of(const std::string& name) {
  if (name == "none") return rt::RtPolicy::kNone;
  if (name == "all-in-air") return rt::RtPolicy::kAllInAir;
  return rt::RtPolicy::kThreshold;
}

/// Worker counts to sweep: powers of two up to hardware_concurrency, plus
/// the concurrency itself when it is not a power of two. Always includes 2
/// so mailbox traffic is exercised even on a single-core host.
std::vector<unsigned> auto_workers() {
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  std::vector<unsigned> w;
  for (unsigned k = 1; k <= hw; k *= 2) w.push_back(k);
  if (w.back() != hw) w.push_back(hw);
  if (w.size() < 2) w.push_back(2);
  return w;
}

// Fixed shape of the latency, link and zoo grids: their worker threads,
// the link model's base latency, per-link jitter and bandwidth caps
// (msgs/step, 0 = uncapped), and the stale-SQ broadcast interval of the
// zoo.
constexpr unsigned kGridWorkers = 4;
constexpr std::uint32_t kLinkLatency = 2;
constexpr std::uint32_t kLinkJitter = 1;
constexpr std::uint32_t kLinkBandwidths[] = {0, 1};
constexpr std::uint64_t kZooStaleness = 8;

// Column values (see Column) shared by several grids.
double wall_seconds(const rt::Runtime& run, const rt::RunResult&) {
  return std::max(run.wall_seconds(), 1e-9);
}

double rate(const rt::Runtime& run, const rt::RunResult& res) {
  return static_cast<double>(res.total_consumed()) / wall_seconds(run, res);
}

double msgs_per_task(const rt::Runtime&, const rt::RunResult& res) {
  return res.total_generated() > 0
             ? static_cast<double>(res.out.msg.protocol_total()) /
                   static_cast<double>(res.total_generated())
             : 0.0;
}

/// The completed phases that did heavy work, reduced for the latency grids.
struct PhaseStats {
  std::uint64_t phases = 0, duration = 0, matched = 0, unmatched = 0,
                forced = 0;

  explicit PhaseStats(const rt::RunResult& res) {
    for (const rt::RtPhaseSummary& ps : res.out.phases) {
      if (!ps.completed || ps.num_heavy == 0) continue;
      ++phases;
      duration += ps.end_step - ps.start_step;
      matched += ps.matched;
      unmatched += ps.unmatched;
      if (ps.forced) ++forced;
    }
  }
  [[nodiscard]] double mean_duration() const {
    return phases > 0
               ? static_cast<double>(duration) / static_cast<double>(phases)
               : 0.0;
  }
  [[nodiscard]] double match_pct() const {
    const double heavy = static_cast<double>(matched + unmatched);
    return heavy > 0 ? 100.0 * static_cast<double>(matched) / heavy : 100.0;
  }
};

/// The most steps run_spiked runs past the nominal end.
constexpr std::uint64_t kDrainSteps = 4096;

/// The latency grids' driver. Periodic load spikes guarantee heavy
/// processors, so every phase does real matching work — the same pattern
/// at every grid point. A phase may be mid-flight at the nominal end (task
/// payloads riding the fabric are neither queued nor consumed), so the run
/// steps on to the next phase boundary; the caller checks the fabric
/// drained.
void run_spiked(rt::Runtime& run, std::uint64_t steps, std::uint64_t seed) {
  const std::uint64_t n = run.n();
  std::uint64_t done = 0;
  for (std::uint64_t s = 0; s < steps; s += 37) {
    if (s > done) {
      run.run(s - done);
      done = s;
    }
    const auto proc = static_cast<std::uint32_t>((seed * 7 + s * 13) % n);
    for (std::uint32_t i = 0; i < 48; ++i) {
      run.deposit(proc, sim::Task{static_cast<std::uint32_t>(s), proc, 1});
    }
  }
  run.run(steps - done);
  for (std::uint64_t extra = 0;
       run.result().fabric_in_flight() != 0 && extra < kDrainSteps; ++extra) {
    run.run(1);
  }
}

using Value = std::function<double(const rt::Runtime&, const rt::RunResult&)>;

/// One output of a grid row: a table cell, a gauge, or both from one value.
struct Column {
  std::string header;  // table header; empty = gauge only
  std::string gauge;   // gauge suffix; empty = table only
  int precision;       // decimals of the cell; kInt = an integer cell
  Value value;
  /// The gauge is emitted only on points whose config satisfies this.
  bool (*only)(const rt::RtConfig&) = nullptr;
};
constexpr int kInt = -1;

/// Column value helpers: a RunResult counter, a ShardOutputs field.
Value counter(std::uint64_t (rt::RunResult::*f)() const) {
  return [f](const rt::Runtime&, const rt::RunResult& res) {
    return static_cast<double>((res.*f)());
  };
}
Value output(std::uint64_t rt::ShardOutputs::*f) {
  return [f](const rt::Runtime&, const rt::RunResult& res) {
    return static_cast<double>(res.out.*f);
  };
}
Value sojourn_us(double q) {
  return [q](const rt::Runtime&, const rt::RunResult& res) {
    return static_cast<double>(res.out.sojourn_us.quantile(q));
  };
}
Value phase_stat(double (PhaseStats::*f)() const) {
  return [f](const rt::Runtime&, const rt::RunResult& res) {
    return (PhaseStats(res).*f)();
  };
}
Value phase_count(std::uint64_t PhaseStats::*f) {
  return [f](const rt::Runtime&, const rt::RunResult& res) {
    return static_cast<double>(PhaseStats(res).*f);
  };
}

/// One grid point: the table's leading cells, the gauge group and the run.
struct Point {
  std::vector<std::string> keys;
  std::string group;  // gauges land under <prefix>.<group>.<gauge>
  rt::RtConfig cfg;   // seed, trace and telemetry are filled by the loop
  std::function<std::unique_ptr<sim::LoadModel>()> model;
};

/// An extra per-point invariant: "" or what it found violated.
using Post = std::function<std::string(const Point&, const rt::RunResult&)>;

/// The Grid::post of the grids that sweep worker counts. A run's outputs
/// do not depend on its worker count, so a point whose consumed, max load,
/// final load or protocol message count differs from the first point with
/// the same keys (column `workers_col` left out) has diverged.
Post same_at_every_worker_count(std::size_t workers_col) {
  auto sigs = std::make_shared<std::map<std::vector<std::string>,
                                        std::array<std::uint64_t, 4>>>();
  return [sigs, workers_col](const Point& p, const rt::RunResult& res) {
    std::vector<std::string> key = p.keys;
    key.erase(key.begin() + static_cast<std::ptrdiff_t>(workers_col));
    const std::array<std::uint64_t, 4> sig = {
        res.total_consumed(), res.out.running_max, res.total_load(),
        res.out.msg.protocol_total()};
    const bool same = sigs->try_emplace(key, sig).first->second == sig;
    return same ? std::string()
                : std::string("worker counts diverged (consumed, max load, "
                              "final load or protocol messages)");
  };
}

/// One experiment: named once, run by the one loop in main().
struct Grid {
  std::string name;    // --grids selector
  std::string prefix;  // gauge prefix
  std::string banner, note;
  std::vector<std::string> key_headers;
  std::vector<Point> points;
  std::uint64_t steps;
  /// The periodic-spike driver (and a drained-fabric check) rather than a
  /// plain run(steps).
  bool spiked;
  std::vector<Column> columns;
  Post post;
};

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("EXP-21: concurrent runtime scaling (threads + mailboxes)");
  const auto grids_csv = cli.flag_str(
      "grids", "exp21,exp22,exp24",
      "grids to run: exp21 (scaling), exp22 (latency), exp24 (link model), "
      "exp25 (workload zoo), exp27 (million-processor scale)");
  const auto n = cli.flag_u64("n", 1 << 12, "logical processors");
  const auto steps = cli.flag_u64("steps", 2000, "exp21 steps per run");
  const auto seed = cli.flag_u64("seed", 1, "seed");
  const auto spin = cli.flag_u64(
      "spin", 64, "spin-work iterations per consumed task (exp21)");
  const auto workers_csv = cli.flag_str(
      "workers", "", "exp21 worker counts (default: 1,2,4,..,hw)");
  const auto models_csv =
      cli.flag_str("models", "single,burst", "exp21 models: single,burst");
  const auto policies_csv = cli.flag_str(
      "policies", "threshold,none,all-in-air",
      "exp21 policies: threshold,none,all-in-air");
  const auto latencies_csv =
      cli.flag_str("latencies", "1,2,4,8", "exp22 message latencies");
  const auto lat_steps =
      cli.flag_u64("lat-steps", 512, "exp22/exp24 steps per run");
  const auto link_loss_csv = cli.flag_str(
      "link-loss-grid", "0,4096,16384", "exp24 loss grid, /65536 numerators");
  const auto zoo_steps =
      cli.flag_u64("zoo-steps", 384, "exp25 steps per run");
  const auto grid_n_csv = cli.flag_str(
      "grid-n", "65536,262144,1048576",
      "exp27 processor counts (default 2^16, 2^18, 2^20)");
  const auto grid_workers_csv =
      cli.flag_str("grid-workers", "1,2,4", "exp27 worker counts");
  const auto grid_steps =
      cli.flag_u64("grid-steps", 48, "exp27 steps per run");
  const auto telemetry = cli.flag_bool(
      "telemetry", false,
      "per-worker hot-path telemetry: utilization/stall/imbalance table, "
      "<run>.telemetry.* gauges, snapshot timeline (--telemetry-jsonl)");
  const auto telemetry_interval = cli.flag_u64(
      "telemetry-interval", 64, "steps between telemetry snapshots");
  const auto telemetry_jsonl = cli.flag_str(
      "telemetry-jsonl", "",
      "write the snapshot timeline here (tools/rt_report.py reads it)");
  bench::SmokeFlag smoke(cli);
  bench::ObsFlags obs_flags(cli);
  cli.parse(argc, argv);
  smoke.apply();
  if (smoke.on()) {
    cli.override_str("workers", "1,2");
    cli.override_str("models", "single");
    cli.override_str("latencies", "1,4");
    cli.override_u64("lat-steps", 192);
    cli.override_str("link-loss-grid", "0,16384");
    cli.override_u64("zoo-steps", 128);
    cli.override_str("grid-n", "16384");
    cli.override_str("grid-workers", "1,2");
    cli.override_u64("grid-steps", 32);
  }

  obs::Recorder rec(obs_flags.config("bench_rt", argc, argv));
  rec.manifest().set_seed(*seed);
  rec.manifest().set_param("n", *n);
  rec.manifest().set_param("steps", *steps);
  rec.manifest().set_param("spin", *spin);

  std::vector<unsigned> workers;
  if (workers_csv->empty()) {
    workers = auto_workers();
  } else {
    for (std::uint64_t w : util::Cli::parse_u64_list(*workers_csv)) {
      workers.push_back(static_cast<unsigned>(w));
    }
  }

  // ---- the grid table ----
  std::vector<Grid> grids;

  {
    Grid g{"exp21", "rt",
           "EXP-21  runtime scaling: threads, mailboxes, supersteps",
           "expect: tasks/sec grows with workers until the core count; "
           "threshold holds p99 sojourn near the unbalanced p50 at a few "
           "percent remote-message overhead",
           {"model", "policy", "workers"}, {}, *steps, false, {}, {}};
    for (const std::string m : {"single", "burst"}) {
      if (models_csv->find(m) == std::string::npos) continue;
      for (const std::string p : {"threshold", "none", "all-in-air"}) {
        if (policies_csv->find(p) == std::string::npos) continue;
        for (const unsigned w : workers) {
          rt::RtConfig cfg;
          cfg.n = *n;
          cfg.workers = w;
          cfg.policy = policy_of(p);
          if (cfg.policy == rt::RtPolicy::kThreshold) {
            cfg.params = core::PhaseParams::from_n(*n);
          }
          cfg.spin_work = static_cast<std::uint32_t>(*spin);
          cfg.time_sojourn = true;
          g.points.push_back({{m, p, std::to_string(w)},
                              m + "." + p + ".w" + std::to_string(w), cfg,
                              [m, nn = *n] { return make_model(m, nn); }});
        }
      }
    }
    // Speedup is relative to the first worker count of each (model,
    // policy) group; the points run in exactly that order.
    auto base_rate = std::make_shared<double>(0.0);
    const unsigned first_w = workers.front();
    const Value remote = [](const rt::Runtime& run, const rt::RunResult&) {
      const auto r = static_cast<double>(run.remote_pushes());
      const auto s = static_cast<double>(run.self_pushes());
      return r + s > 0 ? r / (r + s) : 0.0;
    };
    g.columns = {
        {"tasks/sec", "tasks_per_sec", 0, rate},
        {"speedup", "", 2,
         [base_rate, first_w](const rt::Runtime& run,
                              const rt::RunResult& res) {
           const double r = rate(run, res);
           if (run.config().workers == first_w) *base_rate = r;
           return *base_rate > 0 ? r / *base_rate : 1.0;
         }},
        {"", "wall_seconds", 0, wall_seconds},
        {"p50 us", "sojourn_p50_us", kInt, sojourn_us(0.50)},
        {"p95 us", "sojourn_p95_us", kInt, sojourn_us(0.95)},
        {"p99 us", "sojourn_p99_us", kInt, sojourn_us(0.99)},
        {"remote %", "", 2,
         [remote](const rt::Runtime& run, const rt::RunResult& res) {
           return 100.0 * remote(run, res);
         }},
        {"", "remote_push_fraction", 0, remote},
        {"msgs/task", "msgs_per_task", 4, msgs_per_task},
        {"", "consumed", 0, counter(&rt::RunResult::total_consumed)},
    };
    g.post = same_at_every_worker_count(2);
    grids.push_back(std::move(g));
  }

  // The latency and link grids share one threshold setup.
  core::Fractions lat_fr;
  lat_fr.t_min = 64;
  const core::PhaseParams lat_params = core::PhaseParams::from_n(*n, lat_fr);
  const auto latency_cfg = [&](std::uint32_t latency) {
    rt::RtConfig cfg;
    cfg.n = *n;
    cfg.workers = kGridWorkers;
    cfg.policy = rt::RtPolicy::kThreshold;
    cfg.params = lat_params;
    cfg.latency = latency;
    return cfg;
  };
  const auto single = [nn = *n] { return make_model("single", nn); };
  const std::vector<Column> phase_columns = {
      {"phases", "phases", kInt, phase_count(&PhaseStats::phases)},
      {"phase steps (mean)", "phase_duration_mean", 2,
       phase_stat(&PhaseStats::mean_duration)},
      {"match %", "match_pct", 2, phase_stat(&PhaseStats::match_pct)},
      {"forced", "forced", kInt, phase_count(&PhaseStats::forced)},
  };

  {
    Grid g{"exp22", "exp22",
           "EXP-22  latency fabric: phase duration on real threads",
           "expect: mean phase duration grows ~linearly with the message "
           "latency while the match rate holds; runs are deterministic and "
           "worker-count invariant (lockstep with dist/, see "
           "rt_latency_equivalence)",
           {"latency"}, {}, *lat_steps, true, phase_columns, {}};
    for (const std::uint64_t l : util::Cli::parse_u64_list(*latencies_csv)) {
      g.points.push_back({{std::to_string(l)}, "lat" + std::to_string(l),
                          latency_cfg(static_cast<std::uint32_t>(l)), single});
    }
    g.columns.push_back(
        {"max load", "", kInt, output(&rt::ShardOutputs::running_max)});
    grids.push_back(std::move(g));
  }

  {
    Grid g{"exp24", "exp24",
           "EXP-24  link model: loss/retransmit + bandwidth caps + jitter",
           "expect: phase duration stretches with the loss rate (retransmit "
           "RTOs) and with bandwidth caps (per-link FIFO queueing) while the "
           "match rate holds; lossless uncapped rows pay neither",
           {"loss/64k", "bw cap"}, {}, *lat_steps, true, phase_columns, {}};
    for (const std::uint64_t loss :
         util::Cli::parse_u64_list(*link_loss_csv)) {
      for (const std::uint32_t bw : kLinkBandwidths) {
        rt::RtConfig cfg = latency_cfg(kLinkLatency);
        cfg.link.jitter = kLinkJitter;
        cfg.link.bandwidth = bw;
        cfg.link.loss_per_64k = static_cast<std::uint32_t>(loss);
        g.points.push_back(
            {{std::to_string(loss), std::to_string(bw)},
             "loss" + std::to_string(loss) + ".bw" + std::to_string(bw), cfg,
             single});
      }
    }
    g.columns.push_back({"retrans", "retransmits", kInt,
                         output(&rt::ShardOutputs::retransmits)});
    g.columns.push_back({"dups supp", "dup_suppressed", kInt,
                         output(&rt::ShardOutputs::dup_suppressed)});
    g.columns.push_back({"queued delay", "queued_delay", kInt,
                         output(&rt::ShardOutputs::queued_delay)});
    grids.push_back(std::move(g));
  }

  {
    Grid g{"exp25", "exp25",
           "EXP-25  workload zoo: heavy tails, diurnal skew, crash/recovery",
           "expect: the load-oblivious threshold protocol holds max load "
           "within a small constant of the informed baselines on every model "
           "without load broadcasts; stale-SQ herds onto stale minima; "
           "crashes re-home every task (conservation is FATAL-checked)",
           {"model", "policy"}, {}, *zoo_steps, false, {}, {}};
    const auto zoo_point = [&](const std::string& model,
                               const std::string& policy,
                               std::vector<core::CrashEvent> crashes,
                               std::string group) {
      rt::RtConfig cfg;
      cfg.n = *n;
      cfg.workers = kGridWorkers;
      cfg.policy = zoo_policy_of(policy);
      if (cfg.policy == rt::RtPolicy::kThreshold) {
        cfg.params = core::PhaseParams::from_n(*n);
      }
      cfg.stale.staleness = kZooStaleness;
      cfg.crashes = std::move(crashes);
      g.points.push_back(
          {{model, policy}, std::move(group), cfg,
           [model, nn = *n] { return make_zoo_model(model, nn); }});
    };
    for (const std::string m :
         {"diurnal", "flash-crowd", "pareto", "zipf", "hetero"}) {
      for (const std::string p :
           {"none", "stale-sq", "local-search", "threshold"}) {
        zoo_point(m, p, {}, m + "." + p);
      }
    }
    // Crash/recovery pass: the diurnal model under the liveness-aware
    // policies (the threshold protocol predates liveness; see RtConfig),
    // two processors dying mid-run and recovering before the end.
    const std::uint64_t down = std::max<std::uint64_t>(*zoo_steps / 8, 1);
    const std::vector<core::CrashEvent> crashes = {
        {*zoo_steps / 3, static_cast<std::uint32_t>(*n / 3), down},
        {*zoo_steps / 2, static_cast<std::uint32_t>(2 * *n / 3), down}};
    for (const std::string p : {"none", "stale-sq", "local-search"}) {
      zoo_point("diurnal", p, crashes, "crash." + p);
    }
    const auto crashed = [](const rt::RtConfig& c) {
      return !c.crashes.empty();
    };
    g.columns = {
        {"max load", "max_load", kInt, output(&rt::ShardOutputs::running_max)},
        {"final mean", "final_mean_load", 2,
         [](const rt::Runtime& run, const rt::RunResult& res) {
           return static_cast<double>(res.total_load()) /
                  static_cast<double>(run.n());
         }},
        {"moved", "tasks_moved", kInt,
         [](const rt::Runtime&, const rt::RunResult& res) {
           return static_cast<double>(res.out.msg.tasks_moved);
         }},
        {"msgs/task", "msgs_per_task", 4, msgs_per_task},
        {"consumed", "consumed", kInt,
         counter(&rt::RunResult::total_consumed)},
        {"rehomed", "rehomed_tasks", kInt,
         output(&rt::ShardOutputs::rehomed_tasks), crashed},
        {"", "rehomed_events", 0, output(&rt::ShardOutputs::rehomed_events),
         crashed},
    };
    grids.push_back(std::move(g));
  }

  {
    // Spin work is off so the queue data path dominates.
    Grid g{"exp27", "exp27",
           "EXP-27  million-processor scale: arena queues, batched drains, "
           "stealing",
           "expect: identical consumed/max-load counters across the worker "
           "counts of each row (deterministic); the steal rows drain dry "
           "shards from the canonically-ordered hottest victims",
           {"n", "workers", "layout"}, {}, *grid_steps, false, {}, {}};
    for (const std::uint64_t gn : util::Cli::parse_u64_list(*grid_n_csv)) {
      for (const std::uint64_t gw :
           util::Cli::parse_u64_list(*grid_workers_csv)) {
        for (const bool steal : {false, true}) {
          const std::string layout = steal ? "arena_steal" : "arena";
          rt::RtConfig cfg;
          cfg.n = gn;
          cfg.workers = static_cast<unsigned>(gw);
          cfg.policy = rt::RtPolicy::kNone;
          cfg.spin_work = 0;
          cfg.steal.enabled = steal;
          g.points.push_back(
              {{std::to_string(gn), std::to_string(gw), layout},
               "n" + std::to_string(gn) + ".w" + std::to_string(gw) + "." +
                   layout,
               cfg, [gn] { return make_model("burst", gn); }});
        }
      }
    }
    const auto stealing = [](const rt::RtConfig& c) {
      return c.steal.enabled;
    };
    const Value arena_bytes = [](const rt::Runtime& run,
                                 const rt::RunResult&) {
      return static_cast<double>(run.arena_bytes_used());
    };
    g.columns = {
        {"tasks/sec", "tasks_per_sec", 0, rate},
        {"", "wall_seconds", 0, wall_seconds},
        {"consumed", "consumed", kInt,
         counter(&rt::RunResult::total_consumed)},
        {"max load", "max_load", kInt, output(&rt::ShardOutputs::running_max)},
        {"steals", "steal_events", kInt,
         output(&rt::ShardOutputs::steal_events), stealing},
        {"", "stolen_tasks", 0, output(&rt::ShardOutputs::stolen_tasks),
         stealing},
        {"arena MB", "", 1,
         [arena_bytes](const rt::Runtime& run, const rt::RunResult& res) {
           return arena_bytes(run, res) / (1024.0 * 1024.0);
         }},
        {"", "arena_bytes", 0, arena_bytes},
    };
    g.post = same_at_every_worker_count(1);
    grids.push_back(std::move(g));
  }

  std::vector<std::string> selected;
  std::istringstream grids_in(*grids_csv);
  for (std::string s; std::getline(grids_in, s, ',');) {
    if (std::none_of(grids.begin(), grids.end(),
                     [&](const Grid& g) { return g.name == s; })) {
      std::fprintf(stderr, "bench_rt: unknown grid '%s' in --grids\n",
                   s.c_str());
      return 2;
    }
    selected.push_back(s);
  }

  util::Table ttable({"model", "policy", "workers", "util mean", "stall %",
                      "imbalance", "drain mean", "barrier p99 us"});
  std::string telemetry_timeline;

  // Runs share one trace timeline; each gets its own step window so the
  // JSONL steps stay globally non-decreasing (same idiom as the sim benches).
  // A spiked run's window also covers its bounded drain overrun.
  std::uint64_t trace_window = 0;

  for (std::size_t gi = 0; gi < grids.size(); ++gi) {
    Grid& g = grids[gi];
    if (std::find(selected.begin(), selected.end(), g.name) ==
        selected.end()) {
      continue;
    }
    util::print_banner(g.banner);
    util::print_note(g.note);
    std::vector<std::string> headers = g.key_headers;
    for (const Column& c : g.columns) {
      if (!c.header.empty()) headers.push_back(c.header);
    }
    util::Table table(headers);
    for (Point& p : g.points) {
      const std::string gp = g.prefix + "." + p.group;
      rt::RtConfig& cfg = p.cfg;
      cfg.seed = *seed;
      cfg.telemetry = *telemetry;
      cfg.telemetry_interval = *telemetry ? *telemetry_interval : 0;
      cfg.telemetry_tag = gp;
      cfg.trace = rec.trace();
      rec.trace()->set_time_base(trace_window);
      trace_window += g.steps + (g.spiked ? kDrainSteps + 64 : 16);
      const auto model = p.model();
      rt::Runtime run(cfg, model.get());
      if (g.spiked) {
        run_spiked(run, g.steps, *seed);
      } else {
        run.run(g.steps);
      }
      const rt::RunResult& res = run.result();

      table.row();
      for (const std::string& k : p.keys) table.cell(k);
      for (const Column& c : g.columns) {
        const double v = c.value(run, res);
        if (!c.header.empty()) {
          if (c.precision == kInt) {
            table.cell(static_cast<std::uint64_t>(v));
          } else {
            table.cell(v, c.precision);
          }
        }
        if (!c.gauge.empty() && (c.only == nullptr || c.only(cfg))) {
          rec.metrics().gauge(gp + "." + c.gauge) = v;
        }
      }

      if (run.telemetry_enabled()) {
        const std::string tp = gp + ".telemetry.";
        run.export_telemetry(rec.metrics(), tp);
        telemetry_timeline += run.telemetry_jsonl();
        if (g.name == "exp21") {  // the table's keys are exp21's
          auto& m = rec.metrics();
          ttable.row();
          for (const std::string& k : p.keys) ttable.cell(k);
          ttable.cell(m.gauge(tp + "utilization_mean"), 3)
              .cell(100.0 * m.gauge(tp + "barrier_stall_fraction"), 2)
              .cell(m.gauge(tp + "queue_imbalance"), 2)
              .cell(m.gauge(tp + "drain_batch_mean"), 2)
              .cell(m.gauge(tp + "barrier_wait_p99_ns") / 1000.0, 1);
        }
      }

      std::string broken;
      if (!res.conservation_holds()) {
        broken = "conservation violated";
      } else if (g.spiked && res.fabric_in_flight() != 0) {
        broken = "fabric not drained";
      } else if (g.post) {
        broken = g.post(p, res);
      }
      if (!broken.empty()) {
        std::fprintf(stderr, "FATAL: %s: %s (%s)\n", g.name.c_str(),
                     broken.c_str(), gp.c_str());
        return 1;
      }
    }
    clb::bench::emit(table, "rt_" + std::to_string(gi + 1));
  }

  if (*telemetry) {
    util::print_banner("telemetry  per-worker utilization / stall / imbalance");
    clb::bench::emit(ttable, "rt_telemetry");
    if (!telemetry_jsonl->empty()) {
      if (!obs::write_text_file(*telemetry_jsonl, telemetry_timeline)) {
        std::fprintf(stderr, "FATAL: cannot write %s\n",
                     telemetry_jsonl->c_str());
        return 1;
      }
      rec.manifest().add_output("rt_telemetry_snapshots", *telemetry_jsonl);
      util::print_note("snapshot timeline: " + *telemetry_jsonl +
                       " (feed to tools/rt_report.py --snapshots)");
    }
  }
  rec.metrics().gauge("rt.hardware_concurrency") =
      static_cast<double>(std::thread::hardware_concurrency());
  util::print_note("speedup is relative to the first worker count of the "
                   "same (model, policy) row group; on an oversubscribed "
                   "host expect flat or sub-linear curves.");
  rec.finish();
  return 0;
}
