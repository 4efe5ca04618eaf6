// The repository benchmark program: runs one named workload through the
// public APIs of rt::Runtime, transport::ProcessRuntime, sim::Engine and
// models::BurstModel, measures it from outside those calls, checks every run
// against a reference, and prints every metric by name with its unit. The
// last stdout line is one JSON object (correct, attempted, failed, metrics).
//
//   clb_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--smoke] [--workers <k>] [--corrupt-reference]
//             [--spans-out <path>] [--source <id>]
//
// A run is a sequence of episodes. Each episode constructs a fresh runtime
// for the seed (timed: setup_s), runs a fixed number of steps (timed: the
// wall inside run()) and is then checked outside the timed window. Episodes
// repeat until --seconds have passed, so the step-counted metrics of every
// episode are identical and the wall-clock ones are medians over episodes.
// See README.md in this directory for the workloads and metrics.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/params.hpp"
#include "core/threshold_balancer.hpp"
#include "dist/dist_balancer.hpp"
#include "models/burst.hpp"
#include "obs/metrics.hpp"
#include "rt/runtime.hpp"
#include "sim/engine.hpp"
#include "support.hpp"
#include "testing/oracle.hpp"
#include "transport/process_runtime.hpp"
#include "transport/shadow.hpp"

namespace clb::bench {
namespace {

struct Workload {
  std::string name;
  rt::Transport transport = rt::Transport::kInProc;
  std::uint64_t n = 0;
  unsigned workers = 4;
  /// Worker count of an in-proc twin episode in the traced run, which gives
  /// the rt.* rows that need several shards (0: no twin).
  unsigned twin_workers = 0;
  std::uint64_t steps = 0;  ///< steps per episode
  rt::RtPolicy policy = rt::RtPolicy::kThreshold;
  bool steal = false;
  std::uint32_t latency = 0;
  net::NetConfig link{};
};

/// The one load shape every workload shares: a 0.2/0.5 trickle everywhere,
/// and a rotating hot 5% that adds 8 tasks per step for 16 of every 64 steps.
models::BurstConfig burst_config() {
  models::BurstConfig bc;
  bc.p_base = 0.2;
  bc.p_consume = 0.5;
  bc.period = 64;
  bc.burst_len = 16;
  bc.hot_fraction = 0.05;
  bc.burst_rate = 8;
  bc.rotate_hotspot = true;
  return bc;
}

std::optional<Workload> find_workload(const std::string& name, bool smoke) {
  Workload w;
  w.name = name;
  if (name == "threshold-burst") {
    // Timed on one worker: with four, every superstep's barrier waits on
    // the slowest vCPU's wake-up, and on a shared host the wall time then
    // follows the hypervisor's scheduling (README.md). The traced run's
    // 4-worker twin reports the barrier layer.
    w.n = 1u << 16;
    w.workers = 1;
    w.twin_workers = 4;
    w.steps = 64;
  } else if (name == "steal-scale") {
    w.n = 1u << 20;
    w.workers = 1;  // as threshold-burst
    w.twin_workers = 4;
    w.steps = 32;
    w.policy = rt::RtPolicy::kNone;
    w.steal = true;
  } else if (name == "uds-burst") {
    w.transport = rt::Transport::kUds;
    w.n = 1u << 14;
    w.workers = 3;
    w.twin_workers = 3;
    w.steps = 128;
  } else if (name == "latency-lossy") {
    w.n = 1u << 14;
    w.steps = 1024;
    w.latency = 2;
    w.link.jitter = 1;
    w.link.loss_per_64k = 4096;
  } else {
    return std::nullopt;
  }
  if (smoke) {
    w.n = 1u << 10;
    w.steps = 80;
  }
  return w;
}

rt::RtConfig rt_config(const Workload& w, std::uint64_t seed) {
  rt::RtConfig c;
  c.n = w.n;
  c.seed = seed;
  c.workers = w.workers;
  c.deterministic = true;
  c.policy = w.policy;
  if (w.policy == rt::RtPolicy::kThreshold) {
    c.params = core::PhaseParams::from_n(w.n);
  }
  c.track_sojourn = true;
  // Shard processes stamp wall-clock sojourn against their own start times,
  // so a task that moves to a later-started shard and is consumed quickly
  // reads as negative, wraps to ~2^32 us, and the histogram then tries to
  // allocate 34 GB for it. The socket transport runs without it (README.md).
  c.time_sojourn = w.transport == rt::Transport::kInProc;
  c.latency = w.latency;
  c.link = w.link;
  c.steal.enabled = w.steal;
  c.transport = w.transport;
  return c;
}

/// Per-layer observations of one traced episode.
struct Traced {
  std::vector<double> step_us;  ///< wall of each run(1)
  std::map<std::string, double> telemetry;
  std::uint64_t remote_pushes = 0;
  std::uint64_t self_pushes = 0;
  std::uint64_t steal_events = 0;
  std::uint64_t stolen_tasks = 0;
  std::uint64_t model_calls = 0;
  std::uint64_t model_ns = 0;
  std::uint64_t fabric_sent = 0;
  std::uint64_t fabric_retransmits = 0;
  std::uint64_t fabric_queued_delay = 0;
  std::vector<rt::RtPhaseSummary> phases;
  obs::WireStats wire;
  unsigned shards = 0;  ///< shard processes behind `wire`
};

struct Episode {
  double setup_s = 0;
  double run_s = 0;  ///< wall inside run() over the timed steps
  // State at the end of the timed steps.
  double sojourn_p50_us = 0;
  double sojourn_p999_us = 0;
  std::uint64_t sojourn_samples = 0;
  std::uint64_t sojourn_p99_steps = 0;
  Fingerprint at_steps;
  // Latency fabric: steps run after the timed ones until nothing was in
  // flight, and the fingerprint there.
  std::uint64_t drain_steps = 0;
  Fingerprint drained;
  std::string failure;  ///< first failed check, "" when all passed
};

template <typename Run>
Fingerprint fingerprint_of(Run& r) {
  Fingerprint f;
  f.generated = r.total_generated();
  f.consumed = r.total_consumed();
  f.total_load = r.total_load();
  f.max_load = r.running_max_load();
  f.msg = r.messages();
  f.clamped = r.clamped_transfers();
  const std::vector<rt::LedgerEntry> ledger = r.ledger();
  f.ledger_entries = ledger.size();
  f.ledger_digest = ledger_digest(ledger);
  f.sojourn_digest = histogram_digest(r.sojourn_steps());
  return f;
}

template <typename Run>
void snapshot(Run& r, Episode& ep) {
  ep.run_s = r.wall_seconds();
  const stats::IntHistogram us = r.sojourn_us();
  ep.sojourn_p50_us = static_cast<double>(us.quantile(0.5));
  ep.sojourn_p999_us = static_cast<double>(us.quantile(0.999));
  ep.sojourn_samples = us.total();
  ep.sojourn_p99_steps = r.sojourn_steps().quantile(0.99);
  ep.at_steps = fingerprint_of(r);
}

/// Runs the timed steps: one run(steps) call, or with tracing one timed
/// run(1) per step, each under its own span.
template <typename Run>
void run_steps(Run& r, std::uint64_t steps, Spans* spans, int parent,
               Traced* traced, const char* span_name) {
  if (traced == nullptr) {
    Scope s(spans, span_name, parent);
    r.run(steps);
    return;
  }
  for (std::uint64_t i = 0; i < steps; ++i) {
    Scope s(spans, span_name, parent);
    const auto t0 = Clock::now();
    r.run(1);
    traced->step_us.push_back(seconds_since(t0) * 1e6);
  }
}

Episode run_threads_episode(const Workload& w, rt::RtConfig cfg,
                            Spans* spans, int parent, Traced* traced) {
  models::BurstModel burst(burst_config(), w.n);
  std::optional<TimedModel> timed;
  sim::LoadModel* model = &burst;
  if (traced != nullptr) {
    timed.emplace(&burst);
    model = &*timed;
    cfg.telemetry = true;
  }
  Episode ep;
  std::unique_ptr<rt::Runtime> r;
  const auto t0 = Clock::now();
  {
    Scope s(spans, "rt.setup", parent);
    r = std::make_unique<rt::Runtime>(cfg, model);
  }
  ep.setup_s = seconds_since(t0);
  run_steps(*r, w.steps, spans, parent, traced, "rt.run");
  Scope check(spans, "rt.check", parent);
  snapshot(*r, ep);
  if (traced != nullptr) {
    obs::MetricsRegistry m;
    r->export_telemetry(m, "rt.");
    for (const char* g : {"utilization_mean", "barrier_stall_fraction",
                          "queue_imbalance", "barrier_wait_p99_ns",
                          "drain_batch_mean"}) {
      traced->telemetry[g] = m.gauge_value(std::string("rt.") + g);
    }
    traced->remote_pushes = r->remote_pushes();
    traced->self_pushes = r->self_pushes();
    traced->steal_events = r->steal_events();
    traced->stolen_tasks = r->stolen_tasks();
    traced->model_calls = timed->calls();
    traced->model_ns = timed->ns();
    traced->fabric_sent = r->fabric_sent();
    traced->fabric_retransmits = r->fabric_retransmits();
    traced->fabric_queued_delay = r->fabric_queued_delay();
    traced->phases = r->phases();
  }
  if (cfg.latency > 0) {
    Scope s(spans, "rt.drain", check.id());
    constexpr std::uint64_t kMaxDrainSteps = 4096;
    while (r->fabric_in_flight() != 0 && ep.drain_steps < kMaxDrainSteps) {
      r->run(1);
      ++ep.drain_steps;
    }
    if (r->fabric_in_flight() != 0) {
      ep.failure = "fabric still holds messages after the drain";
    }
  }
  ep.drained = ep.drain_steps == 0 ? ep.at_steps : fingerprint_of(*r);
  if (!r->conservation_holds() && ep.failure.empty()) {
    ep.failure = "conservation_holds() is false";
  }
  return ep;
}

Episode run_uds_episode(const Workload& w, const rt::RtConfig& cfg,
                        Spans* spans, int parent, Traced* traced) {
  Episode ep;
  std::unique_ptr<transport::ProcessRuntime> pr;
  const auto t0 = Clock::now();
  {
    Scope s(spans, "transport.setup", parent);
    pr = std::make_unique<transport::ProcessRuntime>(
        cfg, transport::ModelSpec::bursty(burst_config()));
  }
  ep.setup_s = seconds_since(t0);
  run_steps(*pr, w.steps, spans, parent, traced, "transport.run");
  {
    Scope s(spans, "transport.collect", parent);
    pr->collect();
  }
  Scope check(spans, "transport.check", parent);
  snapshot(*pr, ep);
  ep.drained = ep.at_steps;
  if (traced != nullptr) {
    traced->wire = pr->wire_stats();
    traced->shards = cfg.workers;
    traced->phases = pr->phases();
  }
  if (!pr->conservation_holds()) ep.failure = "conservation_holds() is false";
  {
    Scope s(spans, "transport.shadow_check", check.id());
    const transport::ShadowReport rep = transport::shadow_check(*pr);
    if (!rep.ok && ep.failure.empty()) {
      ep.failure = "shadow_check: " + rep.divergence;
    }
  }
  return ep;
}

Episode run_episode(const Workload& w, const rt::RtConfig& cfg, Spans* spans,
                    int parent, Traced* traced) {
  Scope s(spans, "episode", parent);
  return cfg.transport == rt::Transport::kInProc
             ? run_threads_episode(w, cfg, spans, s.id(), traced)
             : run_uds_episode(w, cfg, spans, s.id(), traced);
}

struct ReferenceRun {
  Fingerprint at_steps;
  Fingerprint drained;
  double engine_s = 0;  ///< serial engine wall over the timed steps
  std::string failure;  ///< the reference's own conservation check
};

/// The serial specification on the same seed: sim::Engine with
/// core::ThresholdBalancer, EngineConfig::steal or
/// dist::DistThresholdBalancer.
ReferenceRun run_reference(const Workload& w, std::uint64_t seed,
                           std::uint64_t drain_steps) {
  models::BurstModel model(burst_config(), w.n);
  sim::EngineConfig ec;
  ec.n = w.n;
  ec.seed = seed;
  ec.track_sojourn = true;
  ec.steal.enabled = w.steal;
  const core::PhaseParams params = core::PhaseParams::from_n(w.n);
  std::unique_ptr<sim::Balancer> inner;
  if (w.policy == rt::RtPolicy::kThreshold && w.latency > 0) {
    dist::DistConfig dc;
    dc.params = params;
    dc.latency = w.latency;
    dc.link = w.link;
    inner = std::make_unique<dist::DistThresholdBalancer>(dc);
  } else if (w.policy == rt::RtPolicy::kThreshold) {
    inner = std::make_unique<core::ThresholdBalancer>(
        core::ThresholdBalancerConfig{.params = params});
  }
  std::optional<testing::CaptureBalancer> cap;
  if (inner) cap.emplace(inner.get());
  sim::Engine eng(ec, &model, cap ? &*cap : nullptr);

  std::vector<rt::LedgerEntry> ledger;
  if (cap) {
    cap->set_post_capture_hook([&](sim::Engine& e) {
      // After on_step, before the engine applies the transfers: clamp the
      // scheduled counts exactly as Engine::apply_transfers will.
      for (const sim::Transfer& t : cap->captured()) {
        const std::uint64_t cnt =
            std::min<std::uint64_t>(t.count, e.load(t.from));
        ledger.push_back(
            {e.step(), t.from, t.to, static_cast<std::uint32_t>(cnt)});
      }
    });
  }
  const auto fingerprint = [&] {
    std::vector<rt::LedgerEntry> all = ledger;
    for (const sim::StealRecord& s : eng.steal_log()) {
      all.push_back({s.step, s.from, s.to, s.count});
    }
    Fingerprint f;
    f.generated = eng.total_generated();
    f.consumed = eng.total_consumed();
    f.total_load = eng.total_load();
    f.max_load = eng.running_max_load();
    f.msg = eng.messages();
    f.clamped = eng.clamped_transfers();
    f.ledger_entries = all.size();
    f.ledger_digest = ledger_digest(std::move(all));
    f.sojourn_digest = histogram_digest(eng.sojourn_histogram());
    return f;
  };

  ReferenceRun ref;
  const auto t0 = Clock::now();
  eng.run(w.steps);
  ref.engine_s = seconds_since(t0);
  ref.at_steps = fingerprint();
  if (drain_steps > 0) {
    eng.run(drain_steps);
    ref.drained = fingerprint();
  } else {
    ref.drained = ref.at_steps;
  }
  if (!eng.conservation_holds()) {
    ref.failure = "reference conservation_holds() is false";
  }
  return ref;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[static_cast<std::size_t>(q * static_cast<double>(v.size() - 1))];
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double msgs_per_task(const sim::MessageCounters& m, std::uint64_t generated) {
  return ratio(static_cast<double>(m.protocol_total() + m.transfers),
               static_cast<double>(generated));
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;
};

class Report {
 public:
  void add(std::string name, double value, std::string unit,
           std::string note = "") {
    metrics_.push_back({std::move(name), value, std::move(unit),
                        std::move(note)});
  }
  void print_table(const char* title) const {
    std::printf("# %s\n", title);
    for (const Metric& m : metrics_) {
      std::printf("  %-34s %16.6g %-9s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.note.c_str());
    }
  }
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", metrics_[i].value);
      out += (i == 0 ? "\"" : ", \"") + metrics_[i].name +
             "\": {\"value\": " + buf + ", \"unit\": \"" + metrics_[i].unit +
             "\"}";
    }
    return out + "}";
  }

 private:
  std::vector<Metric> metrics_;
};

std::uint64_t llc_bytes() {
  long v = ::sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (v > 0) return static_cast<std::uint64_t>(v);
  std::ifstream f("/sys/devices/system/cpu/cpu0/cache/index3/size");
  std::string s;
  if (f >> s && !s.empty()) {
    std::uint64_t mult = 1;
    if (s.back() == 'K') mult = 1024;
    if (s.back() == 'M') mult = 1024 * 1024;
    return std::strtoull(s.c_str(), nullptr, 10) * mult;
  }
  return 0;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  unsigned workers = 0;  ///< 0 = the workload's own count
  bool corrupt_reference = false;
  std::string spans_out;
  std::string source = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "clb_bench: %s\nusage: clb_bench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--smoke] [--workers <k>] "
               "[--corrupt-reference] [--spans-out <path>] [--source <id>]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = value();
    } else if (k == "--seed") {
      a.seed = std::stoull(value());
    } else if (k == "--seconds") {
      a.seconds = std::stod(value());
    } else if (k == "--trace") {
      a.trace = value() != "0";
    } else if (k == "--smoke") {
      a.smoke = true;
    } else if (k == "--workers") {
      a.workers = static_cast<unsigned>(std::stoul(value()));
    } else if (k == "--corrupt-reference") {
      a.corrupt_reference = true;
    } else if (k == "--spans-out") {
      a.spans_out = value();
    } else if (k == "--source") {
      a.source = value();
    } else {
      usage("unknown argument " + k);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

std::string check_episode(const Episode& ep, const ReferenceRun& ref,
                          std::uint64_t drain_steps) {
  if (!ep.failure.empty()) return ep.failure;
  if (!ref.failure.empty()) return ref.failure;
  if (ep.drain_steps != drain_steps) {
    return "drain length differs across episodes";
  }
  std::string d = ep.at_steps.first_difference(ref.at_steps);
  if (d.empty()) d = ep.drained.first_difference(ref.drained);
  return d.empty() ? "" : "reference mismatch: " + d;
}

int run(const Args& args) {
  std::optional<Workload> found = find_workload(args.workload, args.smoke);
  if (!found) usage("unknown workload " + args.workload);
  Workload w = *found;
  if (args.workers != 0) w.workers = args.workers;
  const rt::RtConfig cfg = rt_config(w, args.seed);

  const std::uint64_t llc = llc_bytes();
  std::printf(
      "# host {\"nproc\": %u, \"llc_bytes\": %llu, \"build_type\": \"%s\", "
      "\"source\": \"%s\"}\n",
      std::thread::hardware_concurrency(),
      static_cast<unsigned long long>(llc), CLB_BENCH_BUILD_TYPE,
      args.source.c_str());
  std::printf(
      "# input {\"workload\": \"%s\", \"seed\": %llu, \"n\": %llu, "
      "\"workers\": %u, \"transport\": \"%s\", \"policy\": \"%s\", "
      "\"steal\": %d, \"latency\": %u, \"steps_per_episode\": %llu, "
      "\"trace\": %d}\n",
      w.name.c_str(), static_cast<unsigned long long>(args.seed),
      static_cast<unsigned long long>(w.n), w.workers,
      rt::transport_name(w.transport), rt::policy_name(w.policy),
      w.steal ? 1 : 0, w.latency, static_cast<unsigned long long>(w.steps),
      args.trace ? 1 : 0);
  std::fflush(stdout);

  std::optional<Spans> spans_store;
  if (args.trace) spans_store.emplace();
  Spans* spans = spans_store ? &*spans_store : nullptr;

  // ---- warm-up, then timed episodes (tracing off) ----
  // Warm-up episodes are checked like the others but not timed: the first
  // second or two of barrier traffic on an idle host runs measurably slower.
  // They also leave out the wall-clock sojourn histogram, whose dense
  // per-microsecond buckets grow with how slow the host happens to be, and
  // the peak RSS is read right after them.
  const double warmup_s = args.smoke ? 0.0 : 2.0;
  const std::size_t min_episodes = args.smoke ? 2 : 3;
  rt::RtConfig warm_cfg = cfg;
  warm_cfg.time_sojourn = false;
  std::vector<Episode> warmup, eps;
  auto start = Clock::now();
  while (warmup.empty() || seconds_since(start) < warmup_s) {
    warmup.push_back(run_episode(w, warm_cfg, nullptr, -1, nullptr));
  }
  const double rss_self = peak_rss_mib(RUSAGE_SELF);
  const double rss_child = peak_rss_mib(RUSAGE_CHILDREN);
  const double peak_rss = std::max(rss_self, rss_child);
  start = Clock::now();
  while (eps.size() < min_episodes || seconds_since(start) < args.seconds) {
    eps.push_back(run_episode(w, cfg, nullptr, -1, nullptr));
  }

  // ---- traced episode and the comparison runs the per-layer table needs ----
  std::optional<Traced> traced;        // the workload's own substrate
  std::optional<Traced> traced_rt;     // in-proc twin (Workload::twin_workers)
  std::optional<Traced> traced_net, traced_wire;  // ungated, see below
  std::optional<Episode> traced_ep, twin_ep;
  std::uint64_t net_steps = w.steps;
  std::uint64_t wire_steps = w.steps;
  std::optional<double> none_wall, steal_off_wall;
  if (args.trace) {
    traced.emplace();
    traced_ep = run_episode(w, cfg, spans, -1, &*traced);
    if (w.twin_workers != 0) {
      rt::RtConfig twin = cfg;
      twin.transport = rt::Transport::kInProc;
      twin.workers = w.twin_workers;
      traced_rt.emplace();
      twin_ep = run_episode(w, twin, spans, -1, &*traced_rt);
    }
    if (w.policy == rt::RtPolicy::kThreshold && w.latency == 0 &&
        w.transport == rt::Transport::kInProc) {
      // BENCHMARK.json does not gate latency-lossy or uds-burst (README.md),
      // so the instant-fabric threshold run also traces one episode of each:
      // the delay fabric's and the socket transport's layers stay measured
      // on a gated workload.
      const auto side = [&](const char* name, std::optional<Traced>& out,
                            std::uint64_t& steps) {
        Workload o = *find_workload(name, args.smoke);
        if (args.workers != 0) o.workers = args.workers;
        steps = o.steps;
        out.emplace();
        Scope s(spans, std::string("compare.") + name);
        const Episode e =
            run_episode(o, rt_config(o, args.seed), spans, s.id(), &*out);
        if (!e.failure.empty()) {
          traced_ep->failure = std::string(name) + " run: " + e.failure;
        }
      };
      side("latency-lossy", traced_net, net_steps);
      side("uds-burst", traced_wire, wire_steps);
    }
    if (w.policy == rt::RtPolicy::kThreshold) {
      rt::RtConfig none = cfg;
      none.policy = rt::RtPolicy::kNone;
      none.latency = 0;
      none.link = {};
      Scope s(spans, "compare.policy_none");
      const Episode e = run_episode(w, none, spans, s.id(), nullptr);
      none_wall = e.run_s;
      if (!e.failure.empty()) traced_ep->failure = "kNone run: " + e.failure;
    }
    if (w.steal) {
      rt::RtConfig off = cfg;
      off.steal.enabled = false;
      Scope s(spans, "compare.steal_off");
      const Episode e = run_episode(w, off, spans, s.id(), nullptr);
      steal_off_wall = e.run_s;
      if (!e.failure.empty()) {
        traced_ep->failure = "steal-off run: " + e.failure;
      }
    }
  }

  // ---- the reference and the checks (outside every timed window) ----
  const std::uint64_t drain = eps.front().drain_steps;
  ReferenceRun ref;
  {
    Scope s(spans, "sim.reference");
    ref = run_reference(w, args.seed, drain);
  }
  if (args.corrupt_reference) ref.at_steps.ledger_digest ^= 1;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const auto judge = [&](const Episode& ep, const char* label) {
    attempted += ep.at_steps.generated;
    const std::string why = check_episode(ep, ref, drain);
    if (!why.empty()) {
      failed += ep.at_steps.generated;
      std::printf("# FAILED %s: %s\n", label, why.c_str());
    }
  };
  for (const Episode& ep : warmup) judge(ep, "warm-up episode");
  for (const Episode& ep : eps) judge(ep, "episode");
  if (traced_ep) judge(*traced_ep, "traced episode");
  if (twin_ep) judge(*twin_ep, "in-proc twin episode");

  // ---- end-to-end metrics ----
  std::vector<double> tps, p50, p999, setup;
  std::uint64_t sojourn_samples = 0;
  for (const Episode& ep : eps) {
    tps.push_back(ratio(static_cast<double>(ep.at_steps.consumed), ep.run_s));
    p50.push_back(ep.sojourn_p50_us);
    p999.push_back(ep.sojourn_p999_us);
    setup.push_back(ep.setup_s);
    sojourn_samples += ep.sojourn_samples;
  }
  const Episode& first = eps.front();
  Report e2e;
  e2e.add("tasks_per_s", median(tps), "tasks/s");
  const std::string wall_sojourn =
      cfg.time_sojourn ? "" : "not recorded on the socket transport";
  e2e.add("sojourn_p50_us", median(p50), "us", wall_sojourn);
  e2e.add("sojourn_p999_us", median(p999), "us", wall_sojourn);
  e2e.add("sojourn_p99_steps",
          static_cast<double>(first.sojourn_p99_steps), "steps");
  e2e.add("max_load", static_cast<double>(first.at_steps.max_load), "tasks");
  e2e.add("msgs_per_task",
          msgs_per_task(first.at_steps.msg, first.at_steps.generated),
          "msgs/task");
  e2e.add("setup_s", median(setup), "s");
  e2e.add("peak_rss_mb", peak_rss, "MiB");

  std::printf(
      "# shape {\"warmup_episodes\": %zu, \"episodes\": %zu, "
      "\"steps_per_episode\": %llu, "
      "\"drain_steps\": %llu, \"sojourn_samples_per_episode\": %llu, "
      "\"sojourn_samples_total\": %llu, \"peak_rss_mib\": %.1f, "
      "\"peak_rss_child_mib\": %.1f, \"llc_mib\": %.1f, "
      "\"failed_fraction\": %.6g}\n",
      warmup.size(), eps.size(), static_cast<unsigned long long>(w.steps),
      static_cast<unsigned long long>(drain),
      static_cast<unsigned long long>(first.sojourn_samples),
      static_cast<unsigned long long>(sojourn_samples), rss_self, rss_child,
      static_cast<double>(llc) / (1024.0 * 1024.0),
      ratio(static_cast<double>(failed), static_cast<double>(attempted)));
  std::printf("# episode tasks_per_s:");
  for (double v : tps) std::printf(" %.0f", v);
  std::printf("\n# episode setup_s:");
  for (double v : setup) std::printf(" %.6f", v);
  std::printf("\n");
  e2e.print_table("end-to-end (tracing off; medians over episodes)");

  Report layers;
  if (args.trace) {
    const Traced& t = *traced;
    const bool uds = w.transport == rt::Transport::kUds;
    // Step timing and the model: the workload's own episode, except on the
    // socket transport, where the model runs inside the shard processes.
    // Barrier, queue and push rows: the twin whenever there is one, since
    // the one-worker timed config has a single shard.
    const Traced& rtl = uds ? *traced_rt : t;
    const Traced& shards = traced_rt ? *traced_rt : t;
    const Episode& te = *traced_ep;
    const auto steps = static_cast<double>(w.steps);
    const double run_wall = median([&] {
      std::vector<double> v;
      for (const Episode& ep : eps) v.push_back(ep.run_s);
      return v;
    }());
    const std::string twin_note =
        traced_rt ? "in-proc twin, " + std::to_string(w.twin_workers) +
                        " workers"
                  : "";
    const std::string rtl_note = uds ? twin_note : "";
    const std::string na = "layer idle on this workload";

    layers.add("rt.step_us.p50", quantile(rtl.step_us, 0.5), "us", rtl_note);
    layers.add("rt.step_us.p90", quantile(rtl.step_us, 0.9), "us", rtl_note);
    layers.add("rt.protocol_share",
               none_wall ? 1.0 - ratio(*none_wall, run_wall) : 0.0, "ratio",
               none_wall ? "" : na);
    layers.add("rt.steal_share",
               steal_off_wall ? 1.0 - ratio(*steal_off_wall, run_wall) : 0.0,
               "ratio", steal_off_wall ? "" : na);
    layers.add("rt.speedup_vs_engine", ratio(ref.engine_s, run_wall), "ratio");
    for (const char* g : {"barrier_stall_fraction", "utilization_mean"}) {
      layers.add(std::string("rt.") + g, shards.telemetry.at(g), "ratio",
                 twin_note);
    }
    layers.add("rt.barrier_wait_p99_ns",
               shards.telemetry.at("barrier_wait_p99_ns"), "ns", twin_note);
    layers.add("rt.drain_batch_mean", shards.telemetry.at("drain_batch_mean"),
               "msgs", twin_note);
    layers.add("rt.queue_imbalance", shards.telemetry.at("queue_imbalance"),
               "ratio", twin_note);
    layers.add("rt.remote_push_fraction",
               ratio(static_cast<double>(shards.remote_pushes),
                     static_cast<double>(shards.remote_pushes +
                                         shards.self_pushes)),
               "ratio", twin_note);
    layers.add("rt.steal.events_per_step",
               static_cast<double>(rtl.steal_events) / steps, "count",
               w.steal ? "" : na);
    layers.add("rt.steal.tasks_per_event",
               ratio(static_cast<double>(rtl.stolen_tasks),
                     static_cast<double>(rtl.steal_events)),
               "tasks", w.steal ? "" : na);
    layers.add("models.step_action_ns",
               ratio(static_cast<double>(rtl.model_ns),
                     static_cast<double>(rtl.model_calls)),
               "ns", rtl_note);
    layers.add("models.step_action_calls",
               static_cast<double>(rtl.model_calls) / steps, "count",
               rtl_note);

    // Phase log: the threshold protocol's classification and collision game.
    double heavy = 0, matched = 0, unmatched = 0, requests = 0, rounds = 0,
           levels = 0, phase_steps = 0, forced = 0, completed = 0, active = 0;
    for (const rt::RtPhaseSummary& ps : t.phases) {
      if (!ps.completed) continue;
      ++completed;
      heavy += static_cast<double>(ps.num_heavy);
      matched += static_cast<double>(ps.matched);
      unmatched += static_cast<double>(ps.unmatched);
      phase_steps += static_cast<double>(ps.end_step - ps.start_step);
      forced += ps.forced ? 1 : 0;
      if (ps.num_heavy == 0) continue;
      ++active;
      requests += static_cast<double>(ps.requests);
      rounds += ps.collision_rounds;
      levels += ps.levels_used;
    }
    const bool threshold = w.policy == rt::RtPolicy::kThreshold;
    const std::string no_protocol = threshold ? "" : na;
    // The latency fabric's phase log records classification and matching,
    // not the collision game's per-phase requests, rounds and levels.
    const std::string no_game =
        !threshold ? na : w.latency > 0 ? "not in the latency phase log" : "";
    layers.add("core.heavy_per_phase", ratio(heavy, completed), "procs",
               no_protocol);
    layers.add("core.match_rate", ratio(matched, matched + unmatched), "ratio",
               no_protocol);
    layers.add("core.phase_steps_mean", ratio(phase_steps, completed), "steps",
               no_protocol);
    layers.add("core.forced_phases", forced, "count", no_protocol);
    layers.add("collision.requests_per_phase", ratio(requests, active),
               "count", no_game);
    layers.add("collision.rounds_per_phase", ratio(rounds, active), "count",
               no_game);
    layers.add("collision.levels_per_phase", ratio(levels, active), "count",
               no_game);
    layers.add("collision.matches_per_request", ratio(matched, requests),
               "ratio", no_game);
    const auto per_task = [&](std::uint64_t msgs) {
      return ratio(static_cast<double>(msgs),
                   static_cast<double>(te.at_steps.generated));
    };
    const sim::MessageCounters& tm = te.at_steps.msg;
    layers.add("collision.queries_per_task", per_task(tm.queries), "msgs/task",
               no_protocol);
    layers.add("collision.accepts_per_task", per_task(tm.accepts), "msgs/task",
               no_protocol);
    layers.add("core.ids_per_task", per_task(tm.id_messages), "msgs/task",
               no_protocol);
    layers.add("core.transfers_per_task", per_task(tm.transfers), "msgs/task");

    const Traced& wire = traced_wire ? *traced_wire : t;
    const auto wsteps = static_cast<double>(wire_steps);
    const std::string wire_note = traced_wire ? "uds-burst episode"
                                  : uds       ? ""
                                              : na;
    const bool wired = traced_wire || uds;
    layers.add("transport.run_us.p50",
               wired ? quantile(wire.step_us, 0.5) : 0.0, "us", wire_note);
    layers.add("transport.run_us.p90",
               wired ? quantile(wire.step_us, 0.9) : 0.0, "us", wire_note);
    layers.add("transport.bytes_per_step",
               static_cast<double>(wire.wire.bytes_sent) / wsteps, "bytes",
               wire_note);
    layers.add("transport.frames_per_step",
               static_cast<double>(wire.wire.frames_sent) / wsteps, "count",
               wire_note);
    layers.add("transport.barriers_per_step",
               ratio(static_cast<double>(wire.wire.barriers),
                     static_cast<double>(wire.shards)) /
                   wsteps,
               "count", wire_note);
    layers.add("transport.barrier_rtt_mean_us",
               wire.wire.barrier_rtt_us.mean(), "us", wire_note);
    layers.add("transport.barrier_rtt_p99_us",
               static_cast<double>(wire.wire.barrier_rtt_us.quantile(0.99)),
               "us", wire_note);

    const Traced& net = traced_net ? *traced_net : t;
    const auto nsteps = static_cast<double>(net_steps);
    const std::string fabric_note = traced_net ? "latency-lossy episode"
                                    : w.latency > 0 ? ""
                                                    : na;
    layers.add("net.fabric_msgs_per_step",
               static_cast<double>(net.fabric_sent) / nsteps, "count",
               fabric_note);
    layers.add("net.retransmits_per_step",
               static_cast<double>(net.fabric_retransmits) / nsteps, "count",
               fabric_note);
    layers.add("net.queued_delay_per_step",
               static_cast<double>(net.fabric_queued_delay) / nsteps, "steps",
               fabric_note);
    layers.add("sim.engine_s", ref.engine_s, "s");
    layers.add("obs.trace_overhead",
               1.0 - ratio(ratio(static_cast<double>(te.at_steps.consumed),
                                 te.run_s),
                           median(tps)),
               "ratio");
    layers.print_table("per-layer (traced run)");

    std::printf("# span self time (us)\n");
    for (const auto& [name, us] : spans->self_us()) {
      std::printf("  %-34s %16.1f\n", name.c_str(), us);
    }
    if (!args.spans_out.empty() && !spans->write_chrome_trace(args.spans_out)) {
      std::printf("# could not write spans to %s\n", args.spans_out.c_str());
    }
  }

  const bool correct = failed == 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed),
      (args.trace ? layers : e2e).json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace clb::bench

int main(int argc, char** argv) {
  // glibc moves its mmap threshold after each large free, so whether a
  // runtime's large blocks come from fresh, unfaulted mappings would depend
  // on the episodes before it, and setup_s would flip between two modes. A
  // fixed threshold gives every construction fresh mappings, as the first
  // one in a new process gets.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  clb::bench::Args args;
  try {
    args = clb::bench::parse_args(argc, argv);
  } catch (const std::exception& e) {  // std::stoull and friends
    clb::bench::usage(std::string("bad argument value: ") + e.what());
  }
  return clb::bench::run(args);
}
