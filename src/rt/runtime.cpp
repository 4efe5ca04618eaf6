#include "rt/runtime.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace clb::rt {

namespace {

/// Refuses an invalid config (or model) before any member is built, and
/// resolves the shard count.
RtConfig checked(RtConfig cfg, const sim::LoadModel* model) {
  std::vector<std::string> v = validate(cfg);
  if (model == nullptr) {
    v.emplace_back("runtime needs a load model");
  } else if (model->serial_generation()) {
    v.emplace_back("runtime requires a parallel-safe (counter-RNG) model");
  }
  if (cfg.transport != Transport::kInProc) {
    v.emplace_back(
        "rt::Runtime executes the in-proc substrate only; for kUds/kTcp "
        "construct a transport::ProcessRuntime from this config");
  }
  refuse_invalid(v, "rt::Runtime");
  cfg.workers = resolve_workers(cfg);
  return cfg;
}

}  // namespace

struct Runtime::Worker {
  Worker(Runtime& rt, unsigned index, std::span<RtProcessor> shard)
      : comm(rt.part_, index, rt.fabric_),
        kernel(rt.cfg_, rt.model_, comm, shard, rt.start_tp_) {}

  InProcComm comm;
  ShardKernel kernel;
  std::thread thread;
};

Runtime::Runtime(RtConfig cfg, sim::LoadModel* model)
    : cfg_(checked(std::move(cfg), model)),
      model_(model),
      part_(cfg_.n, cfg_.workers),
      start_tp_(std::chrono::steady_clock::now()),
      fabric_(cfg_.workers),
      cmd_barrier_(cfg_.workers + 1) {
  const unsigned w = cfg_.workers;
  // One pass builds every processor bound to its shard's arena (see
  // rt/arena.hpp).
  procs_.reserve(cfg_.n);
  for (unsigned i = 0; i < w; ++i) {
    arenas_.push_back(std::make_unique<TaskArena>());
    const auto [b, e] = part_.range(i);
    for (std::uint64_t p = b; p < e; ++p) {
      procs_.emplace_back(arenas_.back().get());
    }
  }
  workers_.reserve(w);
  for (unsigned i = 0; i < w; ++i) {
    const auto [b, e] = part_.range(i);
    workers_.push_back(std::make_unique<Worker>(
        *this, i, std::span<RtProcessor>(procs_).subspan(b, e - b)));
  }
  workers_[0]->kernel.on_snapshot = [this](std::uint64_t step) {
    for (unsigned i = 0; i < worker_count(); ++i) {
      const ShardKernel& k = workers_[i]->kernel;
      obs::append_telemetry_snapshot(telemetry_jsonl_, cfg_.telemetry_tag,
                                     step, i, worker_count(),
                                     k.snapshot_load(), k.snapshot());
    }
  };
  for (unsigned i = 0; i < w; ++i) {
    Worker* wp = workers_[i].get();
    wp->thread = std::thread([this, wp, i] {
      // Adopt the shard index as this thread's worker ID so trace events
      // and telemetry emitted from here carry the right lane.
      util::bind_worker_index(i);
      worker_main(*wp);
    });
  }
}

Runtime::~Runtime() {
  cmd_stop_ = true;
  cmd_barrier_.arrive_and_wait();
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

void Runtime::run(std::uint64_t steps) {
  if (steps == 0) return;
  cmd_steps_ = steps;
  const auto t0 = std::chrono::steady_clock::now();
  cmd_barrier_.arrive_and_wait();  // release the workers
  cmd_barrier_.arrive_and_wait();  // wait for completion
  wall_seconds_ +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  step_base_ += steps;
  for (auto& w : workers_) w->kernel.sync_outputs();
  result_fresh_ = false;
}

void Runtime::worker_main(Worker& w) {
  for (;;) {
    cmd_barrier_.arrive_and_wait();
    if (cmd_stop_) return;
    const std::uint64_t base = step_base_;
    const std::uint64_t count = cmd_steps_;
    for (std::uint64_t s = 0; s < count; ++s) w.kernel.step(base + s);
    cmd_barrier_.arrive_and_wait();
  }
}

void Runtime::deposit(std::uint32_t p, sim::Task t) {
  check_deposit(p, cfg_.n, t.birth_step, step_base_, "Runtime::deposit");
  workers_[part_.owner_of(p)]->kernel.deposit(p, t);
  result_fresh_ = false;
}

// ---- main-thread aggregation ----

const RunResult& Runtime::result() const {
  if (result_fresh_) return result_;
  // The kernels hand their logs over at every merge (release_logs), so the
  // result holds the only copy: start from the previous result's logs and
  // merge what each kernel appended since. Steps only grow from one run()
  // to the next, so sorting the appended tail keeps the logs canonical.
  // An open latency phase stays with its kernel, so the previous result
  // holds only a copy of it, which the merge replaces.
  ShardOutputs out;
  out.ledger = std::move(result_.out.ledger);
  out.dropped = std::move(result_.out.dropped);
  out.sojourn_steps = std::move(result_.out.sojourn_steps);
  out.sojourn_us = std::move(result_.out.sojourn_us);
  out.phases = std::move(result_.out.phases);
  if (!out.phases.empty() && !out.phases.back().completed) {
    out.phases.pop_back();
  }
  const std::size_t ledger_from = out.ledger.size();
  const std::size_t dropped_from = out.dropped.size();
  for (const auto& w : workers_) {
    out.merge(w->kernel.outputs());
    w->kernel.release_logs();
  }
  out.sort_logs(ledger_from, dropped_from);
  result_ = RunResult{procs_, std::move(out), step_base_};
  result_fresh_ = true;
  return result_;
}

std::uint64_t Runtime::remote_pushes() const {
  std::uint64_t s = 0;
  for (const auto& w : workers_) s += w->comm.remote_pushes();
  return s;
}

std::uint64_t Runtime::self_pushes() const {
  std::uint64_t s = 0;
  for (const auto& w : workers_) s += w->comm.self_pushes();
  return s;
}

std::uint64_t Runtime::arena_bytes_used() const {
  std::uint64_t s = 0;
  for (const auto& a : arenas_) s += a->bytes_used();
  return s;
}

// ---- telemetry ----

const obs::WorkerTelemetry& Runtime::worker_telemetry(unsigned i) const {
  return workers_[i]->kernel.telemetry();
}

obs::WorkerTelemetry Runtime::telemetry_total() const {
  obs::WorkerTelemetry total;
  for (const auto& w : workers_) total.merge(w->kernel.telemetry());
  return total;
}

void Runtime::export_telemetry(obs::MetricsRegistry& m,
                               const std::string& prefix) const {
  const obs::WorkerTelemetry total = telemetry_total();
  obs::merge_worker_telemetry(m, total, prefix);
  double util_sum = 0.0;
  std::uint64_t max_consumed = 0;
  for (unsigned i = 0; i < worker_count(); ++i) {
    const obs::WorkerTelemetry& t = worker_telemetry(i);
    obs::merge_worker_telemetry(m, t, prefix + "w" + std::to_string(i) + ".");
    util_sum += t.utilization();
    if (t.consumed > max_consumed) max_consumed = t.consumed;
  }
  const auto workers = static_cast<double>(worker_count());
  const double mean_consumed = static_cast<double>(total.consumed) / workers;
  m.gauge(prefix + "workers") = workers;
  m.gauge(prefix + "utilization_mean") = util_sum / workers;
  m.gauge(prefix + "barrier_stall_fraction") = total.stall_fraction();
  // max/mean consumed tasks over workers; 1.0 = perfectly even shards.
  m.gauge(prefix + "queue_imbalance") =
      mean_consumed > 0.0 ? static_cast<double>(max_consumed) / mean_consumed
                          : 0.0;
  if (cfg_.latency > 0) {
    // Shard-0-sampled fabric depth, named like the dist.net.* gauges so the
    // two execution models export comparable telemetry.
    const obs::WorkerTelemetry& lead = worker_telemetry(0);
    m.gauge(prefix + "fabric_max_in_flight") =
        static_cast<double>(lead.fabric_max_in_flight);
    m.gauge(prefix + "fabric_mean_in_flight") =
        lead.fabric_flight_samples == 0
            ? 0.0
            : static_cast<double>(lead.fabric_flight_sum) /
                  static_cast<double>(lead.fabric_flight_samples);
  }
}

}  // namespace clb::rt
