// The concurrent runtime: the paper's protocol on real worker threads.
//
// Shared-nothing design: the n logical processors are split into contiguous
// shards (util::block_range, so worker order = ascending processor order),
// each owned by one worker thread running one rt::ShardKernel — the same
// kernel the cross-process transport runs in each shard process. Workers
// exchange protocol messages through an rt::InProcComm: per-destination
// value outboxes double-buffered by superstep parity, with reductions
// allgathered through per-shard blob slots behind one util::PhaseBarrier.
// There is no global lock and no per-message allocation on the hot path.
// The schedule, and its determinism contract, is documented in
// rt/kernel.hpp.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "rt/comm.hpp"
#include "rt/config.hpp"
#include "rt/kernel.hpp"
#include "rt/result.hpp"
#include "sim/counters.hpp"
#include "sim/model.hpp"
#include "stats/histogram.hpp"
#include "util/thread_pool.hpp"

namespace clb::rt {

class Runtime {
 public:
  /// Spawns resolve_workers(cfg) threads, each running one ShardKernel over
  /// an InProcComm and parked on the command barrier. Refuses (naming every
  /// broken rule) a config validate() rejects. The model must be
  /// parallel-safe (!serial_generation()); it is shared by all workers and
  /// must therefore be stateless across step_action calls, which every
  /// counter-RNG model in src/models is.
  Runtime(RtConfig cfg, sim::LoadModel* model);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Executes `steps` runtime steps on the worker threads; blocks until
  /// done. Callable repeatedly; state carries over (step numbering included).
  void run(std::uint64_t steps);

  // ---- Inspection (main thread, between run() calls) ----
  [[nodiscard]] const RtConfig& config() const { return cfg_; }
  [[nodiscard]] std::uint64_t n() const { return cfg_.n; }
  [[nodiscard]] unsigned worker_count() const {
    return static_cast<unsigned>(workers_.size());
  }
  [[nodiscard]] std::uint64_t step() const { return step_base_; }

  /// The run's outcome: the processors, every worker's outputs merged and
  /// canonically sorted (ShardOutputs::merge + sort_logs), the step count.
  /// Built on the first call after a run()/deposit() and cached; valid
  /// until the next run()/deposit() or the runtime's destruction.
  [[nodiscard]] const RunResult& result() const;

  /// Wall-clock seconds spent inside run() so far.
  [[nodiscard]] double wall_seconds() const { return wall_seconds_; }

  /// Message traffic: messages addressed to another worker's shard vs the
  /// sender's own. The remote fraction is the contention exposure.
  [[nodiscard]] std::uint64_t remote_pushes() const;
  [[nodiscard]] std::uint64_t self_pushes() const;

  // Forwards to result() for benchmark/clb_bench.cpp only; they go when the
  // benchmark next changes. New code reads result().
  [[nodiscard]] std::uint64_t total_load() const {
    return result().total_load();
  }
  [[nodiscard]] std::uint64_t total_generated() const {
    return result().total_generated();
  }
  [[nodiscard]] std::uint64_t total_consumed() const {
    return result().total_consumed();
  }
  [[nodiscard]] std::uint64_t running_max_load() const {
    return result().out.running_max;
  }
  [[nodiscard]] bool conservation_holds() const {
    return result().conservation_holds();
  }
  [[nodiscard]] const sim::MessageCounters& messages() const {
    return result().out.msg;
  }
  [[nodiscard]] std::uint64_t clamped_transfers() const {
    return result().out.clamped;
  }
  [[nodiscard]] const std::vector<LedgerEntry>& ledger() const {
    return result().out.ledger;
  }
  [[nodiscard]] const std::vector<RtPhaseSummary>& phases() const {
    return result().out.phases;
  }
  [[nodiscard]] const stats::IntHistogram& sojourn_steps() const {
    return result().out.sojourn_steps;
  }
  [[nodiscard]] stats::IntHistogram sojourn_us() const {
    return result().out.sojourn_us.to_dense();
  }
  [[nodiscard]] std::uint64_t steal_events() const {
    return result().out.steal_events;
  }
  [[nodiscard]] std::uint64_t stolen_tasks() const {
    return result().out.stolen_tasks;
  }
  [[nodiscard]] std::uint64_t fabric_sent() const {
    return result().out.fab_sent;
  }
  [[nodiscard]] std::uint64_t fabric_retransmits() const {
    return result().out.retransmits;
  }
  [[nodiscard]] std::uint64_t fabric_queued_delay() const {
    return result().out.queued_delay;
  }
  [[nodiscard]] std::uint64_t fabric_in_flight() const {
    return result().fabric_in_flight();
  }

  // ---- telemetry (RtConfig::telemetry; all readable between runs) ----
  /// True when telemetry was requested (RtConfig::telemetry).
  [[nodiscard]] bool telemetry_enabled() const { return cfg_.telemetry; }
  /// Worker i's own counters (zeroed struct when telemetry is off).
  [[nodiscard]] const obs::WorkerTelemetry& worker_telemetry(unsigned i) const;
  /// All workers merged (counter totals conserved; phases is per-worker
  /// lockstep, so the merged value is workers x phase count).
  [[nodiscard]] obs::WorkerTelemetry telemetry_total() const;
  /// Snapshot timeline accumulated so far (one JSONL object per line; see
  /// obs::append_telemetry_snapshot). Empty without telemetry_interval.
  [[nodiscard]] const std::string& telemetry_jsonl() const {
    return telemetry_jsonl_;
  }
  /// Exports merged totals under `prefix`, per-worker blocks under
  /// `prefix`w<i>., and the cross-worker derived gauges the rt report
  /// keys on: utilization_mean, barrier_stall_fraction, queue_imbalance
  /// (max/mean consumed over workers) and workers.
  void export_telemetry(obs::MetricsRegistry& m,
                        const std::string& prefix) const;

  /// Appends a task to p's queue (main thread, between runs) — the fault
  /// hook the fuzzer's load spikes use, mirroring sim::Engine::deposit.
  /// Aborts unless p < n and t was born no later than step().
  void deposit(std::uint32_t p, sim::Task t);

  // ---- queue storage ---------------------------------------------------
  /// Bytes bump-allocated across all per-worker queue arenas.
  [[nodiscard]] std::uint64_t arena_bytes_used() const;

 private:
  struct Worker;

  void worker_main(Worker& w);

  RtConfig cfg_;
  sim::LoadModel* model_;
  Partition part_;
  std::chrono::steady_clock::time_point start_tp_;

  // Queue storage: one bump arena per shard, so consecutive processors'
  // rings are consecutive in memory; processors are built bound to them.
  std::vector<std::unique_ptr<TaskArena>> arenas_;
  std::vector<RtProcessor> procs_;

  InProcFabric fabric_;
  std::vector<std::unique_ptr<Worker>> workers_;

  // Command coordination (workers + main).
  util::PhaseBarrier cmd_barrier_;
  std::uint64_t cmd_steps_ = 0;
  bool cmd_stop_ = false;
  std::uint64_t step_base_ = 0;

  std::string telemetry_jsonl_;  // shard-0-written between snapshot exchanges
  double wall_seconds_ = 0;

  // result()'s cache, dropped by run() and deposit().
  mutable RunResult result_;
  mutable bool result_fresh_ = false;
};

}  // namespace clb::rt
