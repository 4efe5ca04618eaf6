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
  [[nodiscard]] std::uint64_t load(std::uint64_t p) const {
    return processor(p).queue.size();
  }
  [[nodiscard]] const RtProcessor& processor(std::uint64_t p) const {
    check_processor(p, cfg_.n, "Runtime::processor");
    return procs_[p];
  }
  [[nodiscard]] std::uint64_t total_load() const;
  [[nodiscard]] std::uint64_t total_generated() const;
  [[nodiscard]] std::uint64_t total_consumed() const;
  [[nodiscard]] std::uint64_t running_max_load() const {
    return sum(&ShardOutputs::running_max);
  }
  /// generated + deposited == consumed + queued + dropped? Count-based only
  /// — identity-blind, which is precisely why the fuzzer's FIFO oracle and
  /// not this check must convict the mailbox-drop mutation.
  [[nodiscard]] bool conservation_holds() const;

  /// Message counters summed over workers (same attribution rules as the
  /// simulator: queries/accepts/ids/control from the protocol, transfers
  /// and tasks_moved from applied transfers).
  [[nodiscard]] sim::MessageCounters messages() const;
  [[nodiscard]] std::uint64_t clamped_transfers() const;

  /// All applied transfers, sorted by (step, from, to). Within one step
  /// sources are unique, so this order is canonical and directly comparable
  /// against the engine's per-step pending-transfer capture.
  [[nodiscard]] std::vector<LedgerEntry> ledger() const;

  [[nodiscard]] const std::vector<RtPhaseSummary>& phases() const;

  [[nodiscard]] stats::IntHistogram sojourn_steps() const;
  [[nodiscard]] stats::IntHistogram sojourn_us() const;

  /// Wall-clock seconds spent inside run() so far.
  [[nodiscard]] double wall_seconds() const { return wall_seconds_; }

  /// Message traffic: messages addressed to another worker's shard vs the
  /// sender's own. The remote fraction is the contention exposure.
  [[nodiscard]] std::uint64_t remote_pushes() const;
  [[nodiscard]] std::uint64_t self_pushes() const;

  /// Fault-injection bookkeeping (drop_transfer_message).
  [[nodiscard]] std::uint64_t dropped_messages() const;
  [[nodiscard]] std::uint64_t dropped_tasks() const;
  /// The dropped victims themselves, sorted like ledger() — in
  /// deterministic mode the victim identity is worker-count-invariant.
  [[nodiscard]] std::vector<LedgerEntry> dropped_log() const;

  /// Latency-mode fabric counters (0 in instant mode).
  [[nodiscard]] std::uint64_t fabric_sent() const;
  [[nodiscard]] std::uint64_t fabric_in_flight() const;
  /// Link-model counters summed over workers (all 0 on an unshaped fabric;
  /// comparable against dist::Network's identically-named stats).
  [[nodiscard]] std::uint64_t fabric_retransmits() const;
  [[nodiscard]] std::uint64_t fabric_dup_suppressed() const;
  [[nodiscard]] std::uint64_t fabric_queued_delay() const;
  /// Mutation bookkeeping: messages destroyed by link_loss_no_retransmit
  /// and duplicates applied by dup_delivery (the fuzzer's mutation_applied
  /// probes).
  [[nodiscard]] std::uint64_t link_lost_messages() const;
  [[nodiscard]] std::uint64_t dup_delivered() const;

  // ---- telemetry (RtConfig::telemetry; all readable between runs) ----
  /// True when telemetry was requested AND compiled in.
  [[nodiscard]] bool telemetry_enabled() const { return telemetry_; }
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
  void deposit(std::uint32_t p, sim::Task t);

  // ---- crash/recovery bookkeeping (RtConfig::crashes) ----
  /// Tasks moved off crashed processors so far; mirrors
  /// sim::Engine::rehomed_tasks (re-homes are queue moves, booked here and
  /// nowhere else — not in the ledger or message counters).
  [[nodiscard]] std::uint64_t rehomed_tasks() const {
    return sum(&ShardOutputs::rehomed_tasks);
  }
  [[nodiscard]] std::uint64_t rehomed_events() const {
    return sum(&ShardOutputs::rehomed_events);
  }
  /// Mutation bookkeeping: tasks destroyed by crash_lose_queue and steps on
  /// which stale_read_fresh changed the decision list (the fuzzer's
  /// mutation_applied probes).
  [[nodiscard]] std::uint64_t crash_lost_tasks() const {
    return sum(&ShardOutputs::crash_lost_tasks);
  }
  [[nodiscard]] std::uint64_t stale_cheat_divergence() const {
    return sum(&ShardOutputs::stale_cheat_divergence);
  }

  // ---- work stealing (RtConfig::steal) ---------------------------------
  /// Thief/victim pairs executed and tasks moved by the steal pass (steals
  /// ship as regular kTransfer messages, so they also appear in ledger(),
  /// messages().transfers and tasks_moved — same attribution as the engine).
  [[nodiscard]] std::uint64_t steal_events() const;
  [[nodiscard]] std::uint64_t stolen_tasks() const;
  /// Mutation bookkeeping: tasks cloned by steal_duplicate_task (the
  /// fuzzer's mutation_applied probe).
  [[nodiscard]] std::uint64_t steal_dup_tasks() const;

  // ---- queue storage ---------------------------------------------------
  /// Bytes bump-allocated across all per-worker queue arenas.
  [[nodiscard]] std::uint64_t arena_bytes_used() const;

 private:
  struct Worker;

  void worker_main(Worker& w);
  [[nodiscard]] std::uint64_t sum(std::uint64_t ShardOutputs::*field) const;

  RtConfig cfg_;
  sim::LoadModel* model_;
  Partition part_;
  bool telemetry_ = false;
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
};

}  // namespace clb::rt
