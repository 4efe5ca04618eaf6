// Per-worker hot-path telemetry for the concurrent runtime.
//
// The rt scaling work (ROADMAP: n = 2^20..2^24) needs to see where worker
// threads actually spend a superstep: draining mailboxes, blocked in the
// phase barrier, or doing task work. WorkerTelemetry is the per-worker
// counter/histogram bundle. Each worker owns exactly one instance and is its
// only writer, so the hot path takes no locks and no atomics; merging
// happens at barrier-ordered points (the runtime's snapshot emitter, or the
// main thread between run() calls — the command barrier publishes the plain
// fields). Its distributions are allocation-free stats::LogHistograms.
//
// Cost discipline (the same runtime-switch contract as obs/trace.hpp):
//   * Run time: telemetry off (RtConfig::telemetry = false) costs one
//     predictable branch per superstep and stage; telemetry on adds two
//     steady_clock reads per superstep, one per barrier wait and one per
//     stage, and histogram updates as described above.
//   * Determinism: telemetry only OBSERVES — it never feeds back into the
//     protocol, so a run's outputs (ledger, counters, phase log) are
//     bit-identical with telemetry on or off (test_telemetry proves it).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "obs/metrics.hpp"
#include "stats/log_histogram.hpp"

namespace clb::obs {

/// The named stages of one runtime step (rt::ShardKernel::step), in
/// schedule order. A stage's time runs from the end of the previous stage
/// to its own end, exchanges included, so a step's stages sum to the step:
/// tree_* are the query-tree exchanges of every level of a threshold phase,
/// and `other` holds crash re-home and the non-threshold policies (scatter,
/// zoo, the latency protocol).
enum class Stage : std::uint8_t {
  kGenConsume,
  kSteal,
  kClassify,
  kCollisionRounds,
  kTreeChildren,
  kTreeIds,
  kTreeTransfers,
  kEndStep,
  kOther,
};
inline constexpr std::size_t kStageCount =
    static_cast<std::size_t>(Stage::kOther) + 1;
/// Export names, indexed by Stage (`<prefix>stage.<name>_ns`, and the
/// stage's barrier wait `<prefix>stage.<name>.stall_ns`).
inline constexpr const char* kStageNames[kStageCount] = {
    "gen_consume",   "steal",    "classify",       "collision_rounds",
    "tree_children", "tree_ids", "tree_transfers", "end_step",
    "other",
};

/// One worker thread's hot-path counters and distributions. Single-writer:
/// only the owning worker mutates it while a run is in flight; readers must
/// be ordered behind a barrier (the runtime's command barrier or the
/// snapshot emitter's publish barrier provide the happens-before).
struct WorkerTelemetry {
  // ---- superstep timing ----
  std::uint64_t steps = 0;          ///< supersteps executed
  std::uint64_t step_ns = 0;        ///< total wall ns inside step_once
  std::uint64_t stall_ns = 0;       ///< ns blocked in barrier arrive->release
  std::uint64_t barrier_waits = 0;  ///< barrier arrivals on the step path
  std::uint64_t stage_ns[kStageCount] = {};  ///< wall ns per Stage
  /// The part of stage_ns[s] spent in barrier waits; the stages' stalls
  /// sum to stall_ns.
  std::uint64_t stage_stall_ns[kStageCount] = {};

  // ---- mailbox traffic ----
  std::uint64_t enq_self = 0;    ///< pushes into the worker's own mailbox
  std::uint64_t enq_remote = 0;  ///< pushes into another worker's mailbox
  std::uint64_t deq = 0;         ///< messages popped from the own mailbox
  std::uint64_t drains = 0;      ///< drain invocations (batches)

  // ---- task work ----
  std::uint64_t generated = 0;
  std::uint64_t consumed = 0;
  std::uint64_t phases = 0;  ///< balancing phases observed (lockstep)

  // ---- work stealing (RtConfig::steal; zero with stealing off) ----
  std::uint64_t steals = 0;        ///< own-victim steal batches shipped
  std::uint64_t stolen_tasks = 0;  ///< tasks those batches carried

  // ---- latency fabric (leader-recorded; zero in instant mode) ----
  std::uint64_t fabric_max_in_flight = 0;
  std::uint64_t fabric_flight_sum = 0;      ///< sum of per-step in-flight
  std::uint64_t fabric_flight_samples = 0;  ///< steps sampled

  // ---- distributions ----
  stats::LogHistogram step_ns_hist;      ///< superstep duration, ns
  stats::LogHistogram stall_ns_hist;     ///< barrier wait, ns
  stats::LogHistogram drain_batch_hist;  ///< messages per drain = observed
                                         ///< mailbox depth (drains always
                                         ///< empty the box)
  stats::LogHistogram phase_steps_hist;  ///< steps-to-drain per phase (0 =
                                         ///< the instant fabric resolved it
                                         ///< in-step)

  /// Wall time actually working: superstep time minus barrier stalls. With
  /// spin_work on this includes the spin work, which is the point —
  /// spin-vs-wait is exactly the utilization split the bench reports.
  [[nodiscard]] std::uint64_t work_ns() const {
    return step_ns >= stall_ns ? step_ns - stall_ns : 0;
  }
  /// work_ns / step_ns in [0, 1]; 0 when no steps ran.
  [[nodiscard]] double utilization() const {
    return step_ns == 0 ? 0.0
                        : static_cast<double>(work_ns()) /
                              static_cast<double>(step_ns);
  }
  /// stall_ns / step_ns in [0, 1]; 0 when no steps ran.
  [[nodiscard]] double stall_fraction() const {
    return step_ns == 0 ? 0.0
                        : static_cast<double>(stall_ns) /
                              static_cast<double>(step_ns);
  }

  /// Accumulates `other` into this; every counter total is conserved
  /// (test_telemetry hammers this from 8 threads under TSan).
  void merge(const WorkerTelemetry& other);
};

/// Exports a (merged) WorkerTelemetry into the registry under `prefix`:
/// counters for every raw total, gauges for the derived ratios and the
/// histogram summaries (p50/p99/max as scalar gauges — registry histograms
/// are value-indexed IntHistograms, unsuitable for ns samples).
void merge_worker_telemetry(MetricsRegistry& m, const WorkerTelemetry& t,
                            const std::string& prefix);

/// Appends one snapshot JSONL line for worker `worker` to `out`:
///   {"kind":"rt_telemetry","tag":...,"step":...,"worker":...,
///    "workers":...,"shard_load":...,<cumulative counters>}
/// Counters are cumulative since construction, so consumers difference
/// adjacent snapshots for per-interval rates. Schema documented in
/// docs/observability.md; validated by tools/check_trace.py --snapshots.
void append_telemetry_snapshot(std::string& out, const std::string& tag,
                               std::uint64_t step, unsigned worker,
                               unsigned workers, std::uint64_t shard_load,
                               const WorkerTelemetry& t);

}  // namespace clb::obs
