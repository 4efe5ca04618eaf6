// The synchronous parallel-machine simulator.
//
// Time advances in discrete steps; each step performs the paper's sub-steps
// in order (Concluding Remarks: "a time step in our model actually consists
// of four steps — generate and consume load, perform balancing decisions,
// and actually move load"):
//
//   1. generation + consumption, per processor (data-parallel; randomness is
//      a counter-RNG function of (seed, proc, step), so results are
//      identical for any thread count),
//   2. the balancer's decision logic (serial),
//   3. application of the transfers the balancer scheduled.
//
// The engine owns processor state and global accounting; models and
// balancers are plugged in via the LoadModel / Balancer interfaces.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "obs/trace.hpp"
#include "sim/balancer.hpp"
#include "sim/counters.hpp"
#include "sim/model.hpp"
#include "sim/processor.hpp"
#include "sim/steal.hpp"
#include "stats/histogram.hpp"
#include "util/thread_pool.hpp"

namespace clb::core {
class LivenessSchedule;
}  // namespace clb::core

namespace clb::sim {

struct EngineConfig {
  /// Number of processors.
  std::uint64_t n = 1024;
  /// Master seed; every random decision in the run derives from it.
  std::uint64_t seed = 1;
  /// Worker threads for the generation pass (1 = serial; 0 = hardware).
  unsigned threads = 1;
  /// Record task sojourn (waiting) times into a histogram. Costs one
  /// histogram update per consumed task and forces the serial path.
  bool track_sojourn = false;
  /// Optional event-trace sink (borrowed; must outlive the engine). Null or
  /// disabled costs one pointer test per traced site; see obs/trace.hpp.
  obs::TraceSink* trace = nullptr;
  /// Optional crash/recovery schedule (borrowed; must outlive the engine).
  /// Null = every processor alive forever. At the start of a crash step the
  /// crashed processor's queue is re-homed in FIFO order onto the schedule's
  /// target; while dead it neither generates nor consumes. Liveness-aware
  /// balancers must consult the same schedule.
  const core::LivenessSchedule* liveness = nullptr;
  /// Deterministic work stealing (see sim/steal.hpp): after the
  /// generate/consume pass, processors whose consume budget outlived their
  /// queue steal from the most-loaded processors via the pure shared rule.
  /// Off by default; the runtime's RtConfig::steal mirrors this knob.
  StealConfig steal{};
};

struct Transfer {
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  std::uint32_t count = 0;

  friend bool operator==(const Transfer&, const Transfer&) = default;
};

/// One applied steal (EngineConfig::steal), stamped with its step so
/// equivalence tests can merge the steal log into the balancer-transfer
/// ledger for cross-validation against the runtime's ledger().
struct StealRecord {
  std::uint64_t step = 0;
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  std::uint32_t count = 0;
};

class Engine {
 public:
  /// The model is required; the balancer may be null (unbalanced system).
  Engine(EngineConfig cfg, LoadModel* model, Balancer* balancer);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Clears all queues and counters and restarts at step 0.
  void reset();

  /// Advances the simulation by `steps` time steps.
  void run(std::uint64_t steps);
  void step_once();

  // ---- Read-only state -------------------------------------------------
  [[nodiscard]] std::uint64_t n() const { return cfg_.n; }
  [[nodiscard]] std::uint64_t seed() const { return cfg_.seed; }
  /// Number of completed steps (== the next step index to execute).
  [[nodiscard]] std::uint64_t step() const { return step_; }
  [[nodiscard]] std::uint64_t load(std::uint64_t p) const {
    return procs_[p].load();
  }
  /// Total weight of processor p's queued tasks (== load for unit weights).
  [[nodiscard]] std::uint64_t weight_load(std::uint64_t p) const {
    return procs_[p].weight_load;
  }
  [[nodiscard]] const Processor& processor(std::uint64_t p) const {
    return procs_[p];
  }
  /// Total system load at the last step boundary.
  [[nodiscard]] std::uint64_t total_load() const { return total_load_; }
  /// Maximum processor load at the last step boundary.
  [[nodiscard]] std::uint64_t step_max_load() const { return step_max_load_; }
  /// Maximum processor load seen at any step boundary so far.
  [[nodiscard]] std::uint64_t running_max_load() const {
    return running_max_load_;
  }
  /// Weighted counterparts (identical to the unweighted ones when every
  /// task has weight 1).
  [[nodiscard]] std::uint64_t total_weight() const { return total_weight_; }
  [[nodiscard]] std::uint64_t step_max_weight() const {
    return step_max_weight_;
  }
  [[nodiscard]] std::uint64_t running_max_weight() const {
    return running_max_weight_;
  }
  /// Number of newest tasks on p whose cumulative weight reaches `weight`
  /// (the weighted balancer's transfer-count helper).
  [[nodiscard]] std::uint64_t transfer_count_for_weight(
      std::uint64_t p, std::uint64_t weight) const {
    return procs_[p].queue.count_from_back_for_weight(weight);
  }
  [[nodiscard]] const MessageCounters& messages() const { return msg_; }
  /// The engine's trace sink (null when tracing is not wired up).
  [[nodiscard]] obs::TraceSink* trace() const { return cfg_.trace; }
  [[nodiscard]] const stats::IntHistogram& sojourn_histogram() const {
    return sojourn_;
  }

  /// Snapshot of the current load distribution as a histogram.
  [[nodiscard]] stats::IntHistogram load_histogram() const;

  /// Sums of per-processor lifetime counters.
  [[nodiscard]] std::uint64_t total_generated() const;
  [[nodiscard]] std::uint64_t total_consumed() const;
  /// Fraction of consumed tasks that were executed on their origin
  /// processor (the paper's locality motivation). 1.0 when nothing consumed.
  [[nodiscard]] double locality_fraction() const;

  // ---- Balancer API (valid during Balancer::on_step) -------------------
  /// Schedules `count` tasks to move from the back of `from`'s queue to the
  /// back of `to`'s queue after on_step returns. Counts are clamped to the
  /// sender's load at application time (clamps are counted).
  void schedule_transfer(std::uint32_t from, std::uint32_t to,
                         std::uint32_t count);
  /// Message accounting hook for balancers.
  MessageCounters& mutable_messages() { return msg_; }
  /// Lets a balancer bump the per-processor initiation counter.
  void note_balance_initiation(std::uint64_t p) {
    ++procs_[p].balance_initiations;
  }

  /// Number of transfers whose count had to be clamped (sender had fewer
  /// tasks at application time than when the transfer was scheduled).
  [[nodiscard]] std::uint64_t clamped_transfers() const { return clamped_; }

  /// Transfers scheduled so far this step, in schedule order. Valid during
  /// Balancer::on_step (the invariant oracle snapshots it from a wrapping
  /// balancer after the inner policy has run); cleared once applied.
  [[nodiscard]] const std::vector<Transfer>& pending_transfers() const {
    return pending_;
  }

  // ---- Conservation ----------------------------------------------------
  /// True iff every task ever injected is still accounted for:
  ///   generated + deposited == consumed + queued + drained.
  /// O(n); intended for step boundaries and cold paths.
  [[nodiscard]] bool conservation_holds() const;
  /// Always-on conservation check (CLB_CHECK). Balancers with a phase
  /// structure call this once per phase boundary — a cold path, so the O(n)
  /// scan is free relative to the phase itself; the per-step variant stays
  /// debug-only inside step_once.
  void check_conservation() const;

  // ---- Test-only fault injection (the fuzzer's mutation checks) --------
  /// Removes the newest task on `p` with *deliberately consistent-looking*
  /// accounting (the task is booked as drained), simulating a balancer that
  /// loses a task in flight while its counters still add up. Count-based
  /// conservation checks stay green; only identity-tracking oracles can
  /// catch it. Returns false when p's queue is empty.
  bool steal_newest_for_test(std::uint32_t p);
  /// Swaps two queue positions on `p`, violating FIFO order preservation.
  void swap_queue_entries_for_test(std::uint32_t p, std::uint64_t i,
                                   std::uint64_t j);

  // ---- Immediate-mode redistribution (global policies only) ------------
  /// Removes every task from every queue, in (processor, FIFO) order.
  /// Used by global redistribution baselines (AllInAir); message accounting
  /// is the caller's responsibility. Drained tasks are tracked so the
  /// conservation check stays exact while they are held outside the engine.
  [[nodiscard]] std::vector<Task> drain_all();
  /// Appends a task to the back of processor `p`'s queue. Counted as an
  /// external injection for conservation purposes (spike harnesses deposit
  /// tasks the engine never generated).
  void deposit(std::uint32_t p, Task t);
  /// Lifetime totals of the immediate-mode API, for conservation checks.
  [[nodiscard]] std::uint64_t total_deposited() const { return deposited_; }
  [[nodiscard]] std::uint64_t total_drained() const { return drained_; }

  // ---- Work stealing (EngineConfig::steal) -----------------------------
  /// Every steal applied so far, in application order (within a step that
  /// is ascending victim id, by the decision rule's contract).
  [[nodiscard]] const std::vector<StealRecord>& steal_log() const {
    return steal_log_;
  }
  [[nodiscard]] std::uint64_t steal_events() const {
    return steal_log_.size();
  }
  [[nodiscard]] std::uint64_t stolen_tasks() const { return stolen_tasks_; }

  // ---- Crash/recovery (EngineConfig::liveness) -------------------------
  /// Tasks moved off crashed processors so far (conserved: re-homing is a
  /// queue move, booked here and nowhere else — not in the transfer ledger,
  /// which records only balancing decisions).
  [[nodiscard]] std::uint64_t rehomed_tasks() const { return rehomed_tasks_; }
  /// Crash events whose re-home actually ran (== accepted crashes seen).
  [[nodiscard]] std::uint64_t rehomed_events() const {
    return rehomed_events_;
  }

 private:
  void generate_consume_block(std::uint64_t begin, std::uint64_t end,
                              std::uint64_t step);
  void process_crashes(std::uint64_t step);
  /// Replays the pure steal rule over the post-generation loads and applies
  /// the batches immediately (before the balancer sees the loads), exactly
  /// where the runtime's run_steal superstep sits.
  void apply_steals(std::uint64_t step);
  void apply_transfers();
  void refresh_load_aggregates();

  EngineConfig cfg_;
  LoadModel* model_;
  Balancer* balancer_;
  std::vector<Processor> procs_;
  std::vector<Transfer> pending_;
  MessageCounters msg_;
  stats::IntHistogram sojourn_;
  std::unique_ptr<util::ThreadPool> pool_;  // null when serial

  std::uint64_t step_ = 0;
  std::uint64_t total_load_ = 0;
  std::uint64_t step_max_load_ = 0;
  std::uint64_t running_max_load_ = 0;
  std::uint64_t total_weight_ = 0;
  std::uint64_t step_max_weight_ = 0;
  std::uint64_t running_max_weight_ = 0;
  std::uint64_t clamped_ = 0;
  std::uint64_t deposited_ = 0;
  std::uint64_t drained_ = 0;
  std::uint64_t rehomed_tasks_ = 0;
  std::uint64_t rehomed_events_ = 0;

  // Work stealing (EngineConfig::steal). dry_ is written by the
  // generate/consume pass (disjoint ranges under the pool, so no races) and
  // consumed serially by apply_steals.
  std::vector<std::uint8_t> dry_;
  std::vector<std::uint32_t> steal_load_;
  std::vector<std::uint8_t> steal_alive_;
  std::vector<StealRecord> steal_log_;
  std::uint64_t stolen_tasks_ = 0;
};

}  // namespace clb::sim
