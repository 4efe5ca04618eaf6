// rt::ShardKernel — the one copy of the runtime's step schedule. A kernel
// owns one contiguous processor shard and runs sim::Engine::step_once's
// schedule on it; every cross-shard interaction goes through an rt::Comm
// (rt/comm.hpp). rt::Runtime runs one kernel per worker thread over
// InProcComm; transport::ProcessRuntime runs one per forked process over
// transport::SocketComm. Nothing in here knows which.
//
// One step: crash re-home (crash steps only), generate/consume over the own
// shard (identical code path and per-processor Philox streams as the
// engine), the steal pass, then the balancing policy as message exchanges,
// then one closing exchange that doubles as the running-max reduction (no
// model the runtime accepts reads a system load). A shard's part of it comes
// from the (sum, max) summary the sweep leaves per draw block. A queue
// changed later in the step moves its block's sum and raises its max in
// place (touch); only a shrinking queue that held the max marks the block
// dirty, and end_step rescans only the dirty blocks. On a threshold phase
// step (instant fabric) the sweep also classifies every processor from the
// final load it already reads, so the shard is walked once per step; the
// steal pass reclassifies exactly the processors it moved tasks between.
// The phase then publishes the classes in one exchange and runs each
// query-tree level on its roots' shards: three exchanges per collision
// round (queries, accepts, active count), then three more (children, child
// reports to the root, the scan numbering the next level); transfers ride
// the next exchange, the last level's on one closing exchange. Past the
// sweep, a phase costs in proportion to its messages.
//
// Determinism contract: drained batches whose processing order matters
// (child assignment, id matching, scatter arrival, zoo/steal/re-home
// arrivals) are sorted by the message's canonical key before processing.
// Those keys encode protocol positions (global node slots, tree edges
// (g, s)), and the global node numbering and transfer ordinals come from
// prefix scans over the exchanged per-shard counts — replicated on every
// shard, so no shard leads and the order is partition-invariant. A run is
// bit-for-bit reproducible for ANY shard count and either substrate,
// matching sim::Engine with the same seed (verified by test_rt_equivalence
// and the transport shadow check). The measurement knobs (spin_work,
// time_sojourn) add CPU cost and wall-clock stamps without changing any
// protocol output.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "net/delivery.hpp"
#include "net/fabric.hpp"
#include "obs/telemetry.hpp"
#include "rt/comm.hpp"
#include "rt/config.hpp"
#include "rt/result.hpp"
#include "sim/model.hpp"
#include "sim/steal.hpp"

namespace clb::rt {

class ShardKernel {
 public:
  using Clock = std::chrono::steady_clock;

  /// `procs` holds the shard's processors partition.range(comm.self()) in
  /// order and must outlive the kernel, as must cfg, model and comm.
  /// `origin` is the run's shared clock origin: every birth/consume stamp
  /// of time_sojourn is taken against it, on every shard. Telemetry
  /// follows cfg.telemetry (the process transport refuses it).
  ShardKernel(const RtConfig& cfg, sim::LoadModel* model, Comm& comm,
              std::span<RtProcessor> procs, Clock::time_point origin);

  /// Executes runtime step `step`; every shard calls it with the same step.
  void step(std::uint64_t step);
  /// Appends a task to owned processor p (between steps).
  void deposit(std::uint32_t p, sim::Task t);

  /// Flushes the link-model counters into outputs() (between runs).
  void sync_outputs();
  [[nodiscard]] const ShardOutputs& outputs() const { return out_; }
  /// Empties the append-only parts of outputs() (ledger, dropped log, both
  /// sojourn histograms, the completed phases) once the caller has merged
  /// them, so they are never held twice (between runs; see
  /// Runtime::result). An open latency phase stays until it completes.
  void release_logs();
  [[nodiscard]] const obs::WorkerTelemetry& telemetry() const {
    return telem_;
  }
  /// The copy published at the last snapshot step, and the shard load then
  /// (only with telemetry_interval set).
  [[nodiscard]] const obs::WorkerTelemetry& snapshot() const { return *snap_; }
  [[nodiscard]] std::uint64_t snapshot_load() const { return snap_load_; }
  /// Called on shard 0 at every telemetry_interval step, between two
  /// exchanges, while every shard's snapshot() is stable.
  std::function<void(std::uint64_t step)> on_snapshot;

 private:
  /// One query-tree node of processor `proc`, hosted at owner(root) like its
  /// whole tree. `slot` is its global index at its level (dense over the
  /// level, ascending and contiguous in nodes_), which keys the collision
  /// game's target draws exactly like the simulator's requesters vector
  /// index.
  struct Node {
    std::uint64_t slot = 0;
    std::uint32_t proc = 0;
    std::uint32_t root = 0;
    std::uint32_t targets[16] = {};  // a <= 16: the key packs j in 4 bits
    std::uint32_t accepted_mask = 0;
    std::uint32_t accept_count = 0;
    std::uint32_t round_replies = 0;
    bool active = false;
    std::uint8_t status_nonapp = 0;
    std::uint32_t accepted[16] = {};  // [0, accept_count): round, then j
  };

  /// The threshold protocol's per-processor flags, stamped with lockstep
  /// epochs so phases need no clears. Held in stamps_, not RtProcessor, so
  /// the policies that never read them do not carry them through every
  /// generate/consume sweep. The light-at-phase-start flag is not here: it
  /// is the light_bits_ bitset, which the classifying sweep overwrites
  /// block by block. One cache line each: the collision rounds touch one
  /// processor's stamps per query, and a 56-byte stride would put half of
  /// those accesses on two lines.
  struct alignas(64) Stamps {
    std::uint64_t assigned_epoch = 0;  ///< reserved by an id message
    std::uint64_t matched_epoch = 0;   ///< (roots) matched this phase
    std::uint64_t accept_epoch = 0;    ///< collision: accepted_total validity
    std::uint64_t incoming_epoch = 0;  ///< collision: incoming validity
    std::uint64_t decide_epoch = 0;    ///< collision: round decision validity
    std::uint32_t accepted_total = 0;
    std::uint32_t incoming = 0;
    bool accepts_round = false;
  };

  /// One draw block's load summary: the sum and max queue length of its
  /// kDrawBlock processors (kernel.cpp), dead ones included. The
  /// generate/consume sweep writes it from the final loads it already
  /// reads. A later queue change that step keeps it exact through touch:
  /// the sum moves by the change and a growing queue raises the max; only
  /// a shrinking queue that held the max marks it dirty, and end_step
  /// rescans only dirty blocks.
  struct BlockLoad {
    std::uint64_t sum = 0;
    std::uint64_t max = 0;
    bool dirty = false;
  };

  /// The threshold balancer's heavy/light rule on one load.
  enum class LoadClass : std::uint8_t { kMiddle, kHeavy, kLight };

  /// A forwarding parent's contribution to the next level; the replicated
  /// scan assigns `base` = the global slot of child s=0.
  struct ScanEntry {
    std::uint64_t g = 0;  // parent slot
    std::uint64_t base = 0;
    std::uint32_t root = 0;
    std::uint32_t count = 0;  // 1 or 2
    std::uint32_t child[2] = {};
  };
  struct Staged {
    std::uint32_t from = 0;
    std::uint32_t to = 0;
  };
  /// Mirrors dist::DistThresholdBalancer::Request field for field.
  struct LatReq {
    std::uint32_t targets[8] = {};
    std::uint32_t root = 0;
    std::uint64_t act_step = 0;
    std::uint64_t await_until = 0;
    std::uint8_t accepted_mask = 0;
    std::uint8_t accept_count = 0;
    std::uint8_t round = 1;
    std::uint8_t level = 1;
    std::uint32_t child[2] = {};
    bool child_applicative[2] = {false, false};
    bool active = false;
  };

  [[nodiscard]] RtProcessor& proc(std::uint64_t p) {
    return procs_[p - begin_];
  }
  [[nodiscard]] Stamps& stamps(std::uint64_t p) {
    return stamps_[p - begin_];
  }
  [[nodiscard]] bool owns(std::uint64_t p) const {
    return p >= begin_ && p < end_;
  }
  /// Keeps owned processor p's block summary exact after p's queue went
  /// from `old_load` to its current length, past this step's sweep.
  void touch(std::uint64_t p, std::uint64_t old_load);
  [[nodiscard]] LoadClass load_class(std::uint64_t load) const {
    if (load >= cfg_.params.heavy_threshold) return LoadClass::kHeavy;
    if (load <= cfg_.params.light_threshold) return LoadClass::kLight;
    return LoadClass::kMiddle;
  }
  [[nodiscard]] bool light(std::uint64_t p) const {
    const std::uint64_t i = p - begin_;
    return ((light_bits_[i >> 6] >> (i & 63)) & 1) != 0;
  }
  [[nodiscard]] std::uint32_t now_us() const;

  /// Books the time since the previous lap into stage `s` (telemetry on).
  void lap(obs::Stage s);

  // Substrate seam, with telemetry booking (sends go to comm_ directly).
  Comm::Blobs exchange(std::span<const std::uint64_t> blob);
  /// Drains into batch_; kTransfer payloads are applied on arrival unless
  /// `keep_transfers` (order-sensitive arrivals are sorted by the caller).
  void drain(bool keep_transfers = false);
  void apply_transfer(const Msg& m);
  /// Applies the drained kTransfer batch in ascending-sender order.
  void apply_sorted_transfers();

  void process_crashes(std::uint64_t step);
  /// The sweep. On an instant-fabric threshold `phase_step` it also
  /// classifies every processor by its final load.
  void generate_consume(std::uint64_t step, bool phase_step);
  /// On a `phase_step` the sweep classified, so the steals' endpoints are
  /// reclassified.
  void run_steal(std::uint64_t step, bool phase_step);
  void run_phase(std::uint64_t step);
  std::uint64_t run_level(std::uint64_t step, std::uint64_t phase_index,
                          std::uint32_t level, std::uint64_t node_count);
  std::uint64_t run_scatter(std::uint64_t step);  // tasks scattered
  void run_zoo(std::uint64_t step);
  void end_step(std::uint64_t step, bool phase_step, std::uint64_t scattered);

  void send_transfer(std::uint64_t step, std::uint32_t root,
                     std::uint32_t partner, std::uint64_t ordinal,
                     std::uint64_t count);
  void apply_staged_transfers(std::uint64_t step, std::uint64_t base,
                              std::uint64_t total);
  /// Applies load_class to owned processor p at `load`: appends a heavy
  /// to heavy_local_, or sets a light's (clear) bit and counts it. Forced
  /// inline: the sweep runs it for every processor, and left to itself gcc
  /// inlines either this or the steal offer there, never both.
  [[gnu::always_inline]] void classify(std::uint64_t p, std::uint64_t load) {
    const LoadClass cls = load_class(load);
    if (cls == LoadClass::kHeavy) {
      heavy_local_.push_back(static_cast<std::uint32_t>(p));
    } else if (cls == LoadClass::kLight) {
      light_bits_[(p - begin_) >> 6] |= 1ULL << ((p - begin_) & 63);
      ++light_count_;
    }
  }
  /// Classifies own processors in a pass of its own (the latency
  /// protocol's phase start).
  void classify_shard();
  /// Re-applies load_class to owned processor p after a steal moved its
  /// load past the sweep's classification.
  void reclassify(std::uint64_t p);

  // Latency fabric (RtConfig::latency >= 1).
  void run_lat_protocol(std::uint64_t step);
  void lat_send(std::uint64_t step, Envelope e);
  void lat_start_request(std::uint64_t step, std::uint32_t proc,
                         std::uint32_t root, std::uint32_t level);
  void lat_send_pending_queries(std::uint64_t step, std::uint32_t proc);
  void lat_process_due(std::uint64_t step);
  void lat_evaluate(std::uint64_t step);

  const RtConfig& cfg_;
  sim::LoadModel* model_;
  Comm& comm_;
  const unsigned index_;
  const unsigned shards_;
  const std::uint64_t begin_, end_;
  std::span<RtProcessor> procs_;
  const Clock::time_point origin_;
  const bool telemetry_;

  std::uint64_t air_interval_ = 1;
  core::LivenessSchedule liveness_;

  // Lockstep state — every shard advances these at the same points of the
  // schedule, so a stamp comparison means the same thing anywhere.
  std::uint64_t phase_epoch_ = 0, level_epoch_ = 0, round_epoch_ = 0;
  std::uint64_t phase_count_ = 0;
  std::uint64_t ph_requests_ = 0;
  std::uint32_t ph_levels_ = 0, ph_rounds_ = 0;
  std::uint64_t phase_matched_ = 0;
  std::uint64_t transfer_seen_ = 0;  // replicated global transfer count
  std::vector<Stamps> stamps_;  // own shard, index p - begin_; kThreshold only
  // Light at phase start, bit p - begin_ (kThreshold only). Valid for the
  // current phase: the classifying sweep or classify_shard() writes every
  // word.
  std::vector<std::uint64_t> light_bits_;
  std::uint64_t light_count_ = 0;  // own lights of the current phase
  std::vector<BlockLoad> block_load_;  // own shard's draw blocks, in order
  std::uint64_t shard_load_ = 0;  // own load at the last end_step (snapshots)

  // Scratch.
  Batch batch_;
  std::vector<RtTask> send_tasks_;  // payload of the message being sent
  std::vector<std::uint64_t> blob_;
  std::vector<Node> nodes_;
  std::vector<std::uint32_t> heavy_local_;  // own heavies, ascending
  std::vector<ScanEntry> scan_;
  std::vector<std::size_t> merge_pos_;  // run_level's per-shard merge cursor
  std::vector<Staged> staged_;
  std::vector<std::uint32_t> phase_heavy_all_;  // shard 0: phase summary
  std::uint64_t phase_light_total_ = 0;

  // Workload zoo: full boards assembled from the exchanged shard boards.
  std::vector<std::uint32_t> board_, stale_board_;
  std::vector<std::uint8_t> alive_board_;
  sim::StealCandidates steal_;

  // Latency fabric: this shard's slice of the unified substrate — the
  // messages routed to it and the link-model state of the links its
  // processors send on (every link (src, *) is planned by owner(src), in
  // protocol order, so the sharded link clocks replay the serial fabric's).
  std::optional<net::DeliveryPolicy> lat_policy_;
  std::uint32_t round_budget_ = 0;
  std::uint64_t max_phase_steps_ = 0;
  std::vector<LatReq> req_;  // own shard, index p - begin_
  net::Fabric<Envelope> fabric_;
  net::LinkModel links_;
  std::vector<Envelope> due_batch_;
  std::vector<const Envelope*> query_batch_;
  std::vector<std::uint32_t> lat_active_;  // own procs with live requests
  bool lat_running_ = false;
  std::uint64_t lat_phase_index_ = 0;
  std::uint64_t lat_phase_start_ = 0;
  std::uint64_t lat_next_phase_ = 0;
  std::uint64_t lat_failed_ = 0;
  std::uint64_t skew_ordinal_ = 0;  // delay-skew: own sends so far
  net::SendStage seq_stage_ = net::SendStage::kDeliver;
  std::uint64_t seq_major_ = 0;
  std::uint32_t seq_minor_ = 0;

  // Telemetry (single-writer).
  obs::WorkerTelemetry telem_;
  std::unique_ptr<obs::WorkerTelemetry> snap_;  // with telemetry_interval
  std::uint64_t snap_load_ = 0;
  std::uint64_t step_stall_ns_ = 0;
  std::uint64_t lap_stall_ns_ = 0;  // exchange wait since the last lap
  std::uint64_t cur_step_ = 0;
  Clock::time_point lap_t0_{};  // end of the last booked stage

  ShardOutputs out_;
};

}  // namespace clb::rt
