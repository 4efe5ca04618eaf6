// Distributed implementation of the paper's balancing algorithm.
//
// Where core::ThresholdBalancer executes the protocol as an oracle (one
// pass over global state per phase — the analytical model), this version
// runs it the way a real machine would: per-processor protocol state
// machines exchanging Query / Accept / Forward / Id / Transfer messages
// through a fixed-latency Network. Consequences faithfully modelled:
//
//   * a collision round takes 2 * latency steps (query out, accept back);
//   * rejection is a timeout — an overloaded target answers nothing and
//     requesters re-send after the round trip (Figure 1's "no new random
//     choices" rule applies: the a targets are fixed per request);
//   * a processor accepts at most c queries per *phase* (Lemma 1's
//     assignment property);
//   * task movement itself rides a message, so a transfer lands
//     latency steps after the boss learns of its partner, against the
//     sender's queue as it is then;
//   * a phase completes when every request has resolved and the fabric has
//     drained; the next classification happens `phase_gap` steps later.
//     Phases therefore have *variable* length (the paper's fixed T/16 slots
//     are an analytical device; see Concluding Remarks).
//
// Generation and consumption continue every step while the protocol runs,
// so classification staleness grows with latency — EXP-19 measures exactly
// that effect.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/params.hpp"
#include "dist/network.hpp"
#include "net/topology.hpp"
#include "obs/trace.hpp"
#include "sim/balancer.hpp"
#include "stats/moments.hpp"

namespace clb::dist {

struct DistConfig {
  core::PhaseParams params;
  std::uint32_t a = 5;
  std::uint32_t b = 2;
  std::uint32_t c = 1;
  /// Message latency in steps (>= 1). With `topology` set this is the
  /// per-hop latency and each message takes latency * hops(src, dst) steps.
  std::uint32_t latency = 1;
  /// Optional machine graph (borrowed; must outlive the balancer). Null =
  /// the paper's any-to-any model with uniform latency.
  const net::Topology* topology = nullptr;
  /// Link-model knobs (heterogeneous per-link jitter, bandwidth caps,
  /// loss + retransmit), keyed off the engine seed. Defaults are the exact
  /// uniform/lossless degenerate case.
  net::NetConfig link{};
  /// Idle steps between phase completion and the next classification.
  std::uint64_t phase_gap = 1;
  /// Failsafe phase duration; 0 derives a generous bound from depth, the
  /// Lemma 1 round budget and the latency.
  std::uint64_t max_phase_steps = 0;
  /// Optional event-trace sink (borrowed): phase begin/end plus one event
  /// per Query/Accept/Id actually put on the fabric (sampled under the
  /// sink's sample_every — these are the high-rate kinds).
  obs::TraceSink* trace = nullptr;
};

/// One completed phase, for cross-validation (rt's latency mode must
/// reproduce this record exactly, phase by phase).
struct DistPhaseRecord {
  std::uint64_t phase_index = 0;
  std::uint64_t start_step = 0;
  std::uint64_t end_step = 0;
  std::uint64_t num_heavy = 0;
  std::uint64_t matched = 0;
  std::uint64_t unmatched = 0;
  bool forced = false;
};

struct DistStats {
  std::uint64_t phases = 0;
  std::uint64_t matched = 0;
  std::uint64_t unmatched = 0;
  std::uint64_t failed_requests = 0;
  std::uint64_t forced_phase_ends = 0;
  stats::OnlineMoments phase_duration;   // steps per completed phase
  stats::OnlineMoments heavy_per_phase;
  std::vector<DistPhaseRecord> phase_log;
};

class DistThresholdBalancer final : public sim::Balancer {
 public:
  explicit DistThresholdBalancer(DistConfig cfg);

  [[nodiscard]] std::string name() const override { return "dist-threshold"; }
  void on_step(sim::Engine& engine) override;
  void on_reset(sim::Engine& engine) override;

  [[nodiscard]] const DistStats& stats() const { return stats_; }
  /// The phase begun most recently: its index (from 1; 0 before the first
  /// phase) and start step. It is still running unless the last entry of
  /// stats().phase_log carries its index.
  [[nodiscard]] std::uint64_t phase_index() const { return phase_index_; }
  [[nodiscard]] std::uint64_t phase_start_step() const {
    return phase_start_step_;
  }
  [[nodiscard]] const DistConfig& config() const { return cfg_; }
  [[nodiscard]] const Network& network() const { return *net_; }

 private:
  static constexpr std::uint32_t kMaxA = 8;

  struct Request {
    std::uint32_t targets[kMaxA] = {};
    std::uint32_t root = 0;
    std::uint64_t act_step = 0;  ///< activation step (canonical seq major)
    std::uint64_t await_until = 0;
    std::uint8_t accepted_mask = 0;
    std::uint8_t accept_count = 0;
    std::uint8_t round = 1;
    std::uint8_t level = 1;
    // First b accepted children and their applicative flags.
    std::uint32_t child[2] = {};
    bool child_applicative[2] = {false, false};
    bool active = false;
  };

  void start_phase(sim::Engine& engine);
  void finish_phase(sim::Engine& engine, bool forced);
  void start_request(sim::Engine& engine, std::uint32_t proc,
                     std::uint32_t root, std::uint32_t level);
  void send_pending_queries(sim::Engine& engine, std::uint32_t proc);
  void handle_deliveries(sim::Engine& engine);
  void handle_query_batch(sim::Engine& engine, std::uint32_t target,
                          const Message* msgs, std::size_t count);
  void evaluate_requests(sim::Engine& engine);

  // Stamped per-phase processor state.
  [[nodiscard]] bool light_at_phase_start(std::uint32_t p) const {
    return light_stamp_[p] == epoch_;
  }
  [[nodiscard]] bool assigned(std::uint32_t p) const {
    return assign_stamp_[p] == epoch_;
  }
  void set_assigned(std::uint32_t p) { assign_stamp_[p] = epoch_; }
  [[nodiscard]] bool matched(std::uint32_t root) const {
    return matched_stamp_[root] == epoch_;
  }
  [[nodiscard]] std::uint32_t accepted_count(std::uint32_t p) const {
    return accept_stamp_[p] == epoch_ ? accept_cnt_[p] : 0;
  }
  void add_accepted(std::uint32_t p, std::uint32_t k) {
    if (accept_stamp_[p] != epoch_) {
      accept_stamp_[p] = epoch_;
      accept_cnt_[p] = 0;
    }
    accept_cnt_[p] += k;
  }

  /// Stamps `m.seq` from the current send context and bumps the minor
  /// counter, then puts the message on the fabric.
  void send_seq(Message m, std::uint64_t now);

  DistConfig cfg_;
  std::uint32_t round_budget_ = 0;   // Lemma 1 rounds per level
  std::uint64_t max_phase_steps_ = 0;

  // Canonical send context (see net/delivery.hpp): set before each
  // processing unit, consumed by send_seq.
  net::SendStage seq_stage_ = net::SendStage::kDeliver;
  std::uint64_t seq_major_ = 0;
  std::uint32_t seq_minor_ = 0;

  std::unique_ptr<Network> net_;
  DistStats stats_;

  enum class PhaseState { kIdle, kRunning } phase_state_ = PhaseState::kIdle;
  std::uint64_t phase_index_ = 0;
  std::uint64_t phase_start_step_ = 0;
  std::uint64_t next_phase_step_ = 0;

  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> light_stamp_;
  std::vector<std::uint32_t> assign_stamp_;
  std::vector<std::uint32_t> matched_stamp_;
  std::vector<std::uint32_t> accept_stamp_;
  std::vector<std::uint32_t> accept_cnt_;

  std::vector<Request> req_;
  std::vector<std::uint32_t> active_list_;
  std::vector<std::uint32_t> heavy_;
  std::vector<Message> query_batch_;
};

}  // namespace clb::dist
