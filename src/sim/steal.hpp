// Deterministic work stealing: the pure decision rule shared by the serial
// engine and the concurrent runtime (the same engine<->rt sharing discipline
// as baselines::stale_sq_decisions / local_search_decisions).
//
// A processor is "dry" when its consume budget outlived its queue inside the
// current step — it had cycles to burn and nothing to run. Stealing pairs
// each dry processor with a canonically-ordered victim (most-loaded alive
// processor, ties broken by ascending id) and moves a small batch from the
// back of the victim's FIFO, exactly like a balancer transfer. The rule is a
// function of (loads, dry flags, liveness) only — never of worker count,
// arrival order, or wall clock — so a runtime shard can replicate it from
// sealed boards and stay bit-identical to the engine for any partition.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace clb::sim {

struct Transfer;  // sim/engine.hpp

/// Knobs for the steal pass (RtConfig::steal / EngineConfig::steal).
struct StealConfig {
  /// Master switch; default off so every existing lockstep tier is
  /// untouched byte-for-byte.
  bool enabled = false;
  /// Victims must hold at least this many tasks (stealing a 1-task queue
  /// just moves the imbalance). Must be >= 2 so count >= 1 below.
  std::uint32_t min_victim_load = 4;
  /// At most this many thief/victim pairs per step.
  std::uint32_t max_steals_per_step = 8;
  /// Per-steal batch cap; the actual count is min(max_batch, load/2).
  std::uint32_t max_batch = 4;
};

/// One scan's steal candidates, built incrementally in ascending processor
/// order: the first max_steals_per_step dry processors (thieves) and the
/// top max_steals_per_step processors with load >= min_victim_load
/// (victims; descending load, ascending id on ties). The global decision
/// only ever needs these from each contiguous shard, so a sharded runtime
/// exchanges O(shards * max_steals_per_step) values per step instead of
/// n-sized boards, and steal_merge() reproduces steal_decisions exactly.
class StealCandidates {
 public:
  void reset(const StealConfig& cfg) {
    cap_ = cfg.max_steals_per_step;
    min_victim_load_ = cfg.min_victim_load;
    thieves_.clear();
    victims_.clear();
  }

  /// Offers alive processor p (dead processors are never offered).
  void offer(std::uint32_t p, std::uint32_t load, bool dry) {
    if (dry && thieves_.size() < cap_) thieves_.push_back(p);
    if (load < min_victim_load_) return;
    // Ascending p makes "id ascending" the natural tie-break: an equal load
    // never displaces an earlier candidate.
    std::size_t i = victims_.size();
    while (i > 0 && victims_[i - 1].load < load) --i;
    if (i >= cap_) return;
    victims_.insert(victims_.begin() + static_cast<std::ptrdiff_t>(i),
                    Victim{p, load});
    if (victims_.size() > cap_) victims_.pop_back();
  }

  /// Appends the exchange blob: [thieves, thief ids..., victim
  /// (load << 32 | id) ...].
  void encode(std::vector<std::uint64_t>& out) const;

 private:
  struct Victim {
    std::uint32_t id;
    std::uint32_t load;
  };
  std::size_t cap_ = 0;
  std::uint32_t min_victim_load_ = 0;
  std::vector<std::uint32_t> thieves_;
  std::vector<Victim> victims_;
};

/// Merges the encoded candidates of contiguous shards, in ascending shard
/// order, into the decision list: thieves are the first max_steals_per_step
/// dry alive processors, victims the top-loaded ones, paired one-to-one by
/// rank. Returned transfers are sorted ascending by sender with at most one
/// per sender, no sender that is also a receiver (a dry processor has load
/// 0 and can never qualify as a victim), and counts <= load[from] / 2 — so
/// engine-side application never clamps and rt-side send-time pops see
/// exactly the loads the decision assumed, independent of application
/// order.
[[nodiscard]] std::vector<Transfer> steal_merge(
    std::span<const std::vector<std::uint64_t>> shard_blobs,
    const StealConfig& cfg);

/// The pure rule over full boards: one shard's candidates, merged.
[[nodiscard]] std::vector<Transfer> steal_decisions(
    std::uint64_t n, const std::vector<std::uint32_t>& load,
    const std::vector<std::uint8_t>& dry, const std::vector<std::uint8_t>& alive,
    const StealConfig& cfg);

}  // namespace clb::sim
