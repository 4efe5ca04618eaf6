// The one message substrate: a delay-queue fabric of future-step rings,
// plus the link model that decides *when* a send is deliverable under
// heterogeneous latency, per-link bandwidth caps, and loss + retransmit.
//
// Until PR 7 the repo carried two independent implementations of "messages
// take time": dist::Network's private ring buffer (serial) and
// rt::Runtime's per-worker delay queues (concurrent), kept bit-identical
// only by the shared DeliveryPolicy/SeqKey discipline. Fabric<M> is that
// mechanism extracted once: dist::Network is now a thin adapter over a
// single Fabric<dist::Message>, and every rt shard kernel owns a
// Fabric<rt::Envelope> over its shard — serial execution is literally the
// 1-worker degenerate case of the same code.
//
// Determinism contract (what makes the lockstep tiers possible):
//   * file(now, due, m) with due strictly in the future — a message can
//     never mature in the step that sent it (CLB_DCHECK'd; a zero
//     effective latency would silently break replay).
//   * take_due(now) returns exactly the messages due at `now`, in filing
//     order; callers impose the canonical (group, SeqKey) order with
//     sort_due_batch so the batch order is worker-count invariant.
//   * LinkModel state is keyed by the ordered pair (src, dst) and every
//     message on a link is planned by the link's owner in protocol order,
//     so the per-link wire clocks and loss draws evolve identically in the
//     serial fabric and in any sharding of the concurrent one.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/delivery.hpp"
#include "rng/splitmix64.hpp"
#include "util/check.hpp"

namespace clb::net {

/// Salt for the per-link loss / ack-loss streams.
inline constexpr std::uint64_t kLinkLossSalt = 0x6C6E6B6C6F7373ULL;  // "lnkloss"

/// Link-model knobs shared by every fabric. All defaults are the exact
/// degenerate case (uniform latency, infinite bandwidth, lossless wire) in
/// which the fabric behaves bit-for-bit like the pre-PR-7 substrates.
struct NetConfig {
  /// Heterogeneous links: extra per-(src,dst) delay in [0, jitter], drawn
  /// deterministically from the run seed (see DeliveryPolicy). 0 = uniform.
  std::uint32_t jitter = 0;
  /// Per-link bandwidth cap in messages per step; over-budget sends queue
  /// FIFO behind the wire and their delivery step reflects the queueing
  /// delay. 0 = unlimited.
  std::uint32_t bandwidth = 0;
  /// i.i.d. per-transmission loss probability, as a numerator over 65536.
  /// Lost transmissions are retransmitted by the sender after `rto` steps,
  /// carrying a duplicate-suppression sequence number; the final attempt
  /// always goes through, so loss shows up as deterministic extra latency
  /// and the conservation oracle stays exact. 0 = lossless.
  std::uint32_t loss_per_64k = 0;
  /// Retransmission timeout in steps. 0 derives 2 * max_delay (a full
  /// round trip, so an ack for a delivered attempt always beats the next
  /// timeout and at most one duplicate per message can reach the wire).
  std::uint32_t rto = 0;
  /// Transmissions per message, counting the first (>= 1, <= 16).
  std::uint32_t max_attempts = 4;

  [[nodiscard]] bool lossy() const { return loss_per_64k > 0; }
  [[nodiscard]] bool shaped() const {
    return jitter != 0 || bandwidth != 0 || loss_per_64k != 0;
  }
};

/// What LinkModel::plan decided for one send.
struct SendPlan {
  std::uint64_t due = 0;      ///< step the (single surviving) copy matures
  std::uint32_t attempts = 1; ///< transmissions (attempts - 1 retransmits)
  /// True when the delivered attempt's ack was lost: the sender's timeout
  /// fires anyway, a duplicate reaches the receiver at `dup_due` and is
  /// suppressed by its sequence number. The clean fabrics only count it
  /// (dup_suppressed); the dup-delivery mutation applies it instead.
  bool dup = false;
  std::uint64_t dup_due = 0;
};

/// Per-link wire state: FIFO bandwidth clocks and the loss / retransmit
/// schedule. Pure counter-hash randomness — a plan is a deterministic
/// function of (seed, src, dst, per-link sequence number), so any sharding
/// of the links across workers replays the serial fabric exactly.
class LinkModel {
 public:
  LinkModel() = default;

  /// `max_delay` is DeliveryPolicy::max_delay() (jitter included); it sizes
  /// the default rto. Must be called before plan() on a shaped config.
  void configure(const NetConfig& cfg, std::uint64_t run_seed,
                 std::uint64_t max_delay);

  [[nodiscard]] bool active() const { return cfg_.shaped(); }
  [[nodiscard]] const NetConfig& config() const { return cfg_; }
  [[nodiscard]] std::uint64_t rto() const { return rto_; }

  /// Worst-case delay a send can accrue beyond the wire (retransmits only;
  /// queueing is unbounded and excluded on purpose — the failsafe already
  /// fires on genuinely wedged phases). Feeds phase_failsafe.
  [[nodiscard]] std::uint64_t worst_extra() const {
    return cfg_.lossy() ? (cfg_.max_attempts - 1) * rto_ : 0;
  }

  /// Plans one send on link (from, to) issued at `now` whose wire transit
  /// takes `wire_delay` steps. Advances the link's clock and sequence.
  SendPlan plan(std::uint32_t from, std::uint32_t to, std::uint64_t now,
                std::uint64_t wire_delay);

  /// Mutation hook (link-loss-no-retransmit): draws the next loss decision
  /// on the link and reports whether the first attempt would have been
  /// lost. Consumes one link sequence number.
  bool mutation_lose_first_attempt(std::uint32_t from, std::uint32_t to);

  /// Forgets all wire backlog and link sequences. Both fabrics call this
  /// on a forced phase end, mirroring the message discard: a forced end
  /// abandons the wire, it does not replay it.
  void reset() { links_.clear(); }

  /// Cumulative stats (survive reset, like the fabric's send counters).
  [[nodiscard]] std::uint64_t retransmits() const { return retransmits_; }
  [[nodiscard]] std::uint64_t dup_suppressed() const { return dup_suppressed_; }
  [[nodiscard]] std::uint64_t queued_delay() const { return queued_delay_; }

 private:
  struct LinkState {
    std::uint64_t next_slot = 0;  ///< next free micro-slot (bandwidth)
    std::uint64_t seq = 0;        ///< duplicate-suppression sequence
  };

  LinkState& state(std::uint32_t from, std::uint32_t to) {
    return links_[(static_cast<std::uint64_t>(from) << 32) | to];
  }
  [[nodiscard]] bool lost(std::uint32_t from, std::uint32_t to,
                          std::uint64_t seq, std::uint32_t attempt) const;
  [[nodiscard]] bool ack_lost(std::uint32_t from, std::uint32_t to,
                              std::uint64_t seq) const;

  NetConfig cfg_{};
  std::uint64_t key_ = 0;  ///< hash(kLinkLossSalt, run_seed)
  std::uint64_t rto_ = 1;
  std::unordered_map<std::uint64_t, LinkState> links_;
  std::uint64_t retransmits_ = 0;
  std::uint64_t dup_suppressed_ = 0;
  std::uint64_t queued_delay_ = 0;
};

/// The delay queue itself: a ring of future-step buckets covering dues
/// within `horizon` steps of now, spilling farther dues (bandwidth backlog,
/// retransmit schedules) into an ordered overflow map. Messages are moved,
/// never copied twice; ownership semantics are whatever M's are (dist files
/// Message values, rt files heap Message pointers).
template <typename M>
class Fabric {
 public:
  Fabric() { init(1); }
  explicit Fabric(std::uint64_t horizon) { init(horizon); }

  /// (Re)sizes the ring. Only legal while nothing is in flight.
  void init(std::uint64_t horizon) {
    CLB_CHECK(pending() == 0, "cannot resize a fabric with messages in flight");
    horizon_ = horizon < 1 ? 1 : horizon;
    rings_.assign(horizon_ + 1, {});
  }

  /// Files `m`, sent at `now`, for delivery at `due`. The strict
  /// inequality is the deterministic-replay guarantee: a zero (or negative
  /// effective) latency would deliver in-step, in an order that depends on
  /// where the send happened inside the step.
  void file(std::uint64_t now, std::uint64_t due, M m) {
    CLB_DCHECK(due > now, "fabric message filed with due step <= now");
    ++filed_;
    if (due - now <= horizon_) {
      rings_[due % rings_.size()].push_back(std::move(m));
    } else {
      far_[due].push_back(std::move(m));
    }
  }

  /// Appends every message due at `now` to `out`, in filing order.
  void take_due(std::uint64_t now, std::vector<M>& out) {
    auto& slot = rings_[now % rings_.size()];
    matured_ += slot.size();
    out.insert(out.end(), std::make_move_iterator(slot.begin()),
               std::make_move_iterator(slot.end()));
    slot.clear();
    while (!far_.empty() && far_.begin()->first <= now) {
      auto& batch = far_.begin()->second;
      matured_ += batch.size();
      out.insert(out.end(), std::make_move_iterator(batch.begin()),
                 std::make_move_iterator(batch.end()));
      far_.erase(far_.begin());
    }
  }

  /// Drops everything still in flight, invoking `fn(M&)` on each message
  /// first (rt uses this to delete heap messages and book the discard).
  template <typename Fn>
  void discard_pending(Fn&& fn) {
    for (auto& slot : rings_) {
      for (M& m : slot) fn(m);
      discarded_ += slot.size();
      slot.clear();
    }
    for (auto& [due, batch] : far_) {
      for (M& m : batch) fn(m);
      discarded_ += batch.size();
    }
    far_.clear();
  }

  [[nodiscard]] std::uint64_t filed() const { return filed_; }
  [[nodiscard]] std::uint64_t matured() const { return matured_; }
  [[nodiscard]] std::uint64_t discarded() const { return discarded_; }
  [[nodiscard]] std::uint64_t pending() const {
    return filed_ - matured_ - discarded_;
  }
  [[nodiscard]] bool empty() const { return pending() == 0; }
  [[nodiscard]] std::uint64_t horizon() const { return horizon_; }

 private:
  std::uint64_t horizon_ = 1;
  std::vector<std::vector<M>> rings_;
  std::map<std::uint64_t, std::vector<M>> far_;
  std::uint64_t filed_ = 0;
  std::uint64_t matured_ = 0;
  std::uint64_t discarded_ = 0;
};

/// Canonical due-batch order, shared by both fabrics: messages are grouped
/// by the processing unit that handles them (the recipient, or the source
/// for staged transfer commands) and ordered by SeqKey within the group.
/// The sort is stable, so messages without a seq stamp keep their send
/// order.
template <typename M, typename GroupFn, typename SeqFn>
void sort_due_batch(std::vector<M>& batch, GroupFn&& group_of,
                    SeqFn&& seq_of) {
  std::stable_sort(batch.begin(), batch.end(), [&](const M& x, const M& y) {
    const auto gx = group_of(x);
    const auto gy = group_of(y);
    if (gx != gy) return gx < gy;
    return seq_of(x) < seq_of(y);
  });
}

/// The forced-end failsafe both balancers derive when max_phase_steps is
/// left at 0: a generous multiple of the worst-case phase length (tree
/// descent, collision retries, a round trip per round, plus the link
/// model's worst-case retransmit delay), so it only fires on a genuinely
/// wedged phase. Computed here so the two fabrics can never disagree.
[[nodiscard]] std::uint64_t phase_failsafe(std::uint64_t tree_depth,
                                           std::uint64_t round_budget,
                                           std::uint64_t max_delay,
                                           std::uint64_t worst_extra);

}  // namespace clb::net
