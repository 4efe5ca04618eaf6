// rt::Comm — the narrow seam between the shard kernel (rt/kernel.hpp) and
// the substrate that carries its messages and reductions.
//
//   send(dest_proc, m, tasks)  queue m, with `tasks` as its payload, for the
//                              shard that owns dest_proc
//   send(dest_proc, env)       the same for a latency-mode envelope
//   drain(out)                 append to `out` every message sent to this
//                              shard before this shard's last exchange() and
//                              not drained yet, payload spans rebased onto
//                              out.tasks
//   exchange(blob)             superstep barrier + allgather: every shard
//                              passes its reduction blob and gets back a view
//                              of all shards' blobs in shard order, valid
//                              until its next exchange()
//
// The contract — a drain sees exactly the messages sent before the last
// exchange — is what lets one kernel run on threads and on processes: the
// kernel never needs a fence between a drain and the sends that follow it.
// Arrival order is the substrate's; the kernel sorts wherever order
// matters. Two implementations exist: InProcComm below (per-destination
// Batch outboxes double-buffered by superstep parity behind a
// PhaseBarrier) and transport::SocketComm (one kBatch frame per peer per
// exchange, carrying the blob and the messages; the exchange ends once
// every peer's frame is in).
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "rt/message.hpp"
#include "util/thread_pool.hpp"

namespace clb::rt {

/// The contiguous block partition of n processors over `shards`
/// (util::block_range layout: shard order = ascending processor order).
/// Every shard layout in the runtime and the transport comes from here.
class Partition {
 public:
  Partition(std::uint64_t n, unsigned shards)
      : n_(n),
        shards_(shards),
        chunk_(n / shards),
        extra_(n % shards),
        split_(extra_ * (chunk_ + 1)) {}

  [[nodiscard]] std::uint64_t n() const { return n_; }
  [[nodiscard]] unsigned shards() const { return shards_; }
  [[nodiscard]] unsigned owner_of(std::uint64_t p) const {
    if (p < split_) return static_cast<unsigned>(p / (chunk_ + 1));
    return static_cast<unsigned>(extra_ + (p - split_) / chunk_);
  }
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> range(
      unsigned shard) const {
    return util::block_range(n_, shards_, shard);
  }

 private:
  std::uint64_t n_;
  unsigned shards_;
  std::uint64_t chunk_, extra_, split_;
};

class Comm {
 public:
  using Blobs = std::span<const std::vector<std::uint64_t>>;

  Comm(const Partition& part, unsigned self) : part_(part), self_(self) {}
  virtual ~Comm() = default;
  Comm(const Comm&) = delete;
  Comm& operator=(const Comm&) = delete;

  void send(std::uint32_t dest_proc, const Msg& m,
            std::span<const RtTask> tasks = {}) {
    post(route(dest_proc), m, tasks);
  }
  void send(std::uint32_t dest_proc, const Envelope& e) {
    post(route(dest_proc), e);
  }
  virtual void drain(Batch& out) = 0;
  virtual Blobs exchange(std::span<const std::uint64_t> blob) = 0;

  [[nodiscard]] const Partition& partition() const { return part_; }
  [[nodiscard]] unsigned self() const { return self_; }
  /// Messages addressed to this shard's own processors vs another shard's.
  [[nodiscard]] std::uint64_t self_pushes() const { return self_pushes_; }
  [[nodiscard]] std::uint64_t remote_pushes() const { return remote_pushes_; }

 protected:
  virtual void post(unsigned dest_shard, const Msg& m,
                    std::span<const RtTask> tasks) = 0;
  virtual void post(unsigned dest_shard, const Envelope& e) = 0;

  const Partition part_;
  const unsigned self_;

 private:
  unsigned route(std::uint32_t dest_proc) {
    const unsigned dest = part_.owner_of(dest_proc);
    ++(dest == self_ ? self_pushes_ : remote_pushes_);
    return dest;
  }

  std::uint64_t self_pushes_ = 0;
  std::uint64_t remote_pushes_ = 0;
};

/// Shared state of one in-proc run: outboxes[parity][src][dst] and blob
/// slots[parity][shard], flipped by superstep parity. A sender in epoch e
/// (e exchanges done) writes parity e & 1; the receiver drains that parity
/// after exchange e + 1. Nobody can reach epoch e + 2 — and write the same
/// parity again — before every shard has arrived at exchange e + 2, which
/// each does only after draining (or stashing) what it was owed. So the
/// outboxes need no locks and messages need no per-message allocation: a
/// record is copied into a reused Batch and out of it once.
class InProcFabric {
 public:
  explicit InProcFabric(unsigned shards)
      : barrier_(shards),
        boxes_{Boxes(shards, std::vector<Batch>(shards)),
               Boxes(shards, std::vector<Batch>(shards))},
        slots_{Slots(shards), Slots(shards)} {}

  util::PhaseBarrier& barrier() { return barrier_; }

 private:
  friend class InProcComm;
  using Boxes = std::vector<std::vector<Batch>>;
  using Slots = std::vector<std::vector<std::uint64_t>>;

  util::PhaseBarrier barrier_;
  Boxes boxes_[2];
  Slots slots_[2];
};

/// Drains return each lane in (epoch, source shard, send) order: messages
/// left undrained across an exchange come first, from the stash.
class InProcComm final : public Comm {
 public:
  InProcComm(const Partition& part, unsigned self, InProcFabric& fabric)
      : Comm(part, self), fab_(fabric) {}

  void drain(Batch& out) override {
    out.append(stash_);
    if (!owed_) return;
    take(out);
    owed_ = false;
  }

  Blobs exchange(std::span<const std::uint64_t> blob) override {
    // Undrained messages of the previous epoch would be overwritten by the
    // senders of the next one; move them out while they are still sealed.
    if (owed_) take(stash_);
    auto& slots = fab_.slots_[parity_];
    slots[self_].assign(blob.begin(), blob.end());
    fab_.barrier_.arrive_and_wait();
    parity_ ^= 1;
    owed_ = true;
    return slots;
  }

 protected:
  void post(unsigned dest_shard, const Msg& m,
            std::span<const RtTask> tasks) override {
    fab_.boxes_[parity_][self_][dest_shard].push(m, tasks);
  }
  void post(unsigned dest_shard, const Envelope& e) override {
    fab_.boxes_[parity_][self_][dest_shard].envs.push_back(e);
  }

 private:
  /// Moves every message addressed to this shard in the sealed parity.
  void take(Batch& out) {
    for (auto& from : fab_.boxes_[parity_ ^ 1]) out.append(from[self_]);
  }

  InProcFabric& fab_;
  unsigned parity_ = 0;
  bool owed_ = false;  // the sealed parity still holds undrained messages
  Batch stash_;
};

}  // namespace clb::rt
