// The per-process shard engine: one worker process's half of the
// cross-process runtime. It runs the same rt::ShardKernel an rt::Runtime
// worker thread runs (rt/kernel.hpp); all it adds is the rt::Comm that
// carries the kernel's messages and reductions across real sockets:
//
//   * messages to another shard accumulate into one per-peer batch, flushed
//     as a single kBatch frame at every exchange (per-link FIFO order means
//     a drain that has consumed k batches from a peer has seen every
//     message that peer sent before its k-th exchange — exactly the Comm
//     contract);
//   * every exchange is an explicit control-plane round trip with the
//     coordinator: kBarrier carries this shard's reduction blob, kRelease
//     returns all shards' blobs.
//
// Plus the control loop: the kConfig handshake, kRun/kDeposit/kCollect and
// kShutdown (serve), and shipping the end-of-run state (collect).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "obs/wire.hpp"
#include "rt/comm.hpp"
#include "rt/config.hpp"
#include "rt/kernel.hpp"
#include "transport/endpoint.hpp"
#include "transport/wire.hpp"

namespace clb::transport {

/// The wire form of the run configuration, distributed by the coordinator
/// in the kConfig handshake frame: every rt::RtConfig field that can cross
/// a process boundary (the borrowed trace/topology pointers and the
/// telemetry knobs cannot), plus the worker's own identity.
struct ShardRunConfig : rt::RtConfig {
  std::uint32_t index = 0;  ///< this worker's shard index
  ModelSpec model{};
  /// The coordinator's steady_clock reading at construction, in ns since
  /// the clock's epoch. Every shard stamps time_sojourn against it: the
  /// clock (CLOCK_MONOTONIC) is shared across fork, so a task's birth and
  /// consume stamps are comparable on any shard.
  std::int64_t clock_origin_ns = 0;

  void serialize(Writer& w) const;
  [[nodiscard]] static ShardRunConfig deserialize(Reader& r);
};

/// A worker's end-of-run state, shipped to the coordinator on kCollect.
/// Histograms travel as sparse (value, count) pairs.
struct ShardState : rt::ShardOutputs {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  std::vector<rt::RtProcessor> procs;  ///< [begin, end): queues and counters
  obs::WireStats wire;

  void serialize(Writer& w) const;
  [[nodiscard]] static ShardState deserialize(Reader& r);
};

/// Entry point for a forked shard worker: performs the kConfig handshake on
/// `control`, builds the engine, acks, and serves coordinator commands
/// (kRun / kDeposit / kCollect) until kShutdown. `peers[i]` is the data
/// link to worker i (invalid at this worker's own index). Never returns
/// normally — the caller _exit()s after it does.
void shard_worker_main(Endpoint control, std::vector<Endpoint> peers);

/// rt::Comm over sockets: per-peer kBatch frames on the data links, the
/// kBarrier/kRelease allgather on the control link.
class SocketComm final : public rt::Comm {
 public:
  SocketComm(const ShardRunConfig& cfg, const rt::Partition& part,
             Endpoint& control, std::vector<Endpoint> peers,
             obs::WireStats& wire);

  void drain(std::vector<rt::Msg>& out) override;
  Blobs exchange(std::span<const std::uint64_t> blob) override;
  /// Adds every link's byte/frame counters into `s`.
  void account_into(obs::WireStats& s) const;
  /// Frames the frame-corrupt mutation forged (folded into the collected
  /// ShardState's mutation_applied witness).
  [[nodiscard]] std::uint64_t mutation_applied() const { return corrupted_; }

 protected:
  void post(unsigned dest_shard, rt::Msg&& m) override;

 private:
  struct PeerChannel {
    Endpoint ep;
    Writer batch;  // messages accumulated this superstep
    std::uint32_t batch_count = 0;
    std::uint64_t batches_consumed = 0;
  };

  Endpoint& control_;
  std::vector<PeerChannel> peers_;
  obs::WireStats& wire_;
  /// The frame-corrupt mutation (RtConfig::mutation): corrupt the k-th
  /// kTransfer this shard serialises to a remote shard by flipping the
  /// first payload task's birth_step low bit BEFORE the frame is signed —
  /// the CRC accepts it, all counters stay consistent, and only the shadow
  /// cross-check (queue identity / sojourn histogram) can convict it.
  /// 0 = off.
  const std::uint64_t corrupt_ordinal_;
  std::uint64_t corrupted_ = 0;
  const bool data_plane_;          // policy kNone without steal/crash sends none
  std::uint64_t data_rounds_ = 0;  // flushing exchanges passed so far
  std::uint64_t remote_transfers_ = 0;  // kTransfer messages serialised
  std::vector<rt::Msg> self_open_, self_sealed_;  // own-shard messages
  std::vector<std::vector<std::uint64_t>> blobs_;
};

/// The engine itself: the shard's processors, its kernel, and the control
/// loop. Exposed (rather than buried in shard_worker_main) so unit tests
/// can drive a single-worker instance in-process.
class ShardEngine {
 public:
  ShardEngine(ShardRunConfig cfg, Endpoint control,
              std::vector<Endpoint> peers);

  /// Sends kConfigAck, then blocks serving coordinator commands until
  /// kShutdown arrives.
  void serve();

 private:
  void collect_state();

  ShardRunConfig cfg_;
  std::unique_ptr<sim::LoadModel> model_;
  Endpoint control_;
  rt::Partition part_;
  rt::TaskArena arena_;
  std::vector<rt::RtProcessor> procs_;  // own shard only, index p - begin
  obs::WireStats wire_;
  SocketComm comm_;
  rt::ShardKernel kernel_;
  std::uint64_t step_base_ = 0;
};

}  // namespace clb::transport
