// The per-process shard engine: one worker process's half of the
// cross-process runtime. It runs the same rt::ShardKernel an rt::Runtime
// worker thread runs (rt/kernel.hpp); all it adds is the rt::Comm that
// carries the kernel's messages and reductions across real sockets, and
// the control loop: the kConfig handshake, kRun/kDeposit/kCollect and
// kShutdown (serve), and shipping the end-of-run state (collect).
//
// Every exchange is one all-to-all superstep on the peer links, with no
// coordinator in it: exchange e sends each peer one kBatch frame holding
// the ordinal e, this shard's reduction blob and the messages it sent that
// peer since exchange e - 1, and ends once frame e from every peer is in.
// Per-link FIFO and the frame seq prove nothing is missing, so that is the
// Comm contract: a drain sees every message sent before the last exchange.
#pragma once

#include <poll.h>

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

/// The largest histogram value a kState may carry, supplied by the
/// coordinator: a step-counted sojourn is below the steps run, and the
/// wall-clock histograms (sojourn_us, barrier_rtt_us) are below the
/// microseconds since the run's clock origin. A value above its bound was
/// never measured: the frame that carries it is corrupt.
struct HistBounds {
  std::uint64_t steps = 0;
  std::uint64_t us = 0;
};

/// A worker's end-of-run state, shipped to the coordinator on kCollect.
/// Histograms travel as sparse (value or bucket, count) pairs in ascending
/// order, a LogHistogram's followed by its exact sum and max. deserialize
/// refuses, by field name, a pair count the frame cannot hold, keys out of
/// that order, a bucket past the last, and a value (or a bucket's lowest
/// value) above `bound`.
struct ShardState : rt::ShardOutputs {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  std::vector<rt::RtProcessor> procs;  ///< [begin, end): queues and counters
  obs::WireStats wire;

  void serialize(Writer& w) const;
  [[nodiscard]] static ShardState deserialize(Reader& r,
                                              const HistBounds& bound);
};

/// Entry point for a forked shard worker: performs the kConfig handshake on
/// `control`, builds the engine, acks, and serves coordinator commands
/// (kRun / kDeposit / kCollect) until kShutdown. `peers[i]` is the data
/// link to worker i (invalid at this worker's own index). Never returns
/// normally — the caller _exit()s after it does.
void shard_worker_main(Endpoint control, std::vector<Endpoint> peers);

/// rt::Comm over the peer sockets. exchange() drives the writes and reads
/// of one superstep from one poll() loop over the peer links, so full
/// socket buffers on a cycle of peers cannot stall it at any frame size.
///
/// Schedule divergence is convicted, never waited out: a frame whose
/// ordinal is not the expected one aborts naming both shards and both
/// ordinals. end_run() sends each peer a kDone carrying this shard's
/// exchange count; a peer that reads it while still waiting for an
/// exchange frame aborts, and one whose own count differs, when it meets
/// the kDone at its next run, aborts too, naming both shards.
class SocketComm final : public rt::Comm {
 public:
  SocketComm(const ShardRunConfig& cfg, const rt::Partition& part,
             std::vector<Endpoint> peers, obs::WireStats& wire);

  void drain(rt::Batch& out) override;
  Blobs exchange(std::span<const std::uint64_t> blob) override;
  /// Ends a kRun: sends each peer a kDone with the exchange count so far.
  void end_run();
  /// Adds every peer link's byte/frame counters into `s`.
  void account_into(obs::WireStats& s) const;
  /// Frames the frame-corrupt mutation forged (folded into the collected
  /// ShardState's mutation_applied witness).
  [[nodiscard]] std::uint64_t mutation_applied() const { return corrupted_; }

 protected:
  void post(unsigned dest_shard, const rt::Msg& m,
            std::span<const rt::RtTask> tasks) override;
  void post(unsigned dest_shard, const rt::Envelope& e) override;

 private:
  struct PeerChannel {
    Endpoint ep;
    Writer batch;  // messages accumulated since the last exchange
    std::uint32_t batch_count = 0;
    Frame in;  // this exchange's frame from the peer, once it is whole
    bool in_done = false;
    bool done_owed = false;  // its kDone for our last run is still unread
  };

  /// Files a frame read from `peer` during exchange `exchanges_`.
  void accept(unsigned peer, Frame f);

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
  std::uint64_t remote_transfers_ = 0;  // kTransfer messages serialised
  std::uint64_t exchanges_ = 0;         // ordinal of the last exchange
  std::uint64_t run_end_ = 0;           // exchanges_ at the last end_run()
  rt::Batch self_open_;                 // own-shard messages, this superstep
  rt::Batch inbox_;                     // exchanged, not drained yet
  std::vector<std::vector<std::uint64_t>> blobs_;
  std::vector<pollfd> fds_;
  std::vector<unsigned> fd_peer_;       // fds_[k] is the link to fd_peer_[k]
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
