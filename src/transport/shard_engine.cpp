#include "transport/shard_engine.hpp"

#include <cerrno>
#include <chrono>
#include <span>
#include <string>
#include <type_traits>

#include "util/check.hpp"

namespace clb::transport {

namespace {

/// Sparse (key, count) pairs in ascending key order, for the non-zero
/// counts: a key is a value of the dense IntHistogram or a LogHistogram
/// bucket.
void put_pairs(Writer& w, std::span<const std::uint64_t> counts) {
  std::uint32_t pairs = 0;
  for (const std::uint64_t c : counts) pairs += c != 0 ? 1 : 0;
  w.u32(pairs);
  for (std::uint64_t k = 0; k < counts.size(); ++k) {
    if (counts[k] != 0) {
      w.u64(k);
      w.u64(counts[k]);
    }
  }
}

/// The pairs, then the exact sum and max.
void put_log_hist(Writer& w, const stats::LogHistogram& h) {
  put_pairs(w, h.buckets());
  w.u64(h.sum());
  w.u64(h.max());
}

[[noreturn]] void refuse(const char* field, const char* what) {
  const std::string msg = std::string(field) + " " + what;
  util::check_failed("histogram pair", __FILE__, __LINE__, msg.c_str());
}

/// Reads what put_pairs (IntHistogram) or put_log_hist (LogHistogram)
/// wrote. Refuses, by `field` name, keys out of order, a bucket past the
/// last, and a value (a bucket's lowest value) above `max_value`: it was
/// never measured, and it would size a dense histogram.
template <typename Hist>
Hist get_hist(Reader& r, const char* field, std::uint64_t max_value) {
  constexpr bool kLog = std::is_same_v<Hist, stats::LogHistogram>;
  Hist h;
  const std::uint32_t pairs = r.count(16, field);
  std::uint64_t last = 0;
  for (std::uint32_t i = 0; i < pairs; ++i) {
    const std::uint64_t k = r.u64();
    const std::uint64_t c = r.u64();
    if (i > 0 && k <= last) {
      refuse(field, kLog ? "buckets not strictly ascending"
                         : "values not strictly ascending");
    }
    last = k;
    if constexpr (kLog) {
      if (k >= Hist::kBuckets) refuse(field, "bucket index past the last");
      if (Hist::bucket_low(k) > max_value) {
        refuse(field, "bucket above its bound");
      }
      h.add(Hist::bucket_low(k), c);
    } else {
      if (k > max_value) refuse(field, "value above its bound");
      h.add(k, c);
    }
  }
  if constexpr (kLog) {
    const std::uint64_t sum = r.u64();
    h.restore(sum, r.u64());
  }
  return h;
}

// The smallest wire size of one record of each counted list, for
// Reader::count.
constexpr std::size_t kLedgerEntryBytes = 8 + 3 * 4;
constexpr std::size_t kCrashEventBytes = 8 + 4 + 8;
constexpr std::size_t kProcBytes = 4 + 6 * 8;               // empty queue
constexpr std::size_t kPhaseBytes = 8 * 8 + 2 * 4 + 2 + 4;  // no heavy procs

void serialize_ledger(Writer& w, const std::vector<rt::LedgerEntry>& l) {
  w.u32(static_cast<std::uint32_t>(l.size()));
  for (const rt::LedgerEntry& e : l) {
    w.u64(e.step);
    w.u32(e.from);
    w.u32(e.to);
    w.u32(e.count);
  }
}

std::vector<rt::LedgerEntry> deserialize_ledger(Reader& r, const char* name) {
  std::vector<rt::LedgerEntry> l(r.count(kLedgerEntryBytes, name));
  for (rt::LedgerEntry& e : l) {
    e.step = r.u64();
    e.from = r.u32();
    e.to = r.u32();
    e.count = r.u32();
  }
  return l;
}

/// The scalar counters of rt::ShardOutputs, in wire order.
constexpr std::uint64_t rt::ShardOutputs::*kScalars[] = {
    &rt::ShardOutputs::clamped,          &rt::ShardOutputs::deposited,
    &rt::ShardOutputs::dropped_tasks,    &rt::ShardOutputs::running_max,
    &rt::ShardOutputs::steal_events,     &rt::ShardOutputs::stolen_tasks,
    &rt::ShardOutputs::rehomed_tasks,    &rt::ShardOutputs::rehomed_events,
    &rt::ShardOutputs::fab_sent,         &rt::ShardOutputs::fab_delivered,
    &rt::ShardOutputs::retransmits,      &rt::ShardOutputs::dup_suppressed,
    &rt::ShardOutputs::queued_delay,     &rt::ShardOutputs::mutation_applied,
};

std::vector<rt::RtProcessor> shard_processors(const rt::Partition& part,
                                              unsigned index,
                                              rt::TaskArena& arena) {
  const auto [b, e] = part.range(index);
  std::vector<rt::RtProcessor> procs;
  procs.reserve(e - b);
  for (std::uint64_t p = b; p < e; ++p) {
    procs.emplace_back(&arena);
  }
  return procs;
}

}  // namespace

// ---------------------------------------------------------------------------
// ShardRunConfig / ShardState wire codecs
// ---------------------------------------------------------------------------

void ShardRunConfig::serialize(Writer& w) const {
  w.u64(n);
  w.u64(seed);
  w.u32(workers);
  w.u32(index);
  w.u8(static_cast<std::uint8_t>(policy));
  w.u8(static_cast<std::uint8_t>(mutation));
  w.u64(mutation_ordinal);
  serialize_params(w, params);
  serialize_game(w, game);
  w.u32(spin_work);
  w.u8(track_sojourn ? 1 : 0);
  w.u8(time_sojourn ? 1 : 0);
  w.u32(latency);
  for (const std::uint32_t v : {link.jitter, link.bandwidth, link.loss_per_64k,
                                link.rto, link.max_attempts}) {
    w.u32(v);
  }
  w.u64(phase_gap);
  w.u64(max_phase_steps);
  w.u64(stale.staleness);
  w.u32(stale.gap);
  w.u32(ls.min_load);
  w.u32(static_cast<std::uint32_t>(crashes.size()));
  for (const core::CrashEvent& ev : crashes) {
    w.u64(ev.step);
    w.u32(ev.proc);
    w.u64(ev.down_steps);
  }
  w.u8(steal.enabled ? 1 : 0);
  w.u32(steal.min_victim_load);
  w.u32(steal.max_steals_per_step);
  w.u32(steal.max_batch);
  w.u64(static_cast<std::uint64_t>(clock_origin_ns));
  model.serialize(w);
}

ShardRunConfig ShardRunConfig::deserialize(Reader& r) {
  ShardRunConfig c;
  c.n = r.u64();
  c.seed = r.u64();
  c.workers = r.u32();
  c.index = r.u32();
  CLB_CHECK(c.workers >= 1 && c.index < c.workers && c.workers <= c.n,
            "transport: worker index out of range");
  c.policy = static_cast<rt::RtPolicy>(r.u8());
  CLB_CHECK(c.policy <= rt::RtPolicy::kLocalSearch,
            "unknown rt policy on the wire");
  c.mutation = static_cast<sim::MutationKind>(r.u8());
  CLB_CHECK(c.mutation <= sim::MutationKind::kFrameCorrupt,
            "unknown mutation kind on the wire");
  c.mutation_ordinal = r.u64();
  c.params = deserialize_params(r);
  c.game = deserialize_game(r);
  c.spin_work = r.u32();
  c.track_sojourn = r.u8() != 0;
  c.time_sojourn = r.u8() != 0;
  c.latency = r.u32();
  for (std::uint32_t* v : {&c.link.jitter, &c.link.bandwidth,
                           &c.link.loss_per_64k, &c.link.rto,
                           &c.link.max_attempts}) {
    *v = r.u32();
  }
  c.phase_gap = r.u64();
  c.max_phase_steps = r.u64();
  c.stale.staleness = r.u64();
  c.stale.gap = r.u32();
  c.ls.min_load = r.u32();
  c.crashes.resize(r.count(kCrashEventBytes, "crashes"));
  for (core::CrashEvent& ev : c.crashes) {
    ev.step = r.u64();
    ev.proc = r.u32();
    ev.down_steps = r.u64();
  }
  c.steal.enabled = r.u8() != 0;
  c.steal.min_victim_load = r.u32();
  c.steal.max_steals_per_step = r.u32();
  c.steal.max_batch = r.u32();
  c.clock_origin_ns = static_cast<std::int64_t>(r.u64());
  c.model = ModelSpec::deserialize(r);
  return c;
}

void ShardState::serialize(Writer& w) const {
  w.u64(begin);
  w.u64(end);
  w.u32(static_cast<std::uint32_t>(procs.size()));
  for (const rt::RtProcessor& p : procs) {
    w.u32(static_cast<std::uint32_t>(p.queue.size()));
    for (const rt::RtTask& t : p.queue) serialize_task(w, t);
    w.u64(p.generated);
    w.u64(p.consumed);
    w.u64(p.consumed_on_origin);
    w.u64(p.tasks_sent);
    w.u64(p.tasks_received);
    w.u64(p.balance_initiations);
  }
  for (const std::uint64_t v : {msg.queries, msg.accepts, msg.id_messages,
                                msg.control, msg.transfers, msg.tasks_moved}) {
    w.u64(v);
  }
  for (const auto field : kScalars) w.u64(this->*field);
  serialize_ledger(w, ledger);
  serialize_ledger(w, dropped);
  put_pairs(w, sojourn_steps.counts());
  put_log_hist(w, sojourn_us);
  w.u32(static_cast<std::uint32_t>(phases.size()));
  for (const rt::RtPhaseSummary& ps : phases) {
    w.u64(ps.phase_index);
    w.u64(ps.start_step);
    w.u64(ps.end_step);
    w.u64(ps.num_heavy);
    w.u64(ps.num_light);
    w.u64(ps.matched);
    w.u64(ps.unmatched);
    w.u64(ps.requests);
    w.u32(ps.levels_used);
    w.u32(ps.collision_rounds);
    w.u8(ps.forced ? 1 : 0);
    w.u8(ps.completed ? 1 : 0);
    w.u32(static_cast<std::uint32_t>(ps.heavy_procs.size()));
    for (const std::uint32_t h : ps.heavy_procs) w.u32(h);
  }
  w.u64(wire.bytes_sent);
  w.u64(wire.bytes_received);
  w.u64(wire.frames_sent);
  w.u64(wire.frames_received);
  w.u64(wire.barriers);
  put_log_hist(w, wire.barrier_rtt_us);
}

ShardState ShardState::deserialize(Reader& r, const HistBounds& bound) {
  ShardState s;
  s.begin = r.u64();
  s.end = r.u64();
  s.procs.resize(r.count(kProcBytes, "procs"));
  for (rt::RtProcessor& p : s.procs) {
    const std::uint32_t q = r.count(kTaskWireSize, "queue");
    for (std::uint32_t i = 0; i < q; ++i) p.queue.push_back(deserialize_task(r));
    p.generated = r.u64();
    p.consumed = r.u64();
    p.consumed_on_origin = r.u64();
    p.tasks_sent = r.u64();
    p.tasks_received = r.u64();
    p.balance_initiations = r.u64();
  }
  for (std::uint64_t* v : {&s.msg.queries, &s.msg.accepts, &s.msg.id_messages,
                           &s.msg.control, &s.msg.transfers,
                           &s.msg.tasks_moved}) {
    *v = r.u64();
  }
  for (const auto field : kScalars) s.*field = r.u64();
  s.ledger = deserialize_ledger(r, "ledger");
  s.dropped = deserialize_ledger(r, "dropped");
  s.sojourn_steps =
      get_hist<stats::IntHistogram>(r, "sojourn_steps", bound.steps);
  s.sojourn_us = get_hist<stats::LogHistogram>(r, "sojourn_us", bound.us);
  s.phases.resize(r.count(kPhaseBytes, "phases"));
  for (rt::RtPhaseSummary& ps : s.phases) {
    ps.phase_index = r.u64();
    ps.start_step = r.u64();
    ps.end_step = r.u64();
    ps.num_heavy = r.u64();
    ps.num_light = r.u64();
    ps.matched = r.u64();
    ps.unmatched = r.u64();
    ps.requests = r.u64();
    ps.levels_used = r.u32();
    ps.collision_rounds = r.u32();
    ps.forced = r.u8() != 0;
    ps.completed = r.u8() != 0;
    ps.heavy_procs.resize(r.count(4, "heavy_procs"));
    for (std::uint32_t& h : ps.heavy_procs) h = r.u32();
  }
  s.wire.bytes_sent = r.u64();
  s.wire.bytes_received = r.u64();
  s.wire.frames_sent = r.u64();
  s.wire.frames_received = r.u64();
  s.wire.barriers = r.u64();
  s.wire.barrier_rtt_us =
      get_hist<stats::LogHistogram>(r, "barrier_rtt_us", bound.us);
  return s;
}

// ---------------------------------------------------------------------------
// SocketComm
// ---------------------------------------------------------------------------

SocketComm::SocketComm(const ShardRunConfig& cfg, const rt::Partition& part,
                       std::vector<Endpoint> peers, obs::WireStats& wire)
    : rt::Comm(part, cfg.index),
      wire_(wire),
      corrupt_ordinal_(cfg.mutation == sim::MutationKind::kFrameCorrupt
                           ? cfg.mutation_ordinal
                           : 0),
      blobs_(part.shards()) {
  peers_.resize(peers.size());
  for (std::size_t i = 0; i < peers.size(); ++i) {
    peers_[i].ep = std::move(peers[i]);
  }
  for (unsigned i = 0; i < part.shards(); ++i) {
    CLB_CHECK(i == self_ || (i < peers_.size() && peers_[i].ep.valid()),
              "transport: missing data link to a peer shard");
  }
}

void SocketComm::post(unsigned dest_shard, const rt::Msg& m,
                      std::span<const rt::RtTask> tasks) {
  if (dest_shard == self_) {
    self_open_.push(m, tasks);
    return;
  }
  std::vector<rt::RtTask> forged;
  if (m.kind == rt::MsgKind::kTransfer &&
      ++remote_transfers_ == corrupt_ordinal_ && !tasks.empty()) {
    // The frame-corrupt mutation: flipped BEFORE the frame is signed, so
    // the CRC vouches for the corrupted bytes and every counter stays
    // self-consistent. Only the shadow fabric can tell.
    forged.assign(tasks.begin(), tasks.end());
    forged[0].task.birth_step ^= 1u;
    tasks = forged;
    ++corrupted_;
  }
  PeerChannel& ch = peers_[dest_shard];
  serialize_msg(ch.batch, m, tasks);
  ++ch.batch_count;
}

void SocketComm::post(unsigned dest_shard, const rt::Envelope& e) {
  if (dest_shard == self_) {
    self_open_.envs.push_back(e);
    return;
  }
  PeerChannel& ch = peers_[dest_shard];
  serialize_msg(ch.batch, e);
  ++ch.batch_count;
}

rt::Comm::Blobs SocketComm::exchange(std::span<const std::uint64_t> blob) {
  using Clock = std::chrono::steady_clock;
  const std::uint64_t e = ++exchanges_;
  ++wire_.barriers;
  unsigned pending = 0;
  for (unsigned i = 0; i < part_.shards(); ++i) {
    if (i == self_) continue;
    PeerChannel& ch = peers_[i];
    Writer payload;
    payload.u64(e);
    payload.u32(static_cast<std::uint32_t>(blob.size()));
    for (const std::uint64_t v : blob) payload.u64(v);
    payload.u32(ch.batch_count);
    payload.bytes(ch.batch.data().data(), ch.batch.size());
    ch.ep.queue_frame(FrameType::kBatch, payload.data());
    ch.batch = Writer();
    ch.batch_count = 0;
    ch.in_done = false;
    ++pending;
  }

  // Write and read together until every frame is out and every peer's
  // frame e is in: a peer blocked writing to us is always being read.
  const Clock::time_point t0 = Clock::now();
  Clock::time_point t_in = t0;
  for (;;) {
    fds_.clear();
    fd_peer_.clear();
    for (unsigned i = 0; i < part_.shards(); ++i) {
      if (i == self_) continue;
      PeerChannel& ch = peers_[i];
      Frame f;
      while (!ch.in_done && ch.ep.next_frame(f)) {
        accept(i, std::move(f));
        if (ch.in_done && --pending == 0) t_in = Clock::now();
      }
      const short events = static_cast<short>(
          (ch.ep.sending() ? POLLOUT : 0) | (ch.in_done ? 0 : POLLIN));
      if (events != 0) {
        fds_.push_back(pollfd{ch.ep.fd(), events, 0});
        fd_peer_.push_back(i);
      }
    }
    if (fds_.empty()) break;
    if (::poll(fds_.data(), fds_.size(), -1) < 0) {
      CLB_CHECK(errno == EINTR, "transport: poll on the peer links failed");
      continue;
    }
    for (std::size_t k = 0; k < fds_.size(); ++k) {
      const short re = fds_[k].revents;
      Endpoint& ep = peers_[fd_peer_[k]].ep;
      // An error or hang-up goes to the pending operation, which aborts.
      if ((fds_[k].events & POLLOUT) != 0 && (re & ~POLLIN) != 0) {
        ep.send_some();
      }
      if ((fds_[k].events & POLLIN) != 0 && (re & ~POLLOUT) != 0) {
        ep.recv_some();
      }
    }
  }
  wire_.barrier_rtt_us.add(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(t_in - t0)
          .count()));

  // Blobs and messages in shard order, the own shard's in its place.
  for (unsigned i = 0; i < part_.shards(); ++i) {
    std::vector<std::uint64_t>& b = blobs_[i];
    if (i == self_) {
      b.assign(blob.begin(), blob.end());
      inbox_.append(self_open_);
      continue;
    }
    Reader r(peers_[i].in.payload);
    (void)r.u64();  // the ordinal, checked on arrival
    b.resize(r.count(8, "kBatch blob"));
    for (std::uint64_t& v : b) v = r.u64();
    const std::uint32_t count = r.count(kRecordWireSize, "kBatch message");
    for (std::uint32_t k = 0; k < count; ++k) deserialize_msg(r, inbox_);
    CLB_CHECK(r.exhausted(), "transport: trailing bytes in a kBatch frame");
  }
  return blobs_;
}

void SocketComm::accept(unsigned peer, Frame f) {
  PeerChannel& ch = peers_[peer];
  const auto diverged = [&](const std::string& what) {
    const std::string msg = "transport: superstep schedule divergence "
                            "between shard " + std::to_string(self_) +
                            " and shard " + std::to_string(peer) + ": " + what;
    util::check_failed("same exchange schedule", __FILE__, __LINE__,
                       msg.c_str());
  };
  const auto n = [](std::uint64_t v) { return std::to_string(v); };
  Reader r(f.payload);
  if (f.type == FrameType::kDone) {
    const std::uint64_t count = r.u64();
    CLB_CHECK(r.exhausted(), "transport: malformed kDone on a peer link");
    if (!ch.done_owed) {
      diverged("shard " + n(peer) + " ended its run after " + n(count) +
               " exchanges while shard " + n(self_) + " waits for exchange " +
               n(exchanges_));
    }
    if (count != run_end_) {
      diverged("shard " + n(self_) + " ended its last run after " +
               n(run_end_) + " exchanges, shard " + n(peer) + " after " +
               n(count));
    }
    ch.done_owed = false;
    return;
  }
  CLB_CHECK(f.type == FrameType::kBatch,
            "transport: unexpected frame type on a peer link");
  const std::uint64_t ordinal = r.u64();
  if (ordinal != exchanges_) {
    diverged("shard " + n(self_) + " is at exchange " + n(exchanges_) +
             ", shard " + n(peer) + " sent exchange " + n(ordinal));
  }
  ch.in = std::move(f);
  ch.in_done = true;
}

void SocketComm::end_run() {
  Writer w;
  w.u64(exchanges_);
  for (unsigned i = 0; i < part_.shards(); ++i) {
    if (i == self_) continue;
    peers_[i].ep.send_frame(FrameType::kDone, w.data());
    peers_[i].done_owed = true;
  }
  run_end_ = exchanges_;
}

void SocketComm::drain(rt::Batch& out) { out.append(inbox_); }

void SocketComm::account_into(obs::WireStats& s) const {
  for (const PeerChannel& ch : peers_) {
    if (ch.ep.valid()) ch.ep.account_into(s);
  }
}

// ---------------------------------------------------------------------------
// Worker entry point and control loop
// ---------------------------------------------------------------------------

void shard_worker_main(Endpoint control, std::vector<Endpoint> peers) {
  Frame f = control.recv_frame();
  CLB_CHECK(f.type == FrameType::kConfig,
            "transport: worker expected kConfig as the first control frame");
  Reader r(f.payload);
  ShardRunConfig cfg = ShardRunConfig::deserialize(r);
  CLB_CHECK(r.exhausted(), "transport: trailing bytes after kConfig payload");
  ShardEngine engine(std::move(cfg), std::move(control), std::move(peers));
  engine.serve();
}

ShardEngine::ShardEngine(ShardRunConfig cfg, Endpoint control,
                         std::vector<Endpoint> peers)
    : cfg_(std::move(cfg)),
      model_(cfg_.model.make(cfg_.n)),
      control_(std::move(control)),
      part_(cfg_.n, cfg_.workers),
      procs_(shard_processors(part_, cfg_.index, arena_)),
      comm_(cfg_, part_, std::move(peers), wire_),
      kernel_(cfg_, model_.get(), comm_, procs_,
              std::chrono::steady_clock::time_point(
                  std::chrono::nanoseconds(cfg_.clock_origin_ns))) {}

void ShardEngine::serve() {
  control_.send_frame(FrameType::kConfigAck, nullptr, 0);
  for (;;) {
    Frame f = control_.recv_frame();
    Reader r(f.payload);
    switch (f.type) {
      case FrameType::kRun: {
        const std::uint64_t steps = r.u64();
        CLB_CHECK(r.exhausted(), "transport: malformed kRun payload");
        for (std::uint64_t s = 0; s < steps; ++s) kernel_.step(step_base_ + s);
        step_base_ += steps;
        // The peers' kDone first: the coordinator's next kRun then finds
        // every peer's kDone already on the links.
        comm_.end_run();
        control_.send_frame(FrameType::kDone, nullptr, 0);
        break;
      }
      case FrameType::kDeposit: {
        const std::uint64_t p = r.u64();
        const rt::RtTask t = deserialize_task(r);
        CLB_CHECK(r.exhausted(), "transport: malformed kDeposit payload");
        kernel_.deposit(static_cast<std::uint32_t>(p), t.task);
        break;
      }
      case FrameType::kCollect:
        collect_state();
        break;
      case FrameType::kShutdown:
        return;
      default:
        CLB_CHECK(false, "transport: unexpected control frame in worker");
    }
  }
}

void ShardEngine::collect_state() {
  kernel_.sync_outputs();
  ShardState st;
  static_cast<rt::ShardOutputs&>(st) = kernel_.outputs();
  st.mutation_applied += comm_.mutation_applied();
  std::tie(st.begin, st.end) = part_.range(cfg_.index);
  // Lent to the serialiser and returned below: moving a vector keeps its
  // buffer, so the kernel's view of the shard stays valid.
  st.procs = std::move(procs_);
  st.wire = wire_;
  control_.account_into(st.wire);
  comm_.account_into(st.wire);
  Writer w;
  st.serialize(w);
  control_.send_frame(FrameType::kState, w.data());
  procs_ = std::move(st.procs);
}

}  // namespace clb::transport
