#include "transport/shard_engine.hpp"

#include <algorithm>
#include <chrono>

#include "util/check.hpp"

namespace clb::transport {

namespace {

void serialize_hist(Writer& w, const stats::IntHistogram& h) {
  // Sparse (value, count) pairs: sojourn_us values can reach the run's
  // wall-clock in microseconds, so a dense dump would dwarf the frame cap.
  const std::vector<std::uint64_t>& counts = h.counts();
  std::uint64_t pairs = 0;
  for (const std::uint64_t c : counts) {
    if (c != 0) ++pairs;
  }
  w.u64(pairs);
  for (std::uint64_t v = 0; v < counts.size(); ++v) {
    if (counts[v] != 0) {
      w.u64(v);
      w.u64(counts[v]);
    }
  }
}

stats::IntHistogram deserialize_hist(Reader& r) {
  stats::IntHistogram h;
  const std::uint64_t pairs = r.u64();
  for (std::uint64_t i = 0; i < pairs; ++i) {
    const std::uint64_t v = r.u64();
    const std::uint64_t c = r.u64();
    h.add(v, c);
  }
  return h;
}

void serialize_ledger(Writer& w, const std::vector<rt::LedgerEntry>& l) {
  w.u32(static_cast<std::uint32_t>(l.size()));
  for (const rt::LedgerEntry& e : l) {
    w.u64(e.step);
    w.u32(e.from);
    w.u32(e.to);
    w.u32(e.count);
  }
}

std::vector<rt::LedgerEntry> deserialize_ledger(Reader& r) {
  std::vector<rt::LedgerEntry> l(r.u32());
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

std::vector<rt::RtProcessor> shard_processors(const ShardRunConfig& cfg,
                                              rt::TaskArena& arena) {
  CLB_CHECK(cfg.workers >= 1 && cfg.index < cfg.workers &&
                cfg.workers <= cfg.n,
            "transport: worker index out of range");
  const auto [b, e] = util::block_range(cfg.n, cfg.workers, cfg.index);
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
  w.u8(deterministic ? 1 : 0);
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
  c.deterministic = r.u8() != 0;
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
  c.crashes.resize(r.u32());
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
  serialize_hist(w, sojourn_steps);
  serialize_hist(w, sojourn_us);
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
  serialize_hist(w, wire.barrier_rtt_us);
}

ShardState ShardState::deserialize(Reader& r) {
  ShardState s;
  s.begin = r.u64();
  s.end = r.u64();
  s.procs.resize(r.u32());
  for (rt::RtProcessor& p : s.procs) {
    const std::uint32_t q = r.u32();
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
  s.ledger = deserialize_ledger(r);
  s.dropped = deserialize_ledger(r);
  s.sojourn_steps = deserialize_hist(r);
  s.sojourn_us = deserialize_hist(r);
  s.phases.resize(r.u32());
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
    ps.heavy_procs.resize(r.u32());
    for (std::uint32_t& h : ps.heavy_procs) h = r.u32();
  }
  s.wire.bytes_sent = r.u64();
  s.wire.bytes_received = r.u64();
  s.wire.frames_sent = r.u64();
  s.wire.frames_received = r.u64();
  s.wire.barriers = r.u64();
  s.wire.barrier_rtt_us = deserialize_hist(r);
  return s;
}

// ---------------------------------------------------------------------------
// SocketComm
// ---------------------------------------------------------------------------

SocketComm::SocketComm(const ShardRunConfig& cfg, const rt::Partition& part,
                       Endpoint& control, std::vector<Endpoint> peers,
                       obs::WireStats& wire)
    : rt::Comm(part, cfg.index),
      control_(control),
      wire_(wire),
      corrupt_ordinal_(cfg.mutation == sim::MutationKind::kFrameCorrupt
                           ? cfg.mutation_ordinal
                           : 0),
      data_plane_(cfg.policy != rt::RtPolicy::kNone || cfg.steal.enabled ||
                  !cfg.crashes.empty()),
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

void SocketComm::post(unsigned dest_shard, rt::Msg&& m) {
  if (dest_shard == self_) {
    self_open_.push_back(std::move(m));
    return;
  }
  if (m.kind == rt::MsgKind::kTransfer &&
      ++remote_transfers_ == corrupt_ordinal_ && !m.payload.empty()) {
    // The frame-corrupt mutation: flipped BEFORE the frame is signed, so
    // the CRC vouches for the corrupted bytes and every counter stays
    // self-consistent. Only the shadow fabric can tell.
    m.payload[0].task.birth_step ^= 1u;
    ++corrupted_;
  }
  PeerChannel& ch = peers_[dest_shard];
  serialize_msg(ch.batch, m);
  ++ch.batch_count;
}

rt::Comm::Blobs SocketComm::exchange(std::span<const std::uint64_t> blob) {
  self_sealed_.insert(self_sealed_.end(),
                      std::make_move_iterator(self_open_.begin()),
                      std::make_move_iterator(self_open_.end()));
  self_open_.clear();
  if (data_plane_) {
    // Exactly one kBatch frame per peer per exchange — possibly empty. The
    // receiver counts batches, not messages, so a drain knows when it has
    // everything (see drain()).
    for (unsigned i = 0; i < part_.shards(); ++i) {
      if (i == self_) continue;
      PeerChannel& ch = peers_[i];
      Writer payload;
      payload.u32(ch.batch_count);
      payload.bytes(ch.batch.data().data(), ch.batch.size());
      ch.ep.send_frame(FrameType::kBatch, payload.data());
      ch.batch = Writer();
      ch.batch_count = 0;
    }
    ++data_rounds_;
  }
  Writer w;
  w.u32(static_cast<std::uint32_t>(blob.size()));
  for (const std::uint64_t v : blob) w.u64(v);
  const auto t0 = std::chrono::steady_clock::now();
  control_.send_frame(FrameType::kBarrier, w.data());
  Frame f = control_.recv_frame();
  CLB_CHECK(f.type == FrameType::kRelease,
            "transport: expected kRelease at a barrier");
  const auto rtt = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  wire_.barrier_rtt_us.add(std::min<std::uint64_t>(rtt, 1000000));
  ++wire_.barriers;

  Reader r(f.payload);
  for (std::vector<std::uint64_t>& b : blobs_) {
    b.resize(r.u32());
    for (std::uint64_t& v : b) v = r.u64();
  }
  CLB_CHECK(r.exhausted(), "transport: trailing bytes in a kRelease payload");
  return blobs_;
}

void SocketComm::drain(std::vector<rt::Msg>& out) {
  out.insert(out.end(), std::make_move_iterator(self_sealed_.begin()),
             std::make_move_iterator(self_sealed_.end()));
  self_sealed_.clear();
  for (unsigned i = 0; i < part_.shards(); ++i) {
    if (i == self_) continue;
    PeerChannel& ch = peers_[i];
    while (ch.batches_consumed < data_rounds_) {
      Frame f = ch.ep.recv_frame();
      CLB_CHECK(f.type == FrameType::kBatch,
                "transport: expected a kBatch frame on a data link");
      Reader r(f.payload);
      const std::uint32_t count = r.u32();
      for (std::uint32_t k = 0; k < count; ++k) {
        out.push_back(deserialize_msg(r));
      }
      CLB_CHECK(r.exhausted(), "transport: trailing bytes in a kBatch frame");
      ++ch.batches_consumed;
    }
  }
}

void SocketComm::account_into(obs::WireStats& s) const {
  control_.account_into(s);
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
      procs_(shard_processors(cfg_, arena_)),
      comm_(cfg_, part_, control_, std::move(peers), wire_),
      kernel_(cfg_, model_.get(), comm_, procs_,
              std::chrono::steady_clock::time_point(
                  std::chrono::nanoseconds(cfg_.clock_origin_ns)),
              /*telemetry=*/false) {}

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
  comm_.account_into(st.wire);
  Writer w;
  st.serialize(w);
  control_.send_frame(FrameType::kState, w.data());
  procs_ = std::move(st.procs);
}

}  // namespace clb::transport
