#include "transport/shard_engine.hpp"

#include <algorithm>
#include <chrono>
#include <string>

#include "util/check.hpp"

namespace clb::transport {

namespace {

void serialize_hist(Writer& w, const stats::IntHistogram& h) {
  // Sparse (value, count) pairs in ascending value order: sojourn_us values
  // can reach the run's wall-clock in microseconds, so a dense dump would
  // dwarf the frame cap.
  const std::vector<std::uint64_t>& counts = h.counts();
  std::uint32_t pairs = 0;
  for (const std::uint64_t c : counts) {
    if (c != 0) ++pairs;
  }
  w.u32(pairs);
  for (std::uint64_t v = 0; v < counts.size(); ++v) {
    if (counts[v] != 0) {
      w.u64(v);
      w.u64(counts[v]);
    }
  }
}

[[noreturn]] void refuse(const char* field, const char* what) {
  const std::string msg = std::string(field) + " " + what;
  util::check_failed("histogram pair", __FILE__, __LINE__, msg.c_str());
}

/// The dense histogram sizes itself to its largest value, so each value is
/// checked against `max_value` before it is added.
stats::IntHistogram deserialize_hist(Reader& r, const char* field,
                                     std::uint64_t max_value) {
  stats::IntHistogram h;
  const std::uint32_t pairs = r.count(16, field);
  std::uint64_t last = 0;
  for (std::uint32_t i = 0; i < pairs; ++i) {
    const std::uint64_t v = r.u64();
    const std::uint64_t c = r.u64();
    if (i > 0 && v <= last) refuse(field, "values not strictly ascending");
    if (v > max_value) refuse(field, "value above its bound");
    h.add(v, c);
    last = v;
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
  s.sojourn_steps = deserialize_hist(r, "sojourn_steps", bound.steps);
  s.sojourn_us = deserialize_hist(r, "sojourn_us", bound.us);
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
  s.wire.barrier_rtt_us = deserialize_hist(r, "barrier_rtt_us", bound.us);
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
  self_sealed_.append(self_open_);
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
    b.resize(r.count(8, "kRelease blob"));
    for (std::uint64_t& v : b) v = r.u64();
  }
  CLB_CHECK(r.exhausted(), "transport: trailing bytes in a kRelease payload");
  return blobs_;
}

void SocketComm::drain(rt::Batch& out) {
  out.append(self_sealed_);
  for (unsigned i = 0; i < part_.shards(); ++i) {
    if (i == self_) continue;
    PeerChannel& ch = peers_[i];
    while (ch.batches_consumed < data_rounds_) {
      Frame f = ch.ep.recv_frame();
      CLB_CHECK(f.type == FrameType::kBatch,
                "transport: expected a kBatch frame on a data link");
      Reader r(f.payload);
      const std::uint32_t count = r.u32();
      for (std::uint32_t k = 0; k < count; ++k) deserialize_msg(r, out);
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
