#include "rt/kernel.hpp"

#include <algorithm>
#include <cmath>

#include "analysis/bounds.hpp"
#include "baselines/local_search.hpp"
#include "baselines/stale_shortest_queue.hpp"
#include "rng/dist.hpp"
#include "rng/philox.hpp"
#include "rng/splitmix64.hpp"
#include "util/check.hpp"
#include "util/math.hpp"

namespace clb::rt {

namespace {

// Must match the threshold balancer's game-seed derivation bit for bit.
constexpr std::uint64_t kGameSalt = 0x70686173656761ULL;  // "phasega"
// Processors per LoadModel::step_actions call in generate/consume, and per
// clock read of time_sojourn's stamps (tens of microseconds of work).
constexpr std::uint64_t kDrawBlock = 256;
// rt-only stream for all-in-air scatter targets (per processor, so the
// draw order is partition-invariant; the sim baseline draws from one global
// stream, which no sharded runtime can reproduce — documented non-goal).
constexpr std::uint64_t kScatterSalt = 0x727473636174ULL;  // "rtscat"

/// Busy work standing in for a task's compute cost. The asm constraint keeps
/// the loop from being optimised away without touching memory.
inline void spin(std::uint32_t iters) {
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (std::uint32_t i = 0; i < iters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
#if defined(__GNUC__) || defined(__clang__)
    asm volatile("" : "+r"(x));
#endif
  }
}

bool key_less(const Msg& a, const Msg& b) {
  if (a.key != b.key) return a.key < b.key;
  return static_cast<int>(a.kind) < static_cast<int>(b.kind);
}

bool sender_less(const Msg& a, const Msg& b) { return a.a < b.a; }

Envelope envelope(MsgKind kind, std::uint32_t from, std::uint32_t to,
                  std::uint32_t a = 0, std::uint32_t b = 0) {
  Envelope e;
  e.msg.kind = kind;
  e.msg.a = a;
  e.msg.b = b;
  e.from = from;
  e.to = to;
  return e;
}

}  // namespace

ShardKernel::ShardKernel(const RtConfig& cfg, sim::LoadModel* model,
                         Comm& comm, std::span<RtProcessor> procs,
                         Clock::time_point origin)
    : cfg_(cfg),
      model_(model),
      comm_(comm),
      index_(comm.self()),
      shards_(comm.partition().shards()),
      begin_(comm.partition().range(comm.self()).first),
      end_(comm.partition().range(comm.self()).second),
      procs_(procs),
      origin_(origin),
      telemetry_(cfg.telemetry) {
  CLB_CHECK(procs_.size() == end_ - begin_,
            "kernel: processor span does not match the shard");
  if (cfg_.policy == RtPolicy::kAllInAir) {
    air_interval_ = cfg_.n >= 4
                        ? util::round_at_least(util::log2log2(cfg_.n), 1)
                        : 1;
  }
  if (!cfg_.crashes.empty()) {
    liveness_ = core::LivenessSchedule(cfg_.n, cfg_.crashes);
  }
  if (cfg_.policy == RtPolicy::kThreshold) stamps_.resize(end_ - begin_);
  if (cfg_.policy == RtPolicy::kStaleSq ||
      cfg_.policy == RtPolicy::kLocalSearch) {
    board_.resize(cfg_.n, 0);
    stale_board_.resize(cfg_.n, 0);
    alive_board_.resize(cfg_.n, 1);
  }
  if (cfg_.latency > 0) {
    lat_policy_ = cfg_.topology != nullptr
                      ? net::DeliveryPolicy(cfg_.n, cfg_.latency,
                                            cfg_.topology, cfg_.link.jitter,
                                            cfg_.seed)
                      : net::DeliveryPolicy(cfg_.n, cfg_.latency,
                                            cfg_.link.jitter, cfg_.seed);
    round_budget_ = static_cast<std::uint32_t>(
        std::ceil(analysis::collision_round_bound(cfg_.n, cfg_.game.a,
                                                  cfg_.game.b, cfg_.game.c)));
    max_phase_steps_ = cfg_.max_phase_steps;
    links_.configure(cfg_.link, cfg_.seed, lat_policy_->max_delay());
    if (max_phase_steps_ == 0) {
      // The shared failsafe bound (dist:: derives the identical value).
      max_phase_steps_ =
          net::phase_failsafe(cfg_.params.tree_depth, round_budget_,
                              lat_policy_->max_delay(), links_.worst_extra());
    }
    fabric_.init(lat_policy_->max_delay());
    req_.assign(end_ - begin_, LatReq{});
  }
}

std::uint32_t ShardKernel::now_us() const {
  return static_cast<std::uint32_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            origin_)
          .count());
}

void ShardKernel::deposit(std::uint32_t p, sim::Task t) {
  CLB_CHECK(owns(p), "deposit routed to the wrong shard");
  proc(p).queue.push_back(RtTask{t, cfg_.time_sojourn ? now_us() : 0});
  ++out_.deposited;
}

void ShardKernel::sync_outputs() {
  out_.retransmits = links_.retransmits();
  out_.dup_suppressed = links_.dup_suppressed();
  out_.queued_delay = links_.queued_delay();
}

void ShardKernel::release_logs() {
  // Fresh objects, not `= {}`: that is the vector's initializer-list
  // assignment, which keeps the capacity.
  out_.ledger = std::vector<LedgerEntry>();
  out_.dropped = std::vector<LedgerEntry>();
  out_.sojourn_steps = stats::IntHistogram();
  out_.sojourn_us = stats::IntHistogram();
  // A still-open latency phase stays: its end is written into
  // phases.back() when it completes.
  std::vector<RtPhaseSummary> kept;
  if (!out_.phases.empty() && !out_.phases.back().completed) {
    kept.push_back(std::move(out_.phases.back()));
  }
  out_.phases = std::move(kept);
}

// ---------------------------------------------------------------------------
// Substrate seam
// ---------------------------------------------------------------------------

void ShardKernel::lap(obs::Stage s) {
  if (!telemetry_) return;
  const Clock::time_point now = Clock::now();
  telem_.stage_ns[static_cast<std::size_t>(s)] += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(now - lap_t0_)
          .count());
  lap_t0_ = now;
}

Comm::Blobs ShardKernel::exchange(std::span<const std::uint64_t> blob) {
  if (telemetry_) {
    const auto t0 = Clock::now();
    const Comm::Blobs all = comm_.exchange(blob);
    const auto ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             t0)
            .count());
    ++telem_.barrier_waits;
    telem_.stall_ns += ns;
    telem_.stall_ns_hist.add(ns);
    step_stall_ns_ += ns;
    CLB_TRACE_EVENT(cfg_.trace, obs::EventKind::kBarrierWait, cur_step_, 0, 0,
                    ns);
    return all;
  }
  return comm_.exchange(blob);
}

void ShardKernel::drain(bool keep_transfers) {
  batch_.clear();
  comm_.drain(batch_);
  const std::uint64_t got = batch_.msgs.size() + batch_.envs.size();
  if (!keep_transfers) {
    // Order-insensitive: at most one transfer reaches a given light per
    // phase (the assigned flag), so applying on arrival keeps determinism.
    std::vector<Msg>& msgs = batch_.msgs;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      if (msgs[i].kind == MsgKind::kTransfer) {
        apply_transfer(msgs[i]);
      } else {
        msgs[kept++] = msgs[i];
      }
    }
    msgs.resize(kept);
  }
  if (telemetry_) {
    ++telem_.drains;
    telem_.deq += got;
    telem_.drain_batch_hist.add(got);
    CLB_TRACE_EVENT(cfg_.trace, obs::EventKind::kMailboxDrain, cur_step_, 0, 0,
                    got);
  }
}

void ShardKernel::apply_transfer(const Msg& m) {
  RtProcessor& dst = proc(m.b);
  dst.tasks_received += m.task_count;
  for (const RtTask& t : batch_.payload(m)) dst.queue.push_back(t);
}

void ShardKernel::apply_sorted_transfers() {
  // Several senders may target one receiver, so arrival order is not
  // canonical; the decision rules' suppression (no sender is also a
  // receiver) makes send-time pops plus sender-sorted pushes reproduce the
  // engine's schedule-order application exactly.
  std::sort(batch_.msgs.begin(), batch_.msgs.end(), sender_less);
  for (const Msg& m : batch_.msgs) {
    CLB_DCHECK(m.kind == MsgKind::kTransfer, "expected only transfers");
    apply_transfer(m);
  }
  batch_.clear();
}

// ---------------------------------------------------------------------------
// The step
// ---------------------------------------------------------------------------

void ShardKernel::step(std::uint64_t step) {
  cur_step_ = step;
  Clock::time_point step_t0;
  if (telemetry_) {
    step_t0 = Clock::now();
    lap_t0_ = step_t0;
    step_stall_ns_ = 0;
  }
  // ---- crash re-home (mirrors Engine::process_crashes) ----
  if (!liveness_.empty() && liveness_.crash_step(step)) {
    process_crashes(step);
    lap(obs::Stage::kOther);
  }

  // ---- generate / consume (mirrors Engine::generate_consume_block) ----
  generate_consume(step);
  lap(obs::Stage::kGenConsume);

  // ---- work stealing (mirrors Engine::apply_steals) ----
  if (cfg_.steal.enabled) {
    run_steal(step);
    lap(obs::Stage::kSteal);
  }

  // ---- balancing policy ----
  bool phase_step = false;
  std::uint64_t scattered = 0;
  phase_matched_ = 0;
  if (lat_policy_) {
    run_lat_protocol(step);
  } else if (cfg_.policy == RtPolicy::kThreshold &&
             step % cfg_.params.phase_len == 0) {
    phase_step = true;
    run_phase(step);
  } else if (cfg_.policy == RtPolicy::kAllInAir &&
             step % air_interval_ == 0) {
    scattered = run_scatter(step);
  } else if (cfg_.policy == RtPolicy::kStaleSq ||
             cfg_.policy == RtPolicy::kLocalSearch) {
    run_zoo(step);
  }
  if (!phase_step) lap(obs::Stage::kOther);  // run_phase books its own
  end_step(step, phase_step, scattered);
  lap(obs::Stage::kEndStep);

  if (telemetry_) {
    telem_.enq_self = comm_.self_pushes();
    telem_.enq_remote = comm_.remote_pushes();
    if (phase_step) {
      // Instant fabric: the phase resolved within this step (0 extra steps
      // to drain). Latency mode records its real durations in S3 instead.
      ++telem_.phases;
      telem_.phase_steps_hist.add(0);
    }
    const auto step_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             step_t0)
            .count());
    ++telem_.steps;
    telem_.step_ns += step_ns;
    telem_.step_ns_hist.add(step_ns);
    CLB_TRACE_EVENT(cfg_.trace, obs::EventKind::kWorkerStep, step, 0, 0,
                    step_ns,
                    step_ns >= step_stall_ns_ ? step_ns - step_stall_ns_ : 0);

    // Snapshot emitter: publish a consistent copy, let shard 0 serialise
    // every shard's copy between two exchanges, so no shard overwrites its
    // copy while shard 0 is still reading. Plain comm exchanges on purpose:
    // the emitter is telemetry overhead, not a protocol stall.
    if (cfg_.telemetry_interval != 0 &&
        (step + 1) % cfg_.telemetry_interval == 0) {
      snap_ = telem_;
      snap_load_ = 0;
      for (const RtProcessor& p : procs_) snap_load_ += p.queue.size();
      (void)comm_.exchange({});
      if (index_ == 0 && on_snapshot) on_snapshot(step);
      (void)comm_.exchange({});
    }
  }
}

void ShardKernel::process_crashes(std::uint64_t step) {
  // Each crashed processor's owner ships its queue to the heir's owner;
  // arrivals apply in crash-list order, the engine's serial order.
  const std::vector<std::uint32_t> crashed = liveness_.crashes_at(step);
  for (std::size_t k = 0; k < crashed.size(); ++k) {
    const std::uint32_t c = crashed[k];
    if (!owns(c)) continue;
    RtProcessor& src = proc(c);
    if (cfg_.mutation == sim::MutationKind::kCrashLoseQueue) {
      // Mutation: the orphaned queue vanishes, booked nowhere — the
      // conservation oracle's job to notice.
      if (!src.queue.empty()) ++out_.mutation_applied;
      src.queue.clear();
      continue;
    }
    Msg m;
    m.kind = MsgKind::kRehome;
    m.key = k;
    m.a = c;
    m.b = liveness_.rehome_target(c, step);
    send_tasks_.clear();
    src.queue.extract_back(src.queue.size(), send_tasks_);
    out_.rehomed_tasks += send_tasks_.size();
    ++out_.rehomed_events;
    comm_.send(m.b, m, send_tasks_);
  }
  (void)exchange({});
  drain(true);
  std::sort(batch_.msgs.begin(), batch_.msgs.end(), key_less);
  for (const Msg& m : batch_.msgs) {
    CLB_DCHECK(m.kind == MsgKind::kRehome, "unexpected message in re-home");
    for (const RtTask& t : batch_.payload(m)) proc(m.b).queue.push_back(t);
  }
  batch_.clear();
}

void ShardKernel::generate_consume(std::uint64_t step) {
  // Tracked unconditionally (two register adds per processor); folded into
  // the telemetry struct once per step.
  std::uint64_t gen_total = 0, cons_total = 0;
  const std::uint64_t system_load = sys_load_;
  const bool steal_on = cfg_.steal.enabled;
  if (steal_on) steal_.reset(cfg_.steal);
  const auto live = [&](std::uint64_t p) {
    return liveness_.empty() || liveness_.alive(p, step);
  };
  std::uint64_t loads[kDrawBlock];
  sim::StepAction acts[kDrawBlock];
  for (std::uint64_t first = begin_; first < end_; first += kDrawBlock) {
    const std::uint64_t count = std::min(kDrawBlock, end_ - first);
    // The model draws the block up front (LoadModel::step_actions). Its
    // loads are read before any of its processors changes, which is what a
    // per-processor draw saw, as each processor touches only its own queue.
    // Only runs of live processors are drawn: the engine never draws a dead
    // one, and a draw may advance per-processor model state (OnOffModel).
    for (std::uint64_t i = 0; i < count; ++i) {
      loads[i] = proc(first + i).queue.size();
    }
    for (std::uint64_t i = 0; i < count;) {
      std::uint64_t j = i;
      while (j < count && live(first + j)) ++j;
      if (j > i) {
        model_->step_actions(cfg_.seed, first + i, j - i, step,
                             {loads + i, j - i}, system_load,
                             {acts + i, j - i});
      }
      i = j + 1;  // past the dead processor that ended the run
    }
    // time_sojourn reads the clock once per block: every birth and consume
    // stamp of the block's processors is the block's start time.
    const std::uint32_t stamp_us = cfg_.time_sojourn ? now_us() : 0;
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::uint64_t p = first + i;
      if (!live(p)) continue;
      RtProcessor& pr = proc(p);
      const sim::StepAction& act = acts[i];
      for (std::uint32_t g = 0; g < act.generate; ++g) {
        pr.queue.push_back(
            RtTask{sim::Task{static_cast<std::uint32_t>(step),
                             static_cast<std::uint32_t>(p), act.weight},
                   stamp_us});
      }
      pr.generated += act.generate;
      gen_total += act.generate;
      std::uint32_t c = act.consume;
      while (c > 0 && !pr.queue.empty()) {
        const RtTask t = pr.queue.front();
        pr.queue.pop_front();
        ++pr.consumed;
        ++cons_total;
        if (t.task.origin == p) ++pr.consumed_on_origin;
        if (cfg_.track_sojourn) {
          out_.sojourn_steps.add(step - t.task.birth_step);
        }
        if (cfg_.time_sojourn) out_.sojourn_us.add(stamp_us - t.birth_us);
        if (cfg_.spin_work != 0) spin(cfg_.spin_work);
        --c;
      }
      // Dry = leftover consume budget (the loop invariant makes c > 0 imply
      // an emptied queue): this processor is a steal thief this step. Its
      // post-consume load is final here, so the candidates need no extra
      // pass.
      if (steal_on) {
        steal_.offer(static_cast<std::uint32_t>(p),
                     static_cast<std::uint32_t>(pr.queue.size()), c > 0);
      }
    }
  }
  if (telemetry_) {
    telem_.generated += gen_total;
    telem_.consumed += cons_total;
  }
}

void ShardKernel::end_step(std::uint64_t step, bool phase_step,
                           std::uint64_t scattered) {
  // The engine's refresh_load_aggregates, as one blob-borne reduction.
  std::uint64_t local_load = 0, local_max = 0;
  for (const RtProcessor& p : procs_) {
    const std::uint64_t l = p.queue.size();
    local_load += l;
    if (l > local_max) local_max = l;
  }
  const std::uint64_t blob[4] = {local_load, local_max, phase_matched_,
                                 scattered};
  const Comm::Blobs all = exchange(blob);
  std::uint64_t sys = 0, mx = 0, matched = 0, scat = 0;
  for (const std::vector<std::uint64_t>& b : all) {
    sys += b[0];
    if (b[1] > mx) mx = b[1];
    matched += b[2];
    scat += b[3];
  }
  sys_load_ = sys;
  if (index_ != 0) return;
  if (mx > out_.running_max) out_.running_max = mx;
  if (scat > 0) ++out_.msg.transfers;  // the sim baseline's one action
  if (phase_step) {
    RtPhaseSummary ps;
    ps.phase_index = phase_count_ - 1;
    ps.start_step = step;
    ps.end_step = step;  // instant-fabric phases resolve within the step
    ps.completed = true;
    ps.heavy_procs = phase_heavy_all_;
    ps.num_heavy = ps.heavy_procs.size();
    ps.num_light = phase_light_total_;
    ps.matched = matched;
    ps.unmatched = ps.num_heavy - matched;
    ps.requests = ph_requests_;
    ps.levels_used = ph_levels_;
    ps.collision_rounds = ph_rounds_;
    CLB_TRACE_EVENT(cfg_.trace, obs::EventKind::kPhaseEnd, step, 0, 0,
                    ps.phase_index, ps.matched, ps.unmatched);
    out_.phases.push_back(std::move(ps));
  }
}

// ---------------------------------------------------------------------------
// Transfers
// ---------------------------------------------------------------------------

void ShardKernel::send_transfer(std::uint64_t step, std::uint32_t root,
                                std::uint32_t partner, std::uint64_t ordinal,
                                std::uint64_t count) {
  RtProcessor& src = proc(root);
  if (count == 0) return;
  if (count > src.queue.size()) {
    count = src.queue.size();
    ++out_.clamped;
  }
  Msg m;
  m.kind = MsgKind::kTransfer;
  m.key = root;
  m.a = root;
  m.b = partner;
  send_tasks_.clear();
  src.queue.extract_back(count, send_tasks_);
  src.tasks_sent += count;
  ++out_.msg.transfers;
  out_.msg.tasks_moved += count;
  const LedgerEntry entry{step, root, partner,
                          static_cast<std::uint32_t>(count)};
  out_.ledger.push_back(entry);
  CLB_TRACE_EVENT(cfg_.trace, obs::EventKind::kTransfer, step, root, partner,
                  count);
  if (cfg_.mutation == sim::MutationKind::kMailboxDrop &&
      ordinal == cfg_.mutation_ordinal) {
    // The broken mailbox: the sender's books all say the transfer
    // happened, the receiver never sees it.
    out_.dropped_tasks += count;
    out_.dropped.push_back(entry);
    ++out_.mutation_applied;
    return;
  }
  if (cfg_.mutation == sim::MutationKind::kLinkLossNoRetransmit &&
      lat_policy_ && links_.mutation_lose_first_attempt(root, partner)) {
    // The lossy wire without retransmit: the payload evaporates mid-flight
    // and NOTHING books the loss — the tasks are gone from every account,
    // which is exactly what the conservation oracle must convict.
    ++out_.mutation_applied;
    return;
  }
  comm_.send(partner, m, send_tasks_);
}

void ShardKernel::apply_staged_transfers(std::uint64_t step,
                                         std::uint64_t base,
                                         std::uint64_t total) {
  // Canonical order: ascending source processor. Shards are contiguous, so
  // base + local index is the transfer's global (step, source) ordinal —
  // the same protocol event at every shard count (the mailbox-drop victim
  // selection relies on this).
  std::sort(staged_.begin(), staged_.end(),
            [](const Staged& a, const Staged& b) { return a.from < b.from; });
  std::uint64_t k = 0;
  for (const Staged& st : staged_) {
    send_transfer(step, st.from, st.to, base + (++k),
                  cfg_.params.transfer_amount);
  }
  staged_.clear();
  transfer_seen_ += total;
}

// ---------------------------------------------------------------------------
// Steal, scatter, zoo
// ---------------------------------------------------------------------------

void ShardKernel::run_steal(std::uint64_t step) {
  // Exchange only the candidates; every shard merges them into the same
  // decision list, and with it the canonical transfer numbering (the same
  // ordinal stream mailbox-drop victims are chosen from).
  blob_.clear();
  steal_.encode(blob_);
  const std::vector<sim::Transfer> ds =
      sim::steal_merge(exchange(blob_), cfg_.steal);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const sim::Transfer& d = ds[i];
    // The thief initiated this move (mirrors the engine's booking).
    if (owns(d.to)) ++proc(d.to).balance_initiations;
    if (!owns(d.from)) continue;
    RtProcessor& src = proc(d.from);
    // Mutation (steal-duplicate-task): remember the newest task about to
    // ship and clone it back onto the victim — the steal that copies
    // instead of moving. Conservation breaks by one task per steal.
    std::optional<RtTask> dup;
    if (cfg_.mutation == sim::MutationKind::kStealDuplicateTask) {
      dup = src.queue[src.queue.size() - 1];
    }
    send_transfer(step, d.from, d.to, transfer_seen_ + i + 1, d.count);
    if (dup) {
      src.queue.push_back(*dup);
      ++out_.mutation_applied;
    }
    ++out_.steal_events;
    out_.stolen_tasks += d.count;
    if (telemetry_) {
      ++telem_.steals;
      telem_.stolen_tasks += d.count;
    }
  }
  transfer_seen_ += ds.size();
  (void)exchange({});
  drain(true);
  apply_sorted_transfers();
}

std::uint64_t ShardKernel::run_scatter(std::uint64_t step) {
  // Pop every task in the shard front-to-back and throw it at an i.u.a.r.
  // processor. Targets come from a per-processor counter stream keyed by
  // (proc, step) so the draw sequence is partition-invariant.
  std::uint64_t scattered = 0;
  for (std::uint64_t p = begin_; p < end_; ++p) {
    RtProcessor& pr = proc(p);
    rng::CounterRng rng(cfg_.seed, rng::hash_combine(kScatterSalt, p), step);
    std::uint64_t seq = 0;
    while (!pr.queue.empty()) {
      Msg m;
      m.kind = MsgKind::kScatter;
      m.key = (p << 32) | seq;
      m.a = static_cast<std::uint32_t>(p);
      m.b = static_cast<std::uint32_t>(rng::bounded(rng, cfg_.n));
      const RtTask t = pr.queue.front();
      pr.queue.pop_front();
      comm_.send(m.b, m, {&t, 1});
      ++seq;
    }
    scattered += seq;
  }
  out_.msg.control += scattered;  // one routing message per task (as in sim)
  out_.msg.tasks_moved += scattered;
  (void)exchange({});
  drain();
  std::sort(batch_.msgs.begin(), batch_.msgs.end(), key_less);
  for (const Msg& m : batch_.msgs) {
    CLB_DCHECK(m.kind == MsgKind::kScatter, "unexpected message in scatter");
    proc(m.b).queue.push_back(batch_.payload(m)[0]);
  }
  batch_.clear();
  return scattered;
}

void ShardKernel::run_zoo(std::uint64_t step) {
  // Exchange the fresh shard board (post-generation loads + liveness) and
  // assemble the full board on every shard.
  blob_.clear();
  for (std::uint64_t p = begin_; p < end_; ++p) {
    blob_.push_back(proc(p).queue.size() |
                    (static_cast<std::uint64_t>(liveness_.alive(p, step))
                     << 32));
  }
  std::size_t p = 0;
  for (const std::vector<std::uint64_t>& b : exchange(blob_)) {
    for (const std::uint64_t v : b) {
      board_[p] = static_cast<std::uint32_t>(v);
      alive_board_[p] = static_cast<std::uint8_t>(v >> 32);
      ++p;
    }
  }
  const bool stale = cfg_.policy == RtPolicy::kStaleSq;
  if (stale && step % cfg_.stale.staleness == 0) {
    // Broadcast step: shard 0 books the n control messages, as the serial
    // balancer does.
    stale_board_ = board_;
    if (index_ == 0) out_.msg.control += cfg_.n;
  }

  // Replicated decisions: every shard evaluates the same pure rule on the
  // same boards, so the list — and the canonical ascending-sender transfer
  // numbering derived from it — is identical everywhere.
  std::vector<sim::Transfer> ds;
  if (stale) {
    const bool cheat = cfg_.mutation == sim::MutationKind::kStaleFreeLunch;
    ds = baselines::stale_sq_decisions(cfg_.n, board_,
                                       cheat ? board_ : stale_board_,
                                       alive_board_, cfg_.stale);
    // Mutation witness: count the steps on which the free lunch actually
    // changed the decisions.
    if (cheat && index_ == 0 &&
        ds != baselines::stale_sq_decisions(cfg_.n, board_, stale_board_,
                                            alive_board_, cfg_.stale)) {
      ++out_.mutation_applied;
    }
  } else {
    std::vector<std::uint32_t> probed;
    ds = baselines::local_search_decisions(cfg_.n, cfg_.seed, step, board_,
                                           alive_board_, cfg_.ls, &probed);
    if (index_ == 0) out_.msg.queries += probed.size();
  }

  // Own-shard sends under the global numbering (list order == ascending
  // sender; shards are contiguous, so filtering by ownership keeps it).
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const sim::Transfer& d = ds[i];
    if (!owns(d.from)) continue;
    ++proc(d.from).balance_initiations;
    send_transfer(step, d.from, d.to, transfer_seen_ + i + 1, d.count);
  }
  transfer_seen_ += ds.size();
  (void)exchange({});
  drain(true);
  apply_sorted_transfers();
}

// ---------------------------------------------------------------------------
// Threshold phase (instant fabric): Figure 2's trees, Figure 1's game
// ---------------------------------------------------------------------------

std::uint64_t ShardKernel::classify() {
  const core::PhaseParams& pp = cfg_.params;
  heavy_local_.clear();
  std::uint64_t light_count = 0;
  for (std::uint64_t p = begin_; p < end_; ++p) {
    RtProcessor& pr = proc(p);
    const std::uint64_t load = pr.queue.size();
    if (load >= pp.heavy_threshold) {
      heavy_local_.push_back(static_cast<std::uint32_t>(p));
      ++pr.balance_initiations;
    } else if (load <= pp.light_threshold) {
      stamps(p).light_epoch = phase_epoch_;
      ++light_count;
    }
  }
  return light_count;
}

void ShardKernel::run_phase(std::uint64_t step) {
  ++phase_epoch_;
  const std::uint64_t phase_index = phase_count_++;
  ph_requests_ = 0;
  ph_levels_ = 0;
  ph_rounds_ = 0;

  // Classification from post-generation loads. Blob: [heavy count, light
  // count, heavy procs...] — the counts feed the slot prefix, the heavy
  // lists feed shard 0's phase summary.
  const std::uint64_t light_count = classify();
  blob_.assign({heavy_local_.size(), light_count});
  blob_.insert(blob_.end(), heavy_local_.begin(), heavy_local_.end());
  const Comm::Blobs all = exchange(blob_);

  std::uint64_t heavy_base = 0, total_heavy = 0;
  for (unsigned i = 0; i < shards_; ++i) {
    if (i < index_) heavy_base += all[i][0];
    total_heavy += all[i][0];
  }
  if (index_ == 0) {
    phase_heavy_all_.clear();
    phase_light_total_ = 0;
    for (const std::vector<std::uint64_t>& b : all) {
      phase_light_total_ += b[1];
      phase_heavy_all_.insert(phase_heavy_all_.end(), b.begin() + 2, b.end());
    }
    CLB_TRACE_EVENT(cfg_.trace, obs::EventKind::kPhaseBegin, step, 0, 0,
                    phase_index, total_heavy, phase_light_total_);
  }

  // Level-1 nodes: the heavy processors themselves, slots in ascending
  // processor order (shard order = processor order by construction).
  nodes_.clear();
  for (std::size_t i = 0; i < heavy_local_.size(); ++i) {
    Node node;
    node.slot = heavy_base + i;
    node.proc = heavy_local_[i];
    node.root = heavy_local_[i];
    nodes_.push_back(std::move(node));
  }

  lap(obs::Stage::kClassify);

  std::uint64_t node_count = total_heavy;
  std::uint32_t level = 0;
  while (level < cfg_.params.tree_depth && node_count > 0) {
    ++level;
    node_count = run_level(step, phase_index, level, node_count);
  }
  if (level > 0) {  // deliver the last level's transfers
    (void)exchange({});
    drain();
    CLB_DCHECK(batch_.empty(), "only transfers may be in flight after a phase");
    lap(obs::Stage::kTreeTransfers);
  }

  for (const std::uint32_t h : heavy_local_) {
    if (stamps(h).matched_epoch == phase_epoch_) ++phase_matched_;
  }
  // Published on the end-of-step exchange.
}

std::uint64_t ShardKernel::run_level(std::uint64_t step,
                                     std::uint64_t phase_index,
                                     std::uint32_t level,
                                     std::uint64_t node_count) {
  const collision::CollisionConfig& game = cfg_.game;
  const std::uint64_t game_seed = rng::hash_combine(
      rng::hash_combine(cfg_.seed, kGameSalt),
      rng::hash_combine(phase_index, level));
  ++level_epoch_;
  ph_levels_ = level;
  ph_requests_ += node_count;

  for (Node& node : nodes_) {
    collision::draw_targets(cfg_.n, game_seed, node.slot, node.proc, game.a,
                            node.targets);
    node.accepted_mask = 0;
    node.accept_count = 0;
    node.round_replies = 0;
    node.active = true;
    node.status_nonapp = 0;
  }
  const auto node_at = [&](std::uint64_t slot) -> Node& {
    auto it = std::lower_bound(
        nodes_.begin(), nodes_.end(), slot,
        [](const Node& n, std::uint64_t s) { return n.slot < s; });
    CLB_DCHECK(it != nodes_.end() && it->slot == slot, "unknown tree node");
    return *it;
  };

  // ---- collision rounds (Figure 1) as 3-exchange supersteps ----
  const std::uint32_t max_rounds = collision::round_bound(cfg_.n, game);
  std::uint64_t active_total = node_count;
  std::uint32_t round = 0;
  while (round < max_rounds && active_total > 0) {
    ++round;
    ++round_epoch_;

    // R1: active requests query their not-yet-accepted targets.
    for (const Node& node : nodes_) {
      if (!node.active) continue;
      for (std::uint32_t j = 0; j < game.a; ++j) {
        if (node.accepted_mask & (1u << j)) continue;
        Msg m;
        m.kind = MsgKind::kQuery;
        m.key = (node.slot << 4) | j;
        m.a = node.targets[j];
        m.b = node.root;
        comm_.send(node.targets[j], m);
        ++out_.msg.queries;
      }
    }
    (void)exchange({});
    drain();

    // R2: each queried processor counts arrivals, then accepts all or none
    // (count-based, so no sort is needed for determinism), replying per
    // accepted query.
    for (const Msg& m : batch_.msgs) {
      CLB_DCHECK(m.kind == MsgKind::kQuery, "unexpected message in R2");
      Stamps& t = stamps(m.a);
      if (t.incoming_epoch != round_epoch_) {
        t.incoming_epoch = round_epoch_;
        t.incoming = 0;
      }
      ++t.incoming;
    }
    for (const Msg& m : batch_.msgs) {
      Stamps& t = stamps(m.a);
      if (t.decide_epoch != round_epoch_) {
        t.decide_epoch = round_epoch_;
        const std::uint32_t prior =
            t.accept_epoch == level_epoch_ ? t.accepted_total : 0;
        t.accepts_round =
            t.incoming <= game.c && prior + t.incoming <= game.c;
        if (t.accepts_round) {
          t.accept_epoch = level_epoch_;
          t.accepted_total = prior + t.incoming;
          out_.msg.accepts += t.incoming;
        }
      }
      if (t.accepts_round) {
        Msg r;
        r.kind = MsgKind::kAccept;
        r.key = m.key;
        comm_.send(m.b, r);  // to the requesting node's root
      }
    }
    (void)exchange({});
    drain();

    // R3: requests collect accepts — mark reply bits first, then append in
    // j order (the simulator's pass-3 order); >= b accepts leaves the game.
    for (const Msg& m : batch_.msgs) {
      CLB_DCHECK(m.kind == MsgKind::kAccept, "unexpected message in R3");
      node_at(m.key >> 4).round_replies |= 1u << (m.key & 15);
    }
    std::uint64_t local_active = 0;
    for (Node& node : nodes_) {
      if (!node.active) continue;
      if (node.round_replies != 0) {
        for (std::uint32_t j = 0; j < game.a; ++j) {
          if (node.round_replies & (1u << j)) {
            node.accepted_mask |= 1u << j;
            node.accepted[node.accept_count++] = node.targets[j];
          }
        }
        node.round_replies = 0;
      }
      if (node.accept_count >= game.b) node.active = false;
      if (node.active) ++local_active;
    }
    active_total = 0;
    for (const std::vector<std::uint64_t>& b : exchange({&local_active, 1})) {
      active_total += b[0];
    }
  }
  ph_rounds_ += round;
  lap(obs::Stage::kCollisionRounds);

  // ---- children announcement (first two accepts become tree children) ----
  for (const Node& node : nodes_) {
    const std::uint32_t k = std::min<std::uint32_t>(node.accept_count, 2);
    for (std::uint32_t s = 0; s < k; ++s) {
      Msg m;
      m.kind = MsgKind::kChild;
      m.key = (node.slot << 1) | s;
      m.a = node.accepted[s];
      m.b = node.root;
      comm_.send(node.accepted[s], m);
    }
  }
  (void)exchange({});
  drain();
  lap(obs::Stage::kTreeChildren);

  // ---- applicative decision at the children (the balancer's set_assigned
  // walk). Sorted by (g, s): the first edge in global (request, child)
  // order reserves a still-light, still-unassigned processor — exactly the
  // simulator's iteration order. One report per edge goes to the root's
  // shard; an applicative one is the paper's id message.
  std::sort(batch_.msgs.begin(), batch_.msgs.end(), key_less);
  for (const Msg& m : batch_.msgs) {
    CLB_DCHECK(m.kind == MsgKind::kChild, "unexpected message in L2");
    Stamps& qp = stamps(m.a);
    const bool applicative = qp.light_epoch == phase_epoch_ &&
                             qp.assigned_epoch != phase_epoch_;
    if (applicative) {
      qp.assigned_epoch = phase_epoch_;
      ++out_.msg.id_messages;
    }
    Msg st = m;  // the edge's key and child
    st.kind = MsgKind::kChildStatus;
    st.b = applicative ? 1 : 0;
    comm_.send(m.b, st);
  }
  (void)exchange({});
  drain();

  // ---- at the root's shard, in (g, s) order: the first applicative edge
  // matches the root (lowest edge wins, as in the simulator); every
  // non-applicative edge counts toward its parent's sibling rule.
  std::sort(batch_.msgs.begin(), batch_.msgs.end(), key_less);
  for (const Msg& m : batch_.msgs) {
    CLB_DCHECK(m.kind == MsgKind::kChildStatus, "unexpected message in L3");
    Node& parent = node_at(m.key >> 1);
    Stamps& root = stamps(parent.root);
    if (m.b == 0) {
      ++parent.status_nonapp;
    } else if (root.matched_epoch != phase_epoch_) {
      root.matched_epoch = phase_epoch_;
      // Staged; shipped below under the canonical (step, source) numbering.
      staged_.push_back(Staged{parent.root, m.a});
    }
  }
  scan_.clear();
  for (const Node& node : nodes_) {
    const std::uint32_t k = std::min<std::uint32_t>(node.accept_count, 2);
    std::uint32_t forward = 0;
    if (k == 2 && node.status_nonapp == 2) {
      // Sibling rule: both children learn (two control messages) that
      // neither was applicative and carry the search down.
      out_.msg.control += 2;
      forward = 2;
    } else if (k == 1 && node.status_nonapp == 1) {
      forward = 1;
    }
    if (forward != 0) {
      ScanEntry e;
      e.g = node.slot;
      e.root = node.root;
      e.count = forward;
      e.child[0] = node.accepted[0];
      if (forward == 2) e.child[1] = node.accepted[1];
      scan_.push_back(e);
    }
  }

  // Blob: [staged count, (g, count) pairs...] — the transfer prefix scan
  // AND the next-level numbering input, so every shard replays the same
  // merge and the global child numbering needs no leader.
  blob_.assign({staged_.size()});
  for (const ScanEntry& e : scan_) {
    blob_.push_back(e.g);
    blob_.push_back(e.count);
  }
  const Comm::Blobs all = exchange(blob_);
  std::uint64_t staged_base = transfer_seen_;
  std::uint64_t staged_total = 0;
  for (unsigned i = 0; i < shards_; ++i) {
    if (i < index_) staged_base += all[i][0];
    staged_total += all[i][0];
  }
  // Dense global numbering for next-level nodes: merge the per-shard
  // (g, count) lists by parent slot g (each ascends in g, so nodes_ stays
  // sorted by slot).
  std::vector<std::size_t> pos(shards_, 1);
  std::uint64_t base = 0;
  for (;;) {
    unsigned best = shards_;
    std::uint64_t best_g = 0;
    for (unsigned i = 0; i < shards_; ++i) {
      if (pos[i] >= all[i].size()) continue;
      const std::uint64_t g = all[i][pos[i]];
      if (best == shards_ || g < best_g) {
        best = i;
        best_g = g;
      }
    }
    if (best == shards_) break;
    if (best == index_) scan_[(pos[best] - 1) / 2].base = base;
    base += all[best][pos[best] + 1];
    pos[best] += 2;
  }
  const std::uint64_t next_node_count = base;
  // The next level's nodes stay with their root, on this shard.
  nodes_.clear();
  for (const ScanEntry& e : scan_) {
    for (std::uint32_t s = 0; s < e.count; ++s) {
      Node node;
      node.slot = e.base + s;
      node.proc = e.child[s];
      node.root = e.root;
      nodes_.push_back(node);
    }
  }
  lap(obs::Stage::kTreeIds);

  // ---- staged transfers under the replicated (step, source) numbering;
  // the next exchange (the next level's R1 or the phase's closing one)
  // delivers them, and its drain applies them.
  apply_staged_transfers(step, staged_base, staged_total);
  lap(obs::Stage::kTreeTransfers);
  return next_node_count;
}

// ===========================================================================
// Latency fabric (RtConfig::latency >= 1): the dist:: threshold protocol,
// sharded. Every protocol message is stamped with its delivery step (due =
// LinkModel::plan over the DeliveryPolicy wire delay) and its canonical
// net::SeqKey; the recipient's owner files it into its shard of the unified
// net::Fabric and only processes it once its step matures — so phases take
// real time and their duration scales with the latency (and the link
// model's queueing and retransmit schedules), exactly as in dist::.
//
// One latency step (mirrors dist::DistThresholdBalancer::on_step against
// sim::Engine's step schedule; exchanges marked):
//
//   S1  process own due messages (handle_deliveries): queries batched per
//       recipient, accepts/ids/forwards handled inline, transfer commands
//       staged. Sends stamped (kDeliver, recipient, k).
//   S2  evaluate own outstanding requests (timeouts, retries, forwards),
//       stamped (kEvaluate, (activation step, proc), k).
//   --- exchange A: {active, fab_sent, fab_delivered, staged, matched} ---
//   S3  replicated phase decision: finish when drained (no active requests,
//       nothing in flight) or overdue (forced: every shard discards its
//       undelivered messages — dist's net reset). Then drain the S1/S2
//       sends: discard them when forced, file them by due step otherwise.
//   S4  start a phase when idle and past the gap: classify own shard from
//       current queue sizes (pre-transfer, as the engine's balancer sees
//       them), stamp lights, launch requests for own heavy processors.
//   S5  apply staged transfers in canonical (step, source) order via the
//       exchanged prefix counts; payload messages (due = step) carry the
//       tasks to the partner's owner.
//   --- exchange B: {light count, heavy procs...} on a phase start ---
//   S6  drain: apply due-now payloads, file everything else by due step.
//
// The closing end-of-step exchange finds nothing in flight outside the
// fabric, so the next step's S1 sees a complete, quiescent fabric.
// ===========================================================================

void ShardKernel::lat_send(std::uint64_t step, Envelope e) {
  e.seq = net::SeqKey{step, seq_stage_, seq_major_, seq_minor_++};
  // The link model decides when the send matures (wire delay plus queueing
  // and retransmit schedule); `e.from` is always owned by this shard, so
  // the sharded per-link clocks replay the serial fabric's exactly.
  const net::SendPlan plan =
      links_.plan(e.from, e.to, step, lat_policy_->delay(e.from, e.to));
  std::uint64_t due = plan.due;
  if (cfg_.mutation == sim::MutationKind::kDelaySkew &&
      ++skew_ordinal_ == cfg_.mutation_ordinal && due > step + 1) {
    --due;  // the skewed fabric: one message matures a superstep early
    ++out_.mutation_applied;
  }
  e.due = due;
  ++out_.fab_sent;
  // Transfer commands are staged (and popped) at the source's owner; every
  // other kind goes to its protocol recipient.
  const bool cmd = e.msg.kind == MsgKind::kTransferCmd;
  const std::uint32_t route = cmd ? e.from : e.to;
  if (plan.dup && cfg_.mutation == sim::MutationKind::kDupDelivery && cmd) {
    // The dup-delivery mutation: materialise the ack-loss duplicate the
    // clean fabric suppresses. The clone matures one rto later, stages the
    // same transfer a second time, and the ledger diverges from the shadow.
    Envelope d = e;
    d.due = plan.dup_due;
    ++out_.fab_sent;  // the clone matures too; drain detection stays exact
    ++out_.mutation_applied;
    comm_.send(route, d);
  }
  comm_.send(route, e);
}

void ShardKernel::lat_send_pending_queries(std::uint64_t step,
                                           std::uint32_t p) {
  LatReq& r = req_[p - begin_];
  // The round ends when the slowest outstanding target could have replied.
  std::uint64_t worst_delay = 1;
  for (std::uint32_t j = 0; j < cfg_.game.a; ++j) {
    if (r.accepted_mask & (1u << j)) continue;
    lat_send(step, envelope(MsgKind::kQuery, p, r.targets[j], r.root,
                            r.level));
    ++out_.msg.queries;
    worst_delay = std::max(worst_delay, lat_policy_->delay(p, r.targets[j]));
  }
  r.await_until = step + 2ULL * worst_delay;
}

void ShardKernel::lat_start_request(std::uint64_t step, std::uint32_t p,
                                    std::uint32_t root, std::uint32_t level) {
  LatReq& r = req_[p - begin_];
  CLB_DCHECK(!r.active, "processor already runs a request this phase");
  r = LatReq{};
  r.root = root;
  r.act_step = step;
  r.level = static_cast<std::uint8_t>(level);
  r.active = true;
  // Fixed i.u.a.r. target set, excluding self — the same counter stream as
  // dist::DistThresholdBalancer::start_request, draw for draw.
  rng::CounterRng rng(cfg_.seed,
                      rng::hash_combine(net::kDistTargetSalt,
                                        rng::hash_combine(p, level)),
                      lat_phase_index_);
  for (std::uint32_t j = 0; j < cfg_.game.a; ++j) {
    for (;;) {
      const auto cand = static_cast<std::uint32_t>(rng::bounded(rng, cfg_.n));
      if (cand == p) continue;
      if (std::find(r.targets, r.targets + j, cand) == r.targets + j) {
        r.targets[j] = cand;
        break;
      }
    }
  }
  lat_active_.push_back(p);
  lat_send_pending_queries(step, p);
}

void ShardKernel::lat_process_due(std::uint64_t step) {
  due_batch_.clear();
  fabric_.take_due(step, due_batch_);
  std::vector<Envelope>& due = due_batch_;
  out_.fab_delivered += due.size();
  // Group by the processor whose state the message updates (the source for
  // staged transfer commands, the recipient otherwise); the canonical seq
  // stamp orders processing within a group — the exact sort
  // dist::Network::deliver runs.
  const auto group_of = [](const Envelope& e) {
    return e.msg.kind == MsgKind::kTransferCmd ? e.from : e.to;
  };
  net::sort_due_batch(
      due, group_of,
      [](const Envelope& e) -> const net::SeqKey& { return e.seq; });
  std::size_t i = 0;
  while (i < due.size()) {
    const std::uint32_t recipient = group_of(due[i]);
    seq_stage_ = net::SendStage::kDeliver;
    seq_major_ = recipient;
    seq_minor_ = 0;
    query_batch_.clear();
    std::size_t j = i;
    for (; j < due.size() && group_of(due[j]) == recipient; ++j) {
      const Envelope& e = due[j];
      const Msg& m = e.msg;
      CLB_DCHECK(e.due == step, "ring slot held a message for another step");
      switch (m.kind) {
        case MsgKind::kQuery:
          query_batch_.push_back(&e);
          break;
        case MsgKind::kAccept: {
          LatReq& r = req_[recipient - begin_];
          if (!r.active) break;  // stale accept after request resolved
          for (std::uint32_t t = 0; t < cfg_.game.a; ++t) {
            if (r.targets[t] == e.from && !(r.accepted_mask & (1u << t))) {
              r.accepted_mask =
                  static_cast<std::uint8_t>(r.accepted_mask | (1u << t));
              if (r.accept_count < 2) {
                r.child[r.accept_count] = e.from;
                r.child_applicative[r.accept_count] = m.b != 0;
              }
              ++r.accept_count;
              break;
            }
          }
          break;
        }
        case MsgKind::kId: {
          Stamps& root = stamps(recipient);
          if (root.matched_epoch != phase_epoch_) {
            root.matched_epoch = phase_epoch_;
            // Ship the block: the command matures delay(root, partner)
            // steps from now at this same owner, which then pops the tasks.
            lat_send(step, envelope(MsgKind::kTransferCmd, recipient, e.from));
          }
          break;
        }
        case MsgKind::kForward:
          if (!req_[recipient - begin_].active) {
            lat_start_request(step, recipient, m.a, m.b);
          }
          ++out_.msg.control;
          break;
        case MsgKind::kTransferCmd:
          staged_.push_back(Staged{e.from, e.to});
          break;
        default:
          CLB_DCHECK(false, "unexpected message kind in latency drain");
          break;
      }
    }
    if (!query_batch_.empty()) {
      // Collision rule: answer all queries of this step iff they fit within
      // the remaining per-phase capacity c; otherwise answer none (the
      // requesters time out and retry).
      Stamps& tp = stamps(recipient);
      const std::uint32_t already =
          tp.accept_epoch == phase_epoch_ ? tp.accepted_total : 0;
      const std::size_t count = query_batch_.size();
      if (count <= cfg_.game.c && already + count <= cfg_.game.c) {
        tp.accept_epoch = phase_epoch_;
        tp.accepted_total = already + static_cast<std::uint32_t>(count);
        for (const Envelope* q : query_batch_) {
          bool applicative = false;
          if (tp.light_epoch == phase_epoch_ &&
              tp.assigned_epoch != phase_epoch_) {
            applicative = true;
            tp.assigned_epoch = phase_epoch_;
            // Announce directly to the boss (its id rode in the query).
            lat_send(step, envelope(MsgKind::kId, recipient, q->msg.a));
            ++out_.msg.id_messages;
          }
          lat_send(step, envelope(MsgKind::kAccept, recipient, q->from,
                                  q->msg.a, applicative ? 1u : 0u));
          ++out_.msg.accepts;
        }
      }
    }
    i = j;
  }
  due.clear();
}

void ShardKernel::lat_evaluate(std::uint64_t step) {
  std::size_t wr = 0;
  for (const std::uint32_t p : lat_active_) {
    LatReq& r = req_[p - begin_];
    if (!r.active) continue;  // resolved elsewhere (defensive)
    if (step < r.await_until) {
      lat_active_[wr++] = p;
      continue;
    }
    seq_stage_ = net::SendStage::kEvaluate;
    seq_major_ = net::evaluate_major(r.act_step, p);
    seq_minor_ = 0;
    if (r.accept_count >= cfg_.game.b) {
      // Request complete. Applicative children already announced
      // themselves; a fully non-applicative pair forwards the search.
      const std::uint32_t kids = std::min<std::uint32_t>(r.accept_count, 2);
      bool any_applicative = false;
      for (std::uint32_t k = 0; k < kids; ++k) {
        any_applicative |= r.child_applicative[k];
      }
      if (!any_applicative && r.level < cfg_.params.tree_depth) {
        for (std::uint32_t k = 0; k < kids; ++k) {
          lat_send(step, envelope(MsgKind::kForward, p, r.child[k], r.root,
                                  static_cast<std::uint32_t>(r.level + 1)));
        }
      }
      r.active = false;
    } else if (r.round < round_budget_) {
      ++r.round;
      lat_send_pending_queries(step, p);
      lat_active_[wr++] = p;
    } else {
      ++lat_failed_;
      r.active = false;
    }
  }
  lat_active_.resize(wr);
}

void ShardKernel::run_lat_protocol(std::uint64_t step) {
  // S1 + S2: deliveries, then request evaluation (dist's on_step order).
  lat_process_due(step);
  lat_evaluate(step);

  std::uint64_t matched_local = 0;
  for (const std::uint32_t h : heavy_local_) {
    if (stamps(h).matched_epoch == phase_epoch_) ++matched_local;
  }
  const std::uint64_t a_blob[5] = {lat_active_.size(), out_.fab_sent,
                                   out_.fab_delivered, staged_.size(),
                                   matched_local};
  // S3: the replicated phase decision — every shard computes the same
  // totals from the exchanged blobs, so every shard takes the same branch.
  std::uint64_t active_total = 0, sent = 0, delivered = 0;
  std::uint64_t staged_total = 0, staged_base = transfer_seen_;
  std::uint64_t matched_total = 0;
  {
    const Comm::Blobs all = exchange(a_blob);  // exchange A
    for (unsigned i = 0; i < shards_; ++i) {
      active_total += all[i][0];
      sent += all[i][1];
      delivered += all[i][2];
      staged_total += all[i][3];
      if (i < index_) staged_base += all[i][3];
      matched_total += all[i][4];
    }
  }
  // Fabric depth sampling. The totals are replicated, so only shard 0
  // records them — merging would multiply the sums by the shard count.
  if (telemetry_ && index_ == 0) {
    const std::uint64_t flight = sent - delivered;
    if (flight > telem_.fabric_max_in_flight) {
      telem_.fabric_max_in_flight = flight;
    }
    telem_.fabric_flight_sum += flight;
    ++telem_.fabric_flight_samples;
  }
  bool forced = false;
  if (lat_running_) {
    const bool drained = active_total == 0 && sent == delivered;
    const bool overdue = step - lat_phase_start_ >= max_phase_steps_;
    if (drained || overdue) {
      forced = overdue && !drained;
      if (telemetry_) {
        ++telem_.phases;
        telem_.phase_steps_hist.add(step - lat_phase_start_);
      }
      if (forced) {
        // dist's forced net reset, shard by shard: every undelivered
        // message is in its owner's fabric or among the S1/S2 sends drained
        // below; both are booked as delivered so the fabric reads as
        // drained everywhere. The link clocks reset with it (dist::Network
        // ::reset does the same).
        for (const std::uint32_t p : lat_active_) req_[p - begin_].active = false;
        lat_active_.clear();
        fabric_.discard_pending([&](Envelope&) { ++out_.fab_delivered; });
        links_.reset();
      }
      if (index_ == 0) {
        RtPhaseSummary& ps = out_.phases.back();
        ps.end_step = step;
        ps.matched = matched_total;
        ps.unmatched = ps.num_heavy - matched_total;
        ps.forced = forced;
        ps.completed = true;
        CLB_TRACE_EVENT(cfg_.trace, obs::EventKind::kPhaseEnd, step, 0, 0,
                        ps.phase_index, ps.matched, ps.unmatched);
      }
      lat_running_ = false;
      lat_next_phase_ = step + cfg_.phase_gap;
    }
  }
  drain(true);
  CLB_DCHECK(batch_.msgs.empty(),
             "payloads cannot be in flight at the phase decision");
  for (const Envelope& e : batch_.envs) {
    if (forced) {
      ++out_.fab_delivered;
    } else {
      // Fabric::file DCHECKs due > now — the deterministic-replay guarantee.
      fabric_.file(step, e.due, e);
    }
  }
  batch_.clear();

  // S4: start a phase. Classification reads the queues before this step's
  // transfers are applied — the engine's balancer sees exactly that state.
  const bool phase_start = !lat_running_ && step >= lat_next_phase_;
  std::uint64_t light_count = 0;
  if (phase_start) {
    ++phase_epoch_;
    ++lat_phase_index_;
    lat_running_ = true;
    lat_phase_start_ = step;
    light_count = classify();
    for (const std::uint32_t h : heavy_local_) {
      seq_stage_ = net::SendStage::kPhaseStart;
      seq_major_ = h;
      seq_minor_ = 0;
      lat_start_request(step, h, h, 1);
    }
  }

  // S5: apply this step's staged transfers under the canonical numbering.
  apply_staged_transfers(step, staged_base, staged_total);
  blob_.clear();
  if (phase_start) {
    blob_.push_back(light_count);
    blob_.insert(blob_.end(), heavy_local_.begin(), heavy_local_.end());
  }
  const Comm::Blobs all = exchange(blob_);  // exchange B
  if (index_ == 0 && phase_start) {
    RtPhaseSummary ps;
    ps.phase_index = lat_phase_index_;
    ps.start_step = step;
    for (const std::vector<std::uint64_t>& b : all) {
      ps.num_light += b[0];
      ps.heavy_procs.insert(ps.heavy_procs.end(), b.begin() + 1, b.end());
    }
    ps.num_heavy = ps.heavy_procs.size();
    CLB_TRACE_EVENT(cfg_.trace, obs::EventKind::kPhaseBegin, step, 0, 0,
                    ps.phase_index, ps.num_heavy, ps.num_light);
    out_.phases.push_back(std::move(ps));
  }

  // S6: apply due-now payloads, file the rest.
  drain();
  CLB_DCHECK(batch_.msgs.empty(), "only transfers carry payloads");
  for (const Envelope& e : batch_.envs) fabric_.file(step, e.due, e);
  batch_.clear();
}

}  // namespace clb::rt
