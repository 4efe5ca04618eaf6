// The runtime's configuration and its per-processor / per-phase records,
// shared by both execution substrates: rt::Runtime (shards = threads) and
// transport::ProcessRuntime (shards = forked processes). validate() is the
// one place the rules live; both constructors refuse a config that breaks
// any of them and name every broken rule at once.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "baselines/local_search.hpp"
#include "baselines/stale_shortest_queue.hpp"
#include "collision/collision.hpp"
#include "core/liveness.hpp"
#include "core/params.hpp"
#include "net/fabric.hpp"
#include "net/topology.hpp"
#include "obs/trace.hpp"
#include "rt/arena.hpp"
#include "sim/mutation.hpp"
#include "sim/steal.hpp"

namespace clb::rt {

enum class RtPolicy {
  kNone,         ///< no balancing; the scaling baseline
  kThreshold,    ///< the paper's threshold balancer (atomic phases, defaults)
  kAllInAir,     ///< periodic global scatter (Concluding Remarks baseline)
  kStaleSq,      ///< stale shortest-queue (periodic load broadcasts)
  kLocalSearch,  ///< randomized pairwise local search (arXiv:1706.09997)
};

[[nodiscard]] const char* policy_name(RtPolicy p);

/// Message substrate selection. kInProc is rt::Runtime's native mode
/// (threads + outboxes in one address space). kUds/kTcp request the
/// cross-process transport: rt::Runtime itself refuses them — construct a
/// transport::ProcessRuntime from the same RtConfig instead (it forks one
/// process per shard and runs the same shard kernel over Unix-domain or
/// loopback-TCP sockets; see src/transport/).
enum class Transport : std::uint8_t { kInProc, kUds, kTcp };

[[nodiscard]] const char* transport_name(Transport t);

struct RtConfig {
  std::uint64_t n = 1024;
  std::uint64_t seed = 1;
  /// Shards (worker threads or shard processes); 0 = hardware_concurrency.
  /// Clamped to n either way (see resolve_workers).
  unsigned workers = 1;
  /// Every run sorts drained batches into the canonical order (see
  /// rt/kernel.hpp); there is no arrival-order mode. The field is kept only
  /// because benchmark/clb_bench.cpp assigns it: validate() refuses false.
  bool deterministic = true;
  /// Which substrate carries the protocol (see Transport). rt::Runtime
  /// only executes kInProc; the socket transports are selected through
  /// transport::ProcessRuntime, which consumes the same config.
  Transport transport = Transport::kInProc;
  RtPolicy policy = RtPolicy::kThreshold;
  /// Realised phase parameters; required (from_n) when policy==kThreshold.
  core::PhaseParams params{};
  collision::CollisionConfig game{};
  /// Iterations of register-churn work per consumed task (a measurement
  /// knob; 0 = consume is just the queue pop, as in the simulator).
  std::uint32_t spin_work = 0;
  /// Record step-counted sojourn (consume step - birth step) per task.
  bool track_sojourn = false;
  /// Record wall-clock sojourn in microseconds per task (one steady_clock
  /// read per block of 256 processors in generate/consume, which stamps
  /// every birth and consume of the block; meant for throughput benches).
  bool time_sojourn = false;
  /// Optional trace sink (borrowed); emits kPhaseBegin/kPhaseEnd/kTransfer.
  /// In-proc only: a pointer cannot cross a process boundary.
  obs::TraceSink* trace = nullptr;
  /// Message latency in steps (0 = the idealised instant fabric).
  /// With latency >= 1 the runtime executes the dist:: protocol over
  /// per-worker delay queues: a message sent in superstep t is only
  /// drainable at superstep t + delay(src, dst), with the delay coming
  /// from the same net::DeliveryPolicy dist::Network uses (uniform, or
  /// per-hop routing when `topology` is set). Requires policy kThreshold
  /// and game.a <= 8 (the dist protocol's fan-out cap).
  std::uint32_t latency = 0;
  /// Optional machine graph for per-hop routing (borrowed; must outlive
  /// the runtime). Latency mode only; in-proc only, like `trace`.
  const net::Topology* topology = nullptr;
  /// Link-model knobs (heterogeneous per-link jitter, bandwidth caps,
  /// loss + retransmit), keyed off `seed` — the exact same net::LinkModel
  /// dist::Network runs, sharded per worker. Latency mode only; defaults
  /// are the uniform/lossless degenerate case.
  net::NetConfig link{};
  /// Idle steps between phase completion and the next classification
  /// (latency mode; must be >= 1, as in dist::DistConfig).
  std::uint64_t phase_gap = 1;
  /// Failsafe phase duration; 0 derives the dist:: bound from depth, the
  /// Lemma 1 round budget and the latency.
  std::uint64_t max_phase_steps = 0;
  /// Stale shortest-queue knobs (policy == kStaleSq). Instant fabric only.
  baselines::StaleSqConfig stale{};
  /// Local-search knobs (policy == kLocalSearch). Instant fabric only.
  baselines::LocalSearchConfig ls{};
  /// Crash/recovery schedule: at the start of each listed step the crashed
  /// processor's queue is re-homed (FIFO order, nearest alive processor
  /// scanning upward — see core::LivenessSchedule): its owner ships the
  /// queue to the heir's owner in one exchange, and while down the
  /// processor neither generates, consumes, nor participates in balancing.
  /// Requires a liveness-aware policy (kNone, kStaleSq or kLocalSearch) on
  /// the instant fabric; the schedule is configuration, not randomness, so
  /// lockstep bit-identity against sim::Engine survives the crash.
  std::vector<core::CrashEvent> crashes;
  /// Deterministic work stealing (see sim/steal.hpp): when a processor's
  /// consume budget outlives its queue inside a step, it steals a batch
  /// from the most-loaded processor via the pure shared decision rule. Each
  /// shard exchanges only its first max_steals_per_step thieves and top
  /// victims, and every shard merges them into the same decision list — the
  /// same worker-count-invariant ordinal discipline as the mailbox-drop
  /// mutation. Instant fabric only; off by default so all lockstep tiers
  /// that predate it are untouched.
  sim::StealConfig steal{};
  /// Test-only fault injection: one deliberately broken behaviour (see
  /// sim/mutation.hpp), off by default. `mutation_ordinal` picks the victim
  /// of the ordinal kinds (k >= 1) and is 0 for the rest:
  ///   mailbox-drop   drop the k-th kTransfer in canonical (step, source)
  ///                  order — prefix-scanned across shards, so the victim is
  ///                  the same at every worker count (see
  ///                  ShardOutputs::dropped).
  ///                  The sender's books (pop, counters, ledger) stay.
  ///   delay-skew     deliver the shard's k-th fabric send one superstep
  ///                  early (latency >= 1; no-op when its delay is 1).
  ///   frame-corrupt  flip a bit in the shard's k-th remote kTransfer frame
  ///                  before signing (socket transports only).
  ///   link-loss-no-retransmit  a lost first attempt of a transfer payload
  ///                  is dropped, not retransmitted (lossy latency link).
  ///   dup-delivery   the ack-loss duplicate of a transfer command is
  ///                  filed instead of suppressed (lossy latency link).
  ///   crash-lose-queue  a crashed queue is cleared, not re-homed.
  ///   stale-free-lunch  kStaleSq decides on the fresh board, not the
  ///                  stale snapshot.
  ///   steal-duplicate-task  a steal clones the newest task of its batch
  ///                  back onto the victim.
  /// Each run-changing firing bumps the ShardOutputs::mutation_applied
  /// witness. The engine-only kinds (drop-task, dup-task, reorder,
  /// phantom-msg) are refused: they inject through sim::Engine.
  sim::MutationKind mutation = sim::MutationKind::kNone;
  std::uint64_t mutation_ordinal = 0;
  /// Per-worker hot-path telemetry (obs::WorkerTelemetry): superstep and
  /// barrier timing, mailbox traffic, drain batch sizes. Observation only —
  /// protocol outputs are bit-identical on or off.
  bool telemetry = false;
  /// Snapshot emitter: every `telemetry_interval` steps the leader appends
  /// one JSONL line per worker (cumulative counters + shard load) to
  /// telemetry_jsonl(). 0 = no snapshots. Requires `telemetry`.
  std::uint64_t telemetry_interval = 0;
  /// Tag stamped into every snapshot line, so benches can concatenate the
  /// timelines of several runs into one file and still group them.
  std::string telemetry_tag;
};

/// One applied transfer, for cross-validation against the simulator.
struct LedgerEntry {
  std::uint64_t step = 0;
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  std::uint32_t count = 0;

  bool operator==(const LedgerEntry&) const = default;
};

/// The canonical ledger order: (step, from, to), then count — a steal and a
/// phase transfer may share (step, from, to).
[[nodiscard]] inline bool ledger_less(const LedgerEntry& a,
                                      const LedgerEntry& b) {
  if (a.step != b.step) return a.step < b.step;
  if (a.from != b.from) return a.from < b.from;
  if (a.to != b.to) return a.to < b.to;
  return a.count < b.count;
}

/// Per-phase record shard 0 assembles (threshold policy).
/// Instant mode: phases are single-step, end_step == start_step. Latency
/// mode: phases span steps (duration = end_step - start_step), directly
/// comparable against dist::DistPhaseRecord.
struct RtPhaseSummary {
  std::uint64_t phase_index = 0;
  std::uint64_t start_step = 0;
  std::uint64_t end_step = 0;
  std::uint64_t num_heavy = 0;
  std::uint64_t num_light = 0;
  std::uint64_t matched = 0;    ///< heavy roots that found a light partner
  std::uint64_t unmatched = 0;
  std::uint64_t requests = 0;   ///< collision-game requests over all levels
  std::uint32_t levels_used = 0;
  std::uint32_t collision_rounds = 0;
  bool forced = false;          ///< latency mode: ended by the failsafe
  bool completed = false;       ///< end-of-phase fields are valid
  std::vector<std::uint32_t> heavy_procs;  ///< ascending processor ids
};

/// Per-processor state. Owned exclusively by the shard's kernel while a
/// run() is in flight; the main thread may inspect between runs (the
/// command barrier orders the accesses). Kept to the queue and the public
/// counters (80 bytes): the generate/consume sweep walks this array every
/// step. The threshold protocol's per-phase stamps live in the kernel
/// (ShardKernel::Stamps), allocated for kThreshold only.
struct RtProcessor {
  RtProcessor() = default;
  /// Binds the queue to its shard's arena (see rt/arena.hpp).
  explicit RtProcessor(TaskArena* arena) : queue(arena) {}

  TaskQueue queue;
  std::uint64_t generated = 0;
  std::uint64_t consumed = 0;
  std::uint64_t consumed_on_origin = 0;
  std::uint64_t tasks_sent = 0;
  std::uint64_t tasks_received = 0;
  std::uint64_t balance_initiations = 0;
};

/// Aborts naming `who`, p and n unless processor p exists (p < n).
void check_processor(std::uint64_t p, std::uint64_t n, const char* who);

/// check_processor, then aborts naming `who`, p, `birth_step` and `step` if
/// the task was born after `step`, the next to run (a negative sojourn).
void check_deposit(std::uint64_t p, std::uint64_t n, std::uint64_t birth_step,
                   std::uint64_t step, const char* who);

/// Every rule `cfg` breaks, one line each; empty when the config is valid.
/// Substrate-independent: each constructor appends what its own substrate
/// cannot carry before refusing (see refuse_invalid).
[[nodiscard]] std::vector<std::string> validate(const RtConfig& cfg);

/// Aborts naming every violation ("<who>: a; b; c") when there is any.
void refuse_invalid(const std::vector<std::string>& violations,
                    const char* who);

/// The shard count both substrates run: cfg.workers, or
/// hardware_concurrency when 0, clamped to [1, n].
[[nodiscard]] unsigned resolve_workers(const RtConfig& cfg);

}  // namespace clb::rt
