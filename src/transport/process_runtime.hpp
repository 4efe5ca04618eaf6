// transport::ProcessRuntime — the coordinator side of the cross-process
// runtime: forks one OS process per shard, wires a full data-plane mesh plus
// one control link per child BEFORE forking (children inherit connected
// sockets and never dial), distributes the run configuration in a kConfig
// handshake, services the superstep barrier as explicit control-plane
// messages (kBarrier in, kRelease with every worker's reduction blob out —
// the cross-process PhaseBarrier), and collects ledgers, counters, queues
// and phase logs at kCollect.
//
// The public surface mirrors rt::Runtime's inspection API so harnesses can
// swap transports without changing their measurement code, and every
// deposit/run is recorded in a command log so the shadow-fabric cross-check
// (transport/shadow.hpp) can replay the exact run on the in-memory runtime.
//
// Fork discipline: all forks happen in the constructor, which must run
// before the calling process spawns threads it cannot afford to lose (a
// forked child inherits only the calling thread). rt::Runtime joins its
// workers in its destructor, so "construct ProcessRuntime, then build the
// rt shadow" is always safe. Children exit via _exit(0) — no unwinding, no
// atexit — and the destructor reaps them, convicting any child that aborted.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "rt/runtime.hpp"
#include "transport/endpoint.hpp"
#include "transport/shard_engine.hpp"

namespace clb::transport {

/// One replayable coordinator action, for the shadow cross-check.
struct Command {
  enum class Kind : std::uint8_t { kRun, kDeposit };
  Kind kind = Kind::kRun;
  std::uint64_t steps = 0;   // kRun
  std::uint32_t proc = 0;    // kDeposit
  sim::Task task{};          // kDeposit
};

class ProcessRuntime {
 public:
  /// Forks rt::resolve_workers(cfg) shard processes over `wire`, each
  /// running the rt::ShardKernel. cfg.index is ignored (stamped per child)
  /// and cfg.transport is not consulted. Refuses, naming every broken rule,
  /// a config rt::validate() rejects or one that needs what cannot cross a
  /// process boundary: the borrowed trace/topology pointers and telemetry.
  /// Blocks until every child acked its config.
  ProcessRuntime(ShardRunConfig cfg, WireKind wire);

  /// The seam from the rt vocabulary: maps RtConfig::transport to the wire
  /// kind (must not be kInProc); otherwise as above.
  ProcessRuntime(const rt::RtConfig& cfg, const ModelSpec& model);

  ~ProcessRuntime();

  ProcessRuntime(const ProcessRuntime&) = delete;
  ProcessRuntime& operator=(const ProcessRuntime&) = delete;

  /// Executes `steps` on all shard processes, servicing their barriers
  /// until every child reports kDone. Callable repeatedly.
  void run(std::uint64_t steps);

  /// Appends a task to p's queue (routed to the owning child). Mirrors
  /// rt::Runtime::deposit; recorded in the command log.
  void deposit(std::uint32_t p, sim::Task t);

  /// Ships every child's final state to the coordinator and merges it.
  /// Idempotent; implied by the first inspection call. No run() or
  /// deposit() may follow.
  void collect();

  // ---- Inspection (after collect(); all mirror rt::Runtime) ----
  [[nodiscard]] const ShardRunConfig& config() const { return cfg_; }
  [[nodiscard]] WireKind wire() const { return wire_; }
  [[nodiscard]] std::uint64_t n() const { return cfg_.n; }
  [[nodiscard]] unsigned worker_count() const { return cfg_.workers; }
  [[nodiscard]] std::uint64_t step() const { return step_base_; }
  [[nodiscard]] const rt::RtProcessor& processor(std::uint64_t p);
  [[nodiscard]] std::uint64_t load(std::uint64_t p);
  [[nodiscard]] std::uint64_t total_load();
  [[nodiscard]] std::uint64_t total_generated();
  [[nodiscard]] std::uint64_t total_consumed();
  [[nodiscard]] std::uint64_t running_max_load();
  [[nodiscard]] bool conservation_holds();
  [[nodiscard]] sim::MessageCounters messages();
  [[nodiscard]] std::uint64_t clamped_transfers();
  [[nodiscard]] std::vector<rt::LedgerEntry> ledger();
  [[nodiscard]] const std::vector<rt::RtPhaseSummary>& phases();
  [[nodiscard]] stats::IntHistogram sojourn_steps();
  [[nodiscard]] stats::IntHistogram sojourn_us();
  [[nodiscard]] std::uint64_t deposited();
  /// Every shard's outputs merged (steal, crash, fabric and mutation
  /// counters included), for the shadow cross-check and tests.
  [[nodiscard]] const rt::ShardOutputs& outputs();
  /// Wire accounting merged over every child's links (bytes, frames,
  /// barrier count, barrier RTT histogram).
  [[nodiscard]] const obs::WireStats& wire_stats();
  /// Wall-clock seconds spent inside run() so far.
  [[nodiscard]] double wall_seconds() const { return wall_seconds_; }

  /// Every run()/deposit() issued, in order — the shadow replay script.
  [[nodiscard]] const std::vector<Command>& command_log() const {
    return log_;
  }

 private:
  void spawn();

  ShardRunConfig cfg_;
  WireKind wire_ = WireKind::kUds;
  rt::Partition part_;
  std::vector<Endpoint> ctl_;   // coordinator end of each child's control link
  std::vector<pid_t> pids_;
  std::uint64_t step_base_ = 0;
  double wall_seconds_ = 0;
  std::vector<Command> log_;

  // Merged state (valid once collected_).
  bool collected_ = false;
  std::vector<rt::RtProcessor> procs_;
  rt::ShardOutputs total_;  // ledger sorted canonically
  obs::WireStats wire_stats_;
};

}  // namespace clb::transport
