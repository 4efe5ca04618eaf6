// transport::ProcessRuntime — the coordinator side of the cross-process
// runtime: forks one OS process per shard, wires a full data-plane mesh plus
// one control link per child BEFORE forking (children inherit connected
// sockets and never dial), distributes the run configuration in a kConfig
// handshake, starts runs (kRun, then one kDone from every child) and
// collects ledgers, counters, queues and phase logs at kCollect. It is not
// part of any superstep: the shards exchange blobs and messages among
// themselves on the data mesh (transport/shard_engine.hpp).
//
// Its outcome is the same rt::RunResult rt::Runtime returns (result()), so
// harnesses swap substrates without changing their measurement code and
// rt::diff compares the two; every deposit/run is recorded in a command log
// so the shadow-fabric cross-check (transport/shadow.hpp) can replay the
// exact run on the in-memory runtime.
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

#include "rt/result.hpp"
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

  /// Executes `steps` on all shard processes and waits until every child
  /// reports kDone. Callable repeatedly.
  void run(std::uint64_t steps);

  /// Appends a task to p's queue (routed to the owning child). Mirrors
  /// rt::Runtime::deposit, refusals included; recorded in the command log.
  void deposit(std::uint32_t p, sim::Task t);

  /// Ships every child's final state to the coordinator and merges it.
  /// Idempotent; implied by the first inspection call. No run() or
  /// deposit() may follow.
  void collect();

  // ---- Inspection (after collect()) ----
  [[nodiscard]] const ShardRunConfig& config() const { return cfg_; }
  [[nodiscard]] WireKind wire() const { return wire_; }
  [[nodiscard]] std::uint64_t n() const { return cfg_.n; }
  [[nodiscard]] unsigned worker_count() const { return cfg_.workers; }
  [[nodiscard]] std::uint64_t step() const { return step_base_; }
  /// The run's outcome, shaped as rt::Runtime::result(): the collected
  /// processors, every shard's outputs merged and canonically sorted, the
  /// step count. Implies collect().
  [[nodiscard]] const rt::RunResult& result();
  /// Wire accounting merged over every child's links (bytes, frames, the
  /// exchange count and each exchange's peer wait in barrier_rtt_us).
  [[nodiscard]] const obs::WireStats& wire_stats();
  /// Wall-clock seconds spent inside run() so far.
  [[nodiscard]] double wall_seconds() const { return wall_seconds_; }

  // Forwards to result() for benchmark/clb_bench.cpp only; they go when the
  // benchmark next changes. New code reads result().
  [[nodiscard]] std::uint64_t total_load() { return result().total_load(); }
  [[nodiscard]] std::uint64_t total_generated() {
    return result().total_generated();
  }
  [[nodiscard]] std::uint64_t total_consumed() {
    return result().total_consumed();
  }
  [[nodiscard]] std::uint64_t running_max_load() {
    return result().out.running_max;
  }
  [[nodiscard]] bool conservation_holds() {
    return result().conservation_holds();
  }
  [[nodiscard]] const sim::MessageCounters& messages() {
    return result().out.msg;
  }
  [[nodiscard]] std::uint64_t clamped_transfers() {
    return result().out.clamped;
  }
  [[nodiscard]] const std::vector<rt::LedgerEntry>& ledger() {
    return result().out.ledger;
  }
  [[nodiscard]] const std::vector<rt::RtPhaseSummary>& phases() {
    return result().out.phases;
  }
  [[nodiscard]] const stats::IntHistogram& sojourn_steps() {
    return result().out.sojourn_steps;
  }
  [[nodiscard]] stats::IntHistogram sojourn_us() {
    return result().out.sojourn_us.to_dense();
  }

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

  // Merged state (valid once collected_); result_.procs views procs_.
  bool collected_ = false;
  std::vector<rt::RtProcessor> procs_;
  rt::RunResult result_;
  obs::WireStats wire_stats_;
};

}  // namespace clb::transport
