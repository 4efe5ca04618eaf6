// rt::RunResult — the outcome of a run, in the one shape both substrates
// report it: the processors (queues and per-processor counters), every
// shard's ShardOutputs merged by ShardOutputs::merge, and the step count.
// rt::Runtime::result() and transport::ProcessRuntime::result() return it,
// and so does testing::Reference, the serial specification's run of the
// same config. rt::diff() is the one comparison between two of them (the
// transport's shadow check, the worker-count invariance checks, every
// runtime-against-specification check in the tests and the fuzz oracle).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "rt/config.hpp"
#include "sim/counters.hpp"
#include "stats/histogram.hpp"
#include "stats/log_histogram.hpp"

namespace clb::rt {

/// Everything a shard produces that outlives a run: summed, concatenated or
/// merged across shards by both substrates (merge, then sort_logs). Phase
/// log and running max are written by shard 0 only.
struct ShardOutputs {
  /// Same attribution as the simulator: queries/accepts/ids/control from
  /// the protocol, transfers and tasks_moved from applied transfers.
  sim::MessageCounters msg;
  std::uint64_t clamped = 0;
  std::uint64_t deposited = 0;
  /// Applied transfers. Merged, in the canonical ledger_less order, which
  /// compares directly against the engine's per-step transfer capture.
  std::vector<LedgerEntry> ledger;
  /// Mailbox-drop victims, ordered like the ledger (worker-count-invariant
  /// in deterministic mode), and the tasks they carried, booked so that
  /// conservation still balances.
  std::vector<LedgerEntry> dropped;
  std::uint64_t dropped_tasks = 0;
  stats::IntHistogram sojourn_steps;
  stats::LogHistogram sojourn_us;  ///< wall-clock, us (RtConfig::time_sojourn)
  std::uint64_t running_max = 0;
  std::vector<RtPhaseSummary> phases;
  /// Own-victim steal batches shipped and the tasks they carried. Steals
  /// ship as kTransfer messages, so they are in the ledger and msg too.
  std::uint64_t steal_events = 0;
  std::uint64_t stolen_tasks = 0;
  /// Tasks moved off crashed processors, and the moves (as
  /// sim::Engine::rehomed_*; in neither the ledger nor msg).
  std::uint64_t rehomed_tasks = 0;
  std::uint64_t rehomed_events = 0;
  std::uint64_t fab_sent = 0;       // latency: messages put on the fabric
  std::uint64_t fab_delivered = 0;  // ... matured or discarded
  /// Link model (latency mode; 0 on an unshaped fabric; comparable with
  /// dist::Network's counters of the same names).
  std::uint64_t retransmits = 0;
  std::uint64_t dup_suppressed = 0;
  std::uint64_t queued_delay = 0;
  /// RtConfig::mutation firings that changed the run (the witness; 0 when
  /// no mutation is set).
  std::uint64_t mutation_applied = 0;

  void merge(const ShardOutputs& o);
  /// Sorts the ledger and the dropped log from the given positions on into
  /// the canonical ledger_less order; the entries before them must already
  /// be canonical and precede every later one.
  void sort_logs(std::size_t ledger_from = 0, std::size_t dropped_from = 0);
};

struct RunResult {
  /// The substrate's own processors, never a copy.
  std::span<const RtProcessor> procs;
  ShardOutputs out;
  std::uint64_t step = 0;  ///< runtime steps executed

  /// Aborts naming p and n unless processor p exists.
  [[nodiscard]] const RtProcessor& processor(std::uint64_t p) const;
  [[nodiscard]] std::uint64_t total_load() const;
  [[nodiscard]] std::uint64_t total_generated() const;
  [[nodiscard]] std::uint64_t total_consumed() const;
  /// generated + deposited == consumed + queued + dropped? Count-based only
  /// — identity-blind, which is precisely why the fuzzer's FIFO oracle and
  /// not this check must convict the mailbox-drop mutation.
  [[nodiscard]] bool conservation_holds() const;
  /// Latency mode: messages on the fabric not yet delivered (0 in instant
  /// mode).
  [[nodiscard]] std::uint64_t fabric_in_flight() const {
    return out.fab_sent - out.fab_delivered;
  }
};

/// "" when a and b describe the same run; otherwise the FIRST divergent
/// field as "<field>: a=<value> b=<value>" — later ones are symptoms of the
/// same split. Compares every field of ShardOutputs, RtPhaseSummary and
/// RtProcessor, and each queued task's (birth step, origin, weight), except
/// the wall-clock readings and the fault-injection witnesses (see result.cpp
/// for each exclusion's reason).
[[nodiscard]] std::string diff(const RunResult& a, const RunResult& b);

}  // namespace clb::rt
