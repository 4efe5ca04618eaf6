#include "rt/result.hpp"

#include <algorithm>
#include <functional>
#include <string_view>

namespace clb::rt {

void ShardOutputs::merge(const ShardOutputs& o) {
  msg += o.msg;
  clamped += o.clamped;
  deposited += o.deposited;
  ledger.insert(ledger.end(), o.ledger.begin(), o.ledger.end());
  dropped.insert(dropped.end(), o.dropped.begin(), o.dropped.end());
  dropped_tasks += o.dropped_tasks;
  sojourn_steps.merge(o.sojourn_steps);
  sojourn_us.merge(o.sojourn_us);
  running_max = std::max(running_max, o.running_max);
  phases.insert(phases.end(), o.phases.begin(), o.phases.end());
  steal_events += o.steal_events;
  stolen_tasks += o.stolen_tasks;
  rehomed_tasks += o.rehomed_tasks;
  rehomed_events += o.rehomed_events;
  fab_sent += o.fab_sent;
  fab_delivered += o.fab_delivered;
  retransmits += o.retransmits;
  dup_suppressed += o.dup_suppressed;
  queued_delay += o.queued_delay;
  mutation_applied += o.mutation_applied;
}

void ShardOutputs::sort_logs(std::size_t ledger_from,
                             std::size_t dropped_from) {
  const auto from = [](std::vector<LedgerEntry>& v, std::size_t i) {
    return v.begin() + static_cast<std::ptrdiff_t>(i);
  };
  std::sort(from(ledger, ledger_from), ledger.end(), ledger_less);
  std::sort(from(dropped, dropped_from), dropped.end(), ledger_less);
}

const RtProcessor& RunResult::processor(std::uint64_t p) const {
  check_processor(p, procs.size(), "RunResult::processor");
  return procs[p];
}

std::uint64_t RunResult::total_load() const {
  std::uint64_t s = 0;
  for (const RtProcessor& p : procs) s += p.queue.size();
  return s;
}

std::uint64_t RunResult::total_generated() const {
  std::uint64_t s = 0;
  for (const RtProcessor& p : procs) s += p.generated;
  return s;
}

std::uint64_t RunResult::total_consumed() const {
  std::uint64_t s = 0;
  for (const RtProcessor& p : procs) s += p.consumed;
  return s;
}

bool RunResult::conservation_holds() const {
  return total_generated() + out.deposited ==
         total_consumed() + total_load() + out.dropped_tasks;
}

// ---------------------------------------------------------------------------
// diff
// ---------------------------------------------------------------------------

namespace {

std::string show(const LedgerEntry& e) {
  return "(step " + std::to_string(e.step) + " " + std::to_string(e.from) +
         "->" + std::to_string(e.to) + " x" + std::to_string(e.count) + ")";
}

std::string show(const RtTask& rt) {
  const sim::Task& t = rt.task;
  return "(birth " + std::to_string(t.birth_step) + " origin " +
         std::to_string(t.origin) + " weight " + std::to_string(t.weight) +
         ")";
}

template <typename T>
std::string show(const T& v) {
  return std::to_string(v);
}

/// A task's identity: every sim::Task field (the binding stops compiling
/// when one is added). RtTask::birth_us is a wall-clock stamp and is not
/// part of it.
bool same_task(const sim::Task& a, const sim::Task& b) {
  const auto& [birth_step, origin, weight] = a;
  return birth_step == b.birth_step && origin == b.origin &&
         weight == b.weight;
}

std::string indexed(std::string_view name, std::size_t i) {
  return std::string(name) + "[" + std::to_string(i) + "]";
}

/// Keeps the first divergence; every comparison after it is a no-op.
class Diff {
 public:
  [[nodiscard]] bool found() const { return !text_.empty(); }
  [[nodiscard]] std::string take() { return std::move(text_); }

  /// True while nothing diverged; otherwise records "<at><name>: a=x b=y"
  /// (the name is built only then).
  template <typename T, typename Same = std::equal_to<>>
  bool eq(std::string_view at, std::string_view name, const T& a, const T& b,
          Same same = {}) {
    if (found()) return false;
    if (same(a, b)) return true;
    text_.append(at).append(name);
    text_ += ": a=" + show(a) + " b=" + show(b);
    return false;
  }

  /// Sizes, then the first unequal element, named "<name>[i]".
  template <typename Seq, typename Same = std::equal_to<>>
  void seq(std::string_view at, std::string_view name, const Seq& a,
           const Seq& b, Same same = {}) {
    if (!eq(at, std::string(name) + ".size", a.size(), b.size())) return;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (same(a[i], b[i])) continue;
      eq(at, indexed(name, i), a[i], b[i], same);
      return;
    }
  }

  /// The first value whose count differs, named "<name>[value]".
  void hist(std::string_view name, const stats::IntHistogram& a,
            const stats::IntHistogram& b) {
    const std::size_t values = std::max(a.counts().size(), b.counts().size());
    for (std::size_t v = 0; v < values; ++v) {
      if (a.count_at(v) == b.count_at(v)) continue;
      eq("", indexed(name, v), a.count_at(v), b.count_at(v));
      return;
    }
  }

 private:
  std::string text_;
};

// Each comparison below binds every field of its struct, so adding a field
// stops it compiling until the field is compared here or excluded with a
// reason.

void diff_messages(Diff& d, const sim::MessageCounters& a,
                   const sim::MessageCounters& b) {
  const auto& [queries, accepts, id_messages, control, transfers,
               tasks_moved] = a;
  d.eq("msg.", "queries", queries, b.queries);
  d.eq("msg.", "accepts", accepts, b.accepts);
  d.eq("msg.", "id_messages", id_messages, b.id_messages);
  d.eq("msg.", "control", control, b.control);
  d.eq("msg.", "transfers", transfers, b.transfers);
  d.eq("msg.", "tasks_moved", tasks_moved, b.tasks_moved);
}

void diff_phase(Diff& d, const std::string& at, const RtPhaseSummary& a,
                const RtPhaseSummary& b) {
  const auto& [phase_index, start_step, end_step, num_heavy, num_light,
               matched, unmatched, requests, levels_used, collision_rounds,
               forced, completed, heavy_procs] = a;
  d.eq(at, "phase_index", phase_index, b.phase_index);
  d.eq(at, "start_step", start_step, b.start_step);
  d.eq(at, "end_step", end_step, b.end_step);
  d.eq(at, "num_heavy", num_heavy, b.num_heavy);
  d.eq(at, "num_light", num_light, b.num_light);
  d.eq(at, "matched", matched, b.matched);
  d.eq(at, "unmatched", unmatched, b.unmatched);
  d.eq(at, "requests", requests, b.requests);
  d.eq(at, "levels_used", levels_used, b.levels_used);
  d.eq(at, "collision_rounds", collision_rounds, b.collision_rounds);
  d.eq(at, "forced", forced, b.forced);
  d.eq(at, "completed", completed, b.completed);
  d.seq(at, "heavy_procs", heavy_procs, b.heavy_procs);
}

void diff_processor(Diff& d, std::uint64_t p, const RtProcessor& a,
                    const RtProcessor& b) {
  const auto& [queue, generated, consumed, consumed_on_origin, tasks_sent,
               tasks_received, balance_initiations] = a;
  const std::string at = "proc[" + std::to_string(p) + "].";
  d.eq(at, "generated", generated, b.generated);
  d.eq(at, "consumed", consumed, b.consumed);
  d.eq(at, "consumed_on_origin", consumed_on_origin, b.consumed_on_origin);
  d.eq(at, "tasks_sent", tasks_sent, b.tasks_sent);
  d.eq(at, "tasks_received", tasks_received, b.tasks_received);
  d.eq(at, "balance_initiations", balance_initiations, b.balance_initiations);
  d.seq(at, "queue", queue, b.queue, [](const RtTask& x, const RtTask& y) {
    return same_task(x.task, y.task);
  });
}

}  // namespace

std::string diff(const RunResult& a, const RunResult& b) {
  Diff d;
  const ShardOutputs& o = b.out;
  const auto& [msg, clamped, deposited, ledger, dropped, dropped_tasks,
               sojourn_steps, sojourn_us, running_max, phases, steal_events,
               stolen_tasks, rehomed_tasks, rehomed_events, fab_sent,
               fab_delivered, retransmits, dup_suppressed, queued_delay,
               mutation_applied] = a.out;
  // Not compared:
  // - sojourn_us (and RtTask::birth_us): wall-clock readings, which no two
  //   runs share.
  // - mutation_applied, dropped, dropped_tasks: the fault-injection
  //   witnesses. Only a mutated run has them, so comparing them would
  //   convict every fault by its witness and never by its effect on the
  //   protocol, which is what a conviction has to show.
  (void)sojourn_us, (void)mutation_applied, (void)dropped, (void)dropped_tasks;

  // Scalars first: the cheapest conviction names the broadest split.
  d.eq("", "step", a.step, b.step);
  diff_messages(d, msg, o.msg);
  d.eq("", "clamped", clamped, o.clamped);
  d.eq("", "deposited", deposited, o.deposited);
  d.eq("", "running_max", running_max, o.running_max);
  d.eq("", "steal_events", steal_events, o.steal_events);
  d.eq("", "stolen_tasks", stolen_tasks, o.stolen_tasks);
  d.eq("", "rehomed_tasks", rehomed_tasks, o.rehomed_tasks);
  d.eq("", "rehomed_events", rehomed_events, o.rehomed_events);
  d.eq("", "fab_sent", fab_sent, o.fab_sent);
  d.eq("", "fab_delivered", fab_delivered, o.fab_delivered);
  d.eq("", "retransmits", retransmits, o.retransmits);
  d.eq("", "dup_suppressed", dup_suppressed, o.dup_suppressed);
  d.eq("", "queued_delay", queued_delay, o.queued_delay);

  // Canonically sorted on both substrates, so entry by entry.
  d.seq("", "ledger", ledger, o.ledger);
  if (d.eq("", "phases.size", phases.size(), o.phases.size())) {
    for (std::size_t i = 0; i < phases.size() && !d.found(); ++i) {
      diff_phase(d, "phases[" + std::to_string(i) + "].", phases[i],
                 o.phases[i]);
    }
  }

  // Per-queue task identity: a corrupted payload lands here, or, once the
  // victim task was consumed, in the step-counted sojourn histogram.
  if (d.eq("", "procs.size", a.procs.size(), b.procs.size())) {
    for (std::uint64_t p = 0; p < a.procs.size() && !d.found(); ++p) {
      diff_processor(d, p, a.procs[p], b.procs[p]);
    }
  }
  d.hist("sojourn_steps", sojourn_steps, o.sojourn_steps);
  return d.take();
}

}  // namespace clb::rt
