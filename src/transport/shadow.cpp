#include "transport/shadow.hpp"

#include <sstream>

#include "util/check.hpp"

namespace clb::transport {

namespace {

/// Appends "name: transport=x shadow=y" and trips the report. Only the
/// first divergence is recorded; later ones are symptoms of the same split.
template <typename T>
bool diverge(ShadowReport& rep, const std::string& where, const T& got,
             const T& want) {
  if (rep.ok) {
    std::ostringstream os;
    os << where << ": transport=" << got << " shadow=" << want;
    rep.ok = false;
    rep.divergence = os.str();
  }
  return false;
}

template <typename T>
bool check_eq(ShadowReport& rep, const std::string& where, const T& got,
              const T& want) {
  if (got == want) return true;
  return diverge(rep, where, got, want);
}

}  // namespace

ShadowReport shadow_check(ProcessRuntime& pr) {
  const ShardRunConfig& cfg = pr.config();
  CLB_CHECK(cfg.deterministic,
            "the shadow cross-check requires a deterministic run");
  pr.collect();

  // The shadow plays the honest protocol: every fault hook off, so a
  // mutated transport run diverges from it.
  rt::RtConfig rc = cfg;
  rc.transport = rt::Transport::kInProc;
  rc.spin_work = 0;  // spin is wall-clock padding; identical outcomes
  rc.time_sojourn = false;  // wall-clock sojourn can never be bit-compared
  rc.mutation = sim::MutationKind::kNone;
  rc.mutation_ordinal = 0;

  const auto model = cfg.model.make(cfg.n);
  rt::Runtime shadow(rc, model.get());
  for (const Command& c : pr.command_log()) {
    if (c.kind == Command::Kind::kRun) {
      shadow.run(c.steps);
    } else {
      shadow.deposit(c.proc, c.task);
    }
  }

  ShadowReport rep;

  // Scalars first: the cheapest conviction names the broadest split.
  check_eq(rep, "running_max_load", pr.running_max_load(),
           shadow.running_max_load());
  check_eq(rep, "clamped_transfers", pr.clamped_transfers(),
           shadow.clamped_transfers());
  const sim::MessageCounters tm = pr.messages();
  const sim::MessageCounters sm = shadow.messages();
  check_eq(rep, "messages.queries", tm.queries, sm.queries);
  check_eq(rep, "messages.accepts", tm.accepts, sm.accepts);
  check_eq(rep, "messages.id_messages", tm.id_messages, sm.id_messages);
  check_eq(rep, "messages.control", tm.control, sm.control);
  check_eq(rep, "messages.transfers", tm.transfers, sm.transfers);
  check_eq(rep, "messages.tasks_moved", tm.tasks_moved, sm.tasks_moved);
  const rt::ShardOutputs& to = pr.outputs();
  check_eq(rep, "steal_events", to.steal_events, shadow.steal_events());
  check_eq(rep, "stolen_tasks", to.stolen_tasks, shadow.stolen_tasks());
  check_eq(rep, "rehomed_tasks", to.rehomed_tasks, shadow.rehomed_tasks());
  check_eq(rep, "rehomed_events", to.rehomed_events, shadow.rehomed_events());
  check_eq(rep, "fabric_sent", to.fab_sent, shadow.fabric_sent());
  check_eq(rep, "fabric_in_flight", to.fab_sent - to.fab_delivered,
           shadow.fabric_in_flight());
  check_eq(rep, "fabric_retransmits", to.retransmits,
           shadow.fabric_retransmits());

  // Transfer ledger: entry-by-entry in the canonical (step, from, to) order.
  const std::vector<rt::LedgerEntry> tl = pr.ledger();
  const std::vector<rt::LedgerEntry> sl = shadow.ledger();
  if (check_eq(rep, "ledger.size", tl.size(), sl.size())) {
    for (std::size_t i = 0; i < tl.size(); ++i) {
      if (tl[i].step == sl[i].step && tl[i].from == sl[i].from &&
          tl[i].to == sl[i].to && tl[i].count == sl[i].count) {
        continue;
      }
      std::ostringstream os;
      os << "(step " << tl[i].step << " " << tl[i].from << "->" << tl[i].to
         << " x" << tl[i].count << ")";
      std::ostringstream ws;
      ws << "(step " << sl[i].step << " " << sl[i].from << "->" << sl[i].to
         << " x" << sl[i].count << ")";
      diverge(rep, "ledger[" + std::to_string(i) + "]", os.str(), ws.str());
      break;
    }
  }

  // Phase log, heavy lists included.
  const auto& tp = pr.phases();
  const auto& sp = shadow.phases();
  if (check_eq(rep, "phases.size", tp.size(), sp.size())) {
    for (std::size_t i = 0; i < tp.size(); ++i) {
      const std::string at = "phases[" + std::to_string(i) + "].";
      check_eq(rep, at + "phase_index", tp[i].phase_index, sp[i].phase_index);
      check_eq(rep, at + "start_step", tp[i].start_step, sp[i].start_step);
      check_eq(rep, at + "end_step", tp[i].end_step, sp[i].end_step);
      check_eq(rep, at + "num_heavy", tp[i].num_heavy, sp[i].num_heavy);
      check_eq(rep, at + "num_light", tp[i].num_light, sp[i].num_light);
      check_eq(rep, at + "matched", tp[i].matched, sp[i].matched);
      check_eq(rep, at + "unmatched", tp[i].unmatched, sp[i].unmatched);
      check_eq(rep, at + "requests", tp[i].requests, sp[i].requests);
      check_eq(rep, at + "levels_used", tp[i].levels_used, sp[i].levels_used);
      check_eq(rep, at + "collision_rounds", tp[i].collision_rounds,
               sp[i].collision_rounds);
      check_eq(rep, at + "forced", tp[i].forced, sp[i].forced);
      if (check_eq(rep, at + "heavy_procs.size", tp[i].heavy_procs.size(),
                   sp[i].heavy_procs.size())) {
        for (std::size_t k = 0; k < tp[i].heavy_procs.size(); ++k) {
          if (!check_eq(rep, at + "heavy_procs[" + std::to_string(k) + "]",
                        tp[i].heavy_procs[k], sp[i].heavy_procs[k])) {
            break;
          }
        }
      }
      if (!rep.ok) break;
    }
  }

  // Per-queue task identity: a corrupted payload lands here (or, if the
  // victim task was consumed, in the sojourn histogram below).
  for (std::uint64_t p = 0; p < cfg.n && rep.ok; ++p) {
    const rt::RtProcessor& a = pr.processor(p);
    const rt::RtProcessor& b = shadow.processor(p);
    const std::string at = "proc[" + std::to_string(p) + "].";
    check_eq(rep, at + "generated", a.generated, b.generated);
    check_eq(rep, at + "consumed", a.consumed, b.consumed);
    check_eq(rep, at + "consumed_on_origin", a.consumed_on_origin,
             b.consumed_on_origin);
    check_eq(rep, at + "tasks_sent", a.tasks_sent, b.tasks_sent);
    check_eq(rep, at + "tasks_received", a.tasks_received, b.tasks_received);
    check_eq(rep, at + "balance_initiations", a.balance_initiations,
             b.balance_initiations);
    if (!check_eq(rep, at + "queue.size", a.queue.size(), b.queue.size())) {
      continue;
    }
    for (std::size_t k = 0; k < a.queue.size(); ++k) {
      const sim::Task& x = a.queue[k].task;
      const sim::Task& y = b.queue[k].task;
      if (x.birth_step == y.birth_step && x.origin == y.origin &&
          x.weight == y.weight) {
        continue;
      }
      std::ostringstream os, ws;
      os << "(birth " << x.birth_step << " origin " << x.origin << " weight "
         << x.weight << ")";
      ws << "(birth " << y.birth_step << " origin " << y.origin << " weight "
         << y.weight << ")";
      diverge(rep, at + "queue[" + std::to_string(k) + "]", os.str(),
              ws.str());
      break;
    }
  }

  // Step-counted sojourn: convicts a corrupted-then-consumed task whose
  // queue slot has since drained.
  if (cfg.track_sojourn && rep.ok) {
    const stats::IntHistogram th = pr.sojourn_steps();
    const stats::IntHistogram sh = shadow.sojourn_steps();
    check_eq(rep, "sojourn_steps.total", th.total(), sh.total());
    if (rep.ok && th.counts() != sh.counts()) {
      diverge(rep, "sojourn_steps.counts", std::string("<histogram>"),
              std::string("<histogram>"));
    }
  }

  check_eq(rep, "conservation", pr.conservation_holds(), true);
  return rep;
}

}  // namespace clb::transport
