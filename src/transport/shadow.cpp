#include "transport/shadow.hpp"

#include "util/check.hpp"

namespace clb::transport {

ShadowReport shadow_check(ProcessRuntime& pr) {
  const ShardRunConfig& cfg = pr.config();
  CLB_CHECK(cfg.deterministic,
            "the shadow cross-check requires a deterministic run");

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
  rep.divergence = rt::diff(pr.result(), shadow.result());
  rep.ok = rep.divergence.empty();
  return rep;
}

}  // namespace clb::transport
