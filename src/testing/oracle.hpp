// The invariant oracle: runs one scenario step by step against a shadow
// model of the machine and checks full-state invariants after every step.
//
// Checked per step:
//   * exact task conservation *by identity* — every (birth_step, origin)
//     pair the oracle knows about is present exactly once (count-based
//     conservation is checked by the engine itself; the identity check is
//     what catches a balancer that loses one task and books it as drained);
//   * FIFO order preservation — for scheduled-transfer balancers the oracle
//     predicts each queue's exact contents (generation appends, consumption
//     pops the front, each captured transfer moves the newest `count` tasks
//     to the receiver's back in their old order, clamped like the engine)
//     and compares element-wise;
//   * weight accounting — each processor's cached weight_load equals the
//     sum of its queued tasks' weights;
//   * the engine's own count conservation identity.
//
// Immediate-mode balancers (AllInAir: drain_all + deposit) reshuffle queues
// outside the transfer API, so per-queue prediction is impossible; the
// oracle falls back to *multiset* identity (the global bag of
// (birth, origin) pairs must match prediction) and resynchronises its
// shadow from the actual queues each step.
//
// End of run:
//   * per-phase message attribution — a threshold balancer's summed
//     PhaseStats::messages must equal the engine's global protocol_total()
//     (a message accounted outside any phase window escapes every per-phase
//     delta check; this is the only check that catches it);
//   * determinism — a fresh engine replays the same scenario config and
//     must produce a bit-identical state fingerprint.
//
// Scenarios with a MutationKind inject one deliberately broken behaviour
// with consistent-looking accounting; the oracle is expected to FAIL such
// runs (the harness's self-test, exercised via clb_fuzz --expect-failure).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/balancer.hpp"
#include "sim/engine.hpp"
#include "testing/scenario.hpp"

namespace clb::testing {

/// Verdict of one oracle run.
struct OracleReport {
  bool ok = true;
  /// Step at which the first violation was detected (meaningless when ok).
  std::uint64_t fail_step = 0;
  /// Human-readable description of the first violated invariant.
  std::string what;
  /// Whether the scenario's mutation actually fired (a mutation needs a
  /// non-empty queue to bite; degenerate runs may never offer one).
  bool mutation_applied = false;

  static OracleReport failure(std::uint64_t step, std::string what) {
    OracleReport r;
    r.ok = false;
    r.fail_step = step;
    r.what = std::move(what);
    return r;
  }
};

/// Balancer decorator: runs the inner policy, snapshots the transfers it
/// scheduled this step (Engine::pending_transfers is cleared once applied,
/// so the oracle must read it from inside on_step), then fires an optional
/// hook — the mutation injection point, deliberately placed *after* the
/// capture so a mutation can never rewrite the evidence it is judged by.
class CaptureBalancer final : public sim::Balancer {
 public:
  explicit CaptureBalancer(sim::Balancer* inner) : inner_(inner) {}

  [[nodiscard]] std::string name() const override {
    return inner_ ? "capture(" + inner_->name() + ")" : "capture(none)";
  }
  void on_step(sim::Engine& engine) override {
    if (inner_ != nullptr) inner_->on_step(engine);
    captured_ = engine.pending_transfers();
    if (hook_) hook_(engine);
  }
  void on_reset(sim::Engine& engine) override {
    captured_.clear();
    if (inner_ != nullptr) inner_->on_reset(engine);
  }

  [[nodiscard]] const std::vector<sim::Transfer>& captured() const {
    return captured_;
  }
  void set_post_capture_hook(std::function<void(sim::Engine&)> hook) {
    hook_ = std::move(hook);
  }

 private:
  sim::Balancer* inner_;
  std::vector<sim::Transfer> captured_;
  std::function<void(sim::Engine&)> hook_;
};

/// Runs an engine scenario under the oracle. Scenario must not be
/// collision_only.
OracleReport run_engine_scenario(const Scenario& s);

/// Runs a runtime (rt::Runtime) scenario. Every policy but all-in-air runs
/// in lockstep with a testing::Reference (the serial engine on the same
/// config) and ends in rt::diff of the two results: every counter, the
/// ledger, the phase log and per-queue identity in FIFO order (the check
/// that convicts the kMailboxDrop mutation, whose sender-side books stay
/// consistent). All-in-air runs (whose per-processor scatter streams
/// deliberately differ from the serial baseline) are checked for count
/// conservation and bit-identical determinism under a different worker
/// count.
OracleReport run_rt_scenario(const Scenario& s);

/// Runs a standalone collision-game scenario: <= c accepts per processor,
/// valid => >= b distinct non-self acceptors per request, round budget
/// respected, message counts consistent, and an identical replay.
OracleReport run_collision_scenario(const Scenario& s);

/// Dispatches on s.collision_only.
OracleReport check_scenario(const Scenario& s);

}  // namespace clb::testing
