// testing::Reference — the serial specification of an rt::RtConfig run, in
// the shape the runtime reports it.
//
// It runs sim::Engine with the policy's serial balancer (none for kNone,
// core::ThresholdBalancer on the instant fabric, dist::DistThresholdBalancer
// at latency >= 1, the information baselines for kStaleSq and kLocalSearch),
// the config's crash schedule, steal rule and sojourn tracking, behind a
// CaptureBalancer. result() returns the engine's state as an rt::RunResult,
// so every runtime-against-specification check is one
// rt::diff(reference.result(), runtime.result()).
//
// How the engine's state maps onto the runtime's fields:
//   ledger         every captured transfer, clamped like
//                  Engine::apply_transfers, plus the steal log, in
//                  rt::ledger_less order;
//   phases         instant fabric: ThresholdBalancer::last_phase() at each
//                  phase step; latency fabric: dist's phase start (an open
//                  summary, as the runtime keeps one) completed from its
//                  phase_log entry. heavy_procs and num_light are read
//                  from the loads the balancer classified;
//   fab_sent       dist::Network::total_sent();
//   fab_delivered  total_sent() - in_flight(): the runtime books the
//                  messages a forced phase end discards as delivered,
//                  which Network::total_delivered() does not;
//   retransmits, dup_suppressed, queued_delay: the network's link counters;
//   dropped, dropped_tasks, mutation_applied, sojourn_us: empty, since the
//                  specification injects no faults and reads no clock.
// RtConfig::mutation is ignored: the reference is the clean run a mutated
// runtime must diverge from. kAllInAir has no reference (the runtime
// scatters with per-processor streams, the serial baseline with one global
// stream), so it is refused.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/liveness.hpp"
#include "rt/config.hpp"
#include "rt/result.hpp"
#include "sim/engine.hpp"
#include "testing/oracle.hpp"

namespace clb::core {
class ThresholdBalancer;
}  // namespace clb::core

namespace clb::dist {
class DistThresholdBalancer;
}  // namespace clb::dist

namespace clb::testing {

class Reference {
 public:
  /// `model` is borrowed and must outlive the reference; like the
  /// runtime's, it must be a fresh instance (models may keep state).
  Reference(const rt::RtConfig& cfg, sim::LoadModel* model);

  Reference(const Reference&) = delete;
  Reference& operator=(const Reference&) = delete;

  /// Same contract as rt::Runtime::deposit: before the next step runs.
  void deposit(std::uint32_t p, sim::Task t) { engine_.deposit(p, t); }
  void run(std::uint64_t steps) { engine_.run(steps); }

  /// The engine's state, rebuilt on every call (O(n + queued tasks)).
  [[nodiscard]] const rt::RunResult& result();

  [[nodiscard]] const sim::Engine& engine() const { return engine_; }
  /// The latency-fabric balancer; null on the instant fabric.
  [[nodiscard]] const dist::DistThresholdBalancer* dist() const {
    return dist_;
  }

  /// Called every step after the balancer decided and before its transfers
  /// apply, when the loads are the ones it classified.
  void on_decided(std::function<void(const sim::Engine&)> hook) {
    decided_ = std::move(hook);
  }

 private:
  void record_step(const sim::Engine& e);

  core::PhaseParams params_;
  std::unique_ptr<core::LivenessSchedule> liveness_;
  std::unique_ptr<sim::Balancer> inner_;
  core::ThresholdBalancer* threshold_ = nullptr;
  dist::DistThresholdBalancer* dist_ = nullptr;
  CaptureBalancer capture_;
  sim::Engine engine_;
  std::function<void(const sim::Engine&)> decided_;

  std::vector<rt::LedgerEntry> ledger_;
  std::vector<rt::RtPhaseSummary> phases_;
  std::uint64_t phases_done_ = 0;  ///< balancer phases already booked
  std::vector<rt::RtProcessor> procs_;
  rt::RunResult result_;
};

}  // namespace clb::testing
