#include "testing/reference.hpp"

#include <algorithm>

#include "baselines/local_search.hpp"
#include "baselines/stale_shortest_queue.hpp"
#include "core/threshold_balancer.hpp"
#include "dist/dist_balancer.hpp"
#include "util/check.hpp"

namespace clb::testing {

namespace {

std::unique_ptr<core::LivenessSchedule> liveness_of(const rt::RtConfig& cfg) {
  if (cfg.crashes.empty()) return nullptr;
  return std::make_unique<core::LivenessSchedule>(cfg.n, cfg.crashes);
}

/// The serial balancer the runtime's policy executes; null for kNone.
std::unique_ptr<sim::Balancer> serial_balancer(
    const rt::RtConfig& cfg, const core::LivenessSchedule* liveness) {
  switch (cfg.policy) {
    case rt::RtPolicy::kNone:
      return nullptr;
    case rt::RtPolicy::kThreshold:
      if (cfg.latency > 0) {
        dist::DistConfig dc;
        dc.params = cfg.params;
        dc.a = cfg.game.a;
        dc.b = cfg.game.b;
        dc.c = cfg.game.c;
        dc.latency = cfg.latency;
        dc.topology = cfg.topology;
        dc.link = cfg.link;
        dc.phase_gap = cfg.phase_gap;
        dc.max_phase_steps = cfg.max_phase_steps;
        return std::make_unique<dist::DistThresholdBalancer>(dc);
      }
      return std::make_unique<core::ThresholdBalancer>(
          core::ThresholdBalancerConfig{.params = cfg.params,
                                        .game = cfg.game});
    case rt::RtPolicy::kStaleSq:
      return std::make_unique<baselines::StaleShortestQueue>(cfg.stale, cfg.n,
                                                             liveness);
    case rt::RtPolicy::kLocalSearch:
      return std::make_unique<baselines::LocalSearchBalancer>(cfg.ls, cfg.n,
                                                              liveness);
    case rt::RtPolicy::kAllInAir:
      break;
  }
  CLB_CHECK(false, "Reference: all-in-air has no serial reference");
  return nullptr;
}

}  // namespace

Reference::Reference(const rt::RtConfig& cfg, sim::LoadModel* model)
    : params_(cfg.params),
      liveness_(liveness_of(cfg)),
      inner_(serial_balancer(cfg, liveness_.get())),
      threshold_(dynamic_cast<core::ThresholdBalancer*>(inner_.get())),
      dist_(dynamic_cast<dist::DistThresholdBalancer*>(inner_.get())),
      capture_(inner_.get()),
      engine_({.n = cfg.n,
               .seed = cfg.seed,
               .track_sojourn = cfg.track_sojourn,
               .liveness = liveness_.get(),
               .steal = cfg.steal},
              model, &capture_) {
  capture_.set_post_capture_hook([this](sim::Engine& e) { record_step(e); });
}

void Reference::record_step(const sim::Engine& e) {
  for (const sim::Transfer& t : capture_.captured()) {
    const std::uint64_t count =
        std::min<std::uint64_t>(t.count, e.load(t.from));
    ledger_.push_back(
        {e.step(), t.from, t.to, static_cast<std::uint32_t>(count)});
  }
  // The classes of the phase that began this step, from the loads the
  // balancer classified.
  const auto classified = [&](rt::RtPhaseSummary& ps) {
    for (std::uint64_t p = 0; p < e.n(); ++p) {
      if (e.load(p) >= params_.heavy_threshold) {
        ps.heavy_procs.push_back(static_cast<std::uint32_t>(p));
      } else if (e.load(p) <= params_.light_threshold) {
        ++ps.num_light;
      }
    }
  };
  if (threshold_ != nullptr && threshold_->aggregate().phases > phases_done_) {
    // Atomic phases begin and end inside the step's on_step.
    phases_done_ = threshold_->aggregate().phases;
    const core::PhaseStats& st = threshold_->last_phase();
    rt::RtPhaseSummary ps;
    classified(ps);
    ps.phase_index = st.phase_index;
    ps.start_step = st.start_step;
    ps.end_step = st.start_step;
    ps.num_heavy = st.num_heavy;
    ps.matched = st.matched_heavy;
    ps.unmatched = st.unmatched_heavy;
    ps.requests = st.requests;
    ps.levels_used = st.levels_used;
    ps.collision_rounds = static_cast<std::uint32_t>(st.collision_rounds);
    ps.completed = true;
    phases_.push_back(std::move(ps));
  }
  if (dist_ != nullptr) {
    // dist ends a phase before it begins the next within one on_step.
    const std::vector<dist::DistPhaseRecord>& log = dist_->stats().phase_log;
    if (log.size() > phases_done_) {
      phases_done_ = log.size();
      const dist::DistPhaseRecord& r = log.back();
      rt::RtPhaseSummary& ps = phases_.back();
      CLB_CHECK(ps.phase_index == r.phase_index && !ps.completed,
                "Reference: dist ended a phase it never began");
      ps.end_step = r.end_step;
      ps.num_heavy = r.num_heavy;
      ps.matched = r.matched;
      ps.unmatched = r.unmatched;
      ps.forced = r.forced;
      ps.completed = true;
    }
    if (dist_->phase_index() > phases_.size()) {
      rt::RtPhaseSummary ps;
      classified(ps);
      ps.phase_index = dist_->phase_index();
      ps.start_step = dist_->phase_start_step();
      ps.num_heavy = ps.heavy_procs.size();
      phases_.push_back(std::move(ps));
    }
  }
  if (decided_) decided_(e);
}

const rt::RunResult& Reference::result() {
  procs_.resize(engine_.n());
  for (std::uint64_t p = 0; p < engine_.n(); ++p) {
    const sim::Processor& sp = engine_.processor(p);
    rt::RtProcessor& rp = procs_[p];
    rp.queue.clear();
    for (std::uint64_t i = 0; i < sp.queue.size(); ++i) {
      rp.queue.push_back(rt::RtTask{sp.queue.at(i), 0});
    }
    rp.generated = sp.generated;
    rp.consumed = sp.consumed;
    rp.consumed_on_origin = sp.consumed_on_origin;
    rp.tasks_sent = sp.tasks_sent;
    rp.tasks_received = sp.tasks_received;
    rp.balance_initiations = sp.balance_initiations;
  }

  rt::ShardOutputs out;
  out.msg = engine_.messages();
  out.clamped = engine_.clamped_transfers();
  out.deposited = engine_.total_deposited();
  out.ledger = ledger_;
  for (const sim::StealRecord& s : engine_.steal_log()) {
    out.ledger.push_back({s.step, s.from, s.to, s.count});
  }
  out.sort_logs();
  out.sojourn_steps = engine_.sojourn_histogram();
  out.running_max = engine_.running_max_load();
  out.phases = phases_;
  out.steal_events = engine_.steal_events();
  out.stolen_tasks = engine_.stolen_tasks();
  out.rehomed_tasks = engine_.rehomed_tasks();
  out.rehomed_events = engine_.rehomed_events();
  if (dist_ != nullptr) {
    const dist::Network& net = dist_->network();
    out.fab_sent = net.total_sent();
    out.fab_delivered = net.total_sent() - net.in_flight();
    out.retransmits = net.retransmits();
    out.dup_suppressed = net.dup_suppressed();
    out.queued_delay = net.link_queued_delay();
  }
  result_ = rt::RunResult{procs_, std::move(out), engine_.step()};
  return result_;
}

}  // namespace clb::testing
