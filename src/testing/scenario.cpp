#include "testing/scenario.hpp"

#include <cstdio>

#include "baselines/all_in_air.hpp"
#include "baselines/lm.hpp"
#include "baselines/random_seeking.hpp"
#include "baselines/rsu.hpp"
#include "core/params.hpp"
#include "core/threshold_balancer.hpp"
#include "dist/dist_balancer.hpp"
#include "baselines/local_search.hpp"
#include "baselines/stale_shortest_queue.hpp"
#include "models/adversarial.hpp"
#include "models/burst.hpp"
#include "models/diurnal.hpp"
#include "models/flash_crowd.hpp"
#include "models/geometric.hpp"
#include "models/hetero.hpp"
#include "models/multi.hpp"
#include "models/onoff.hpp"
#include "models/pareto.hpp"
#include "models/poisson_batch.hpp"
#include "models/single.hpp"
#include "models/weighted.hpp"
#include "models/zipf.hpp"
#include "rng/dist.hpp"
#include "rng/philox.hpp"
#include "rng/splitmix64.hpp"
#include "util/check.hpp"

namespace clb::testing {

namespace {
constexpr std::uint64_t kScenarioSalt = 0x7363656E6172ULL;  // "scenar"

std::uint64_t pick(rng::CounterRng& rng, std::uint64_t lo, std::uint64_t hi) {
  return lo + rng::bounded(rng, hi - lo + 1);
}
}  // namespace

const char* to_string(ModelKind m) {
  switch (m) {
    case ModelKind::kSingle: return "single";
    case ModelKind::kGeometric: return "geometric";
    case ModelKind::kMulti: return "multi";
    case ModelKind::kAdversarial: return "adversarial";
    case ModelKind::kPoissonBatch: return "poisson-batch";
    case ModelKind::kOnOff: return "on-off";
    case ModelKind::kWeighted: return "weighted";
    case ModelKind::kBurst: return "burst";
    case ModelKind::kDiurnal: return "diurnal";
    case ModelKind::kFlashCrowd: return "flash-crowd";
    case ModelKind::kPareto: return "pareto";
    case ModelKind::kZipf: return "zipf";
    case ModelKind::kHetero: return "hetero";
  }
  return "?";
}

const char* to_string(BalancerKind b) {
  switch (b) {
    case BalancerKind::kNone: return "none";
    case BalancerKind::kThreshold: return "threshold";
    case BalancerKind::kDist: return "dist";
    case BalancerKind::kRsu: return "rsu91";
    case BalancerKind::kLm: return "lm93";
    case BalancerKind::kRandomSeeking: return "random-seeking";
    case BalancerKind::kAllInAir: return "all-in-air";
    case BalancerKind::kStaleSq: return "stale-sq";
    case BalancerKind::kLocalSearch: return "local-search";
  }
  return "?";
}

void clamp_to_runtime(Scenario& s) {
  s.runtime = true;
  s.collision_only = false;
  // The runtime shares load models with the engine but runs generation on
  // worker threads, so serial-generation models are out; the weighted
  // extension has no runtime policy either. Adversarial pressure maps to
  // the bursty hot-spot model, which stresses the same trigger.
  switch (s.model) {
    case ModelKind::kAdversarial:
      s.model = ModelKind::kBurst;
      break;
    case ModelKind::kWeighted:
      s.model = ModelKind::kSingle;
      break;
    default:
      break;
  }
  switch (s.balancer) {
    case BalancerKind::kNone:
    case BalancerKind::kThreshold:
    case BalancerKind::kAllInAir:
    case BalancerKind::kStaleSq:
    case BalancerKind::kLocalSearch:
      break;
    default:
      s.balancer = BalancerKind::kThreshold;
      break;
  }
  s.spread_execution = false;
  s.one_shot_preround = false;
  s.prune_satisfied = false;
  s.streaming_transfers = false;
  s.weight_based = false;
  // A runtime step can cost dozens of barrier crossings (phase_len is 1 at
  // fuzz sizes); keep the grid small so 200-scenario sweeps stay fast.
  // Fault events sampled against the original machine must be remapped (and
  // truncated) into the clamped envelope.
  if (s.n > 256) s.n = 256;
  if (s.steps > 96) s.steps = 96;
  std::vector<FaultEvent> kept;
  for (FaultEvent ev : s.faults) {
    if (ev.step >= s.steps) continue;
    ev.proc %= static_cast<std::uint32_t>(s.n);
    kept.push_back(ev);
  }
  s.faults = std::move(kept);
  std::vector<core::CrashEvent> crashes_kept;
  for (core::CrashEvent ev : s.crashes) {
    if (ev.step >= s.steps) continue;
    ev.proc %= static_cast<std::uint32_t>(s.n);
    crashes_kept.push_back(ev);
  }
  s.crashes = std::move(crashes_kept);
  // Protocol constants within the runtime's query-width limit (a <= 16)
  // and the binary-tree envelope, mirroring the engine-mutation clamps.
  if (s.a < 4) s.a = 5;
  if (s.a > 16) s.a = 16;
  if (s.b < 1) s.b = 1;
  if (s.b > 2) s.b = 2;
  if (s.c < 1) s.c = 1;
}

Scenario Scenario::sample(std::uint64_t scenario_seed, std::uint64_t index) {
  Scenario s;
  s.scenario_seed = scenario_seed;
  s.index = index;
  rng::CounterRng rng(scenario_seed, kScenarioSalt, index);

  s.engine_seed = rng();
  s.n = 1ULL << pick(rng, 5, 9);  // 32 .. 512
  s.steps = pick(rng, 48, 320);
  const unsigned thread_choices[] = {1, 1, 2, 4, 8};
  s.threads = thread_choices[pick(rng, 0, 4)];
  s.threads_replay = thread_choices[pick(rng, 0, 4)];

  // Every 4th scenario is a standalone collision game (Figure 1 / Lemma 1
  // invariants); the rest drive the full engine.
  s.collision_only = (index % 4 == 3);
  if (s.collision_only) {
    s.a = static_cast<std::uint32_t>(pick(rng, 2, 6));
    s.b = static_cast<std::uint32_t>(pick(rng, 1, s.a - 1));
    s.c = static_cast<std::uint32_t>(pick(rng, 1, 3));
    // Request densities from sparse to over-saturated; the protocol must
    // keep its <= c acceptance invariant even when it cannot succeed.
    s.collision_requests = pick(rng, 1, s.n);
    return s;
  }

  const ModelKind models[] = {
      ModelKind::kSingle,       ModelKind::kGeometric,
      ModelKind::kMulti,        ModelKind::kAdversarial,
      ModelKind::kPoissonBatch, ModelKind::kOnOff,
      ModelKind::kWeighted,
  };
  s.model = models[pick(rng, 0, 6)];
  s.p = 0.2 + 0.05 * static_cast<double>(pick(rng, 0, 8));       // 0.2..0.6
  s.eps = 0.05 + 0.05 * static_cast<double>(pick(rng, 0, 3));    // 0.05..0.2
  if (s.p + s.eps > 0.95) s.p = 0.95 - s.eps;
  s.geometric_k = static_cast<std::uint32_t>(pick(rng, 2, 6));
  s.multi_c = static_cast<std::uint32_t>(pick(rng, 2, 4));
  s.lambda = 0.3 + 0.1 * static_cast<double>(pick(rng, 0, 4));   // 0.3..0.7

  const BalancerKind balancers[] = {
      BalancerKind::kNone,       BalancerKind::kThreshold,
      BalancerKind::kThreshold,  BalancerKind::kThreshold,
      BalancerKind::kDist,       BalancerKind::kRsu,
      BalancerKind::kLm,         BalancerKind::kRandomSeeking,
      BalancerKind::kAllInAir,
  };
  s.balancer = balancers[pick(rng, 0, 8)];
  s.a = static_cast<std::uint32_t>(pick(rng, 4, 6));
  s.b = static_cast<std::uint32_t>(pick(rng, 1, 2));
  s.c = static_cast<std::uint32_t>(pick(rng, 1, 2));
  s.spread_execution = pick(rng, 0, 3) == 0;
  s.one_shot_preround = pick(rng, 0, 3) == 0;
  s.prune_satisfied = pick(rng, 0, 1) == 0;
  s.streaming_transfers = pick(rng, 0, 3) == 0;
  s.weight_based = s.model == ModelKind::kWeighted && pick(rng, 0, 1) == 0;
  s.t_min = pick(rng, 0, 2) == 0 ? 8 : 16;
  s.latency = static_cast<std::uint32_t>(pick(rng, 1, 4));

  // Fault schedule: up to 4 spikes (adversarial rows come from the
  // Adversarial model itself).
  const std::uint64_t fault_count = pick(rng, 0, 4);
  for (std::uint64_t f = 0; f < fault_count; ++f) {
    FaultEvent ev;
    ev.step = pick(rng, 1, s.steps - 1);
    ev.proc = static_cast<std::uint32_t>(rng::bounded(rng, s.n));
    ev.tasks = static_cast<std::uint32_t>(pick(rng, 8, 96));
    s.faults.push_back(ev);
  }
  s.mutation_step = pick(rng, 1, s.steps > 8 ? s.steps - 4 : s.steps);

  // Every ~4th engine scenario exercises the concurrent runtime instead of
  // the simulator. Drawn last so the runtime dimension does not perturb the
  // sampling streams of pre-existing scenario fields.
  if (pick(rng, 0, 3) == 0) clamp_to_runtime(s);

  // A third of runtime threshold scenarios run the latency fabric (delay
  // queues + dist lockstep shadow). Appended after the runtime draw for the
  // same stream-stability reason; the dist protocol caps the query width.
  if (s.runtime && s.balancer == BalancerKind::kThreshold &&
      pick(rng, 0, 2) == 0) {
    s.rt_latency = true;
    if (s.a > 8) s.a = 8;
  }

  // Link-model knobs for latency scenarios: heterogeneous jitter, bandwidth
  // caps, and lossy links with retransmit. Gated on rt_latency and appended
  // after every other draw, so lossless scenarios keep their exact streams.
  if (s.rt_latency) {
    if (pick(rng, 0, 2) == 0) {
      s.link_jitter = static_cast<std::uint32_t>(pick(rng, 1, 3));
    }
    if (pick(rng, 0, 3) == 0) {
      s.link_bandwidth = static_cast<std::uint32_t>(pick(rng, 1, 4));
    }
    if (pick(rng, 0, 3) == 0) {
      s.link_loss = 8192u * static_cast<std::uint32_t>(pick(rng, 1, 4));
    }
  }

  // Workload zoo (appended after every earlier draw, so pre-zoo scenarios
  // keep their exact streams). A quarter of scenarios swap in one of the
  // five production models; non-latency scenarios may additionally swap in
  // an information-based baseline, and liveness-aware scenarios may draw a
  // crash schedule.
  if (pick(rng, 0, 3) == 0) {
    const ModelKind zoo_models[] = {
        ModelKind::kDiurnal, ModelKind::kFlashCrowd, ModelKind::kPareto,
        ModelKind::kZipf,    ModelKind::kHetero,
    };
    s.model = zoo_models[pick(rng, 0, 4)];
    s.weight_based = false;  // zoo models generate unit weights
  }
  s.stale_staleness = 1ULL << pick(rng, 0, 4);  // 1 .. 16
  s.stale_gap = static_cast<std::uint32_t>(pick(rng, 2, 4));
  s.ls_min_load = static_cast<std::uint32_t>(pick(rng, 2, 4));
  if (!s.rt_latency && pick(rng, 0, 4) == 0) {
    s.balancer = pick(rng, 0, 1) == 0 ? BalancerKind::kStaleSq
                                      : BalancerKind::kLocalSearch;
  }
  const bool liveness_aware = s.balancer == BalancerKind::kNone ||
                              s.balancer == BalancerKind::kStaleSq ||
                              s.balancer == BalancerKind::kLocalSearch;
  if (liveness_aware && !s.rt_latency && pick(rng, 0, 2) == 0) {
    const std::uint64_t crash_count = pick(rng, 1, 2);
    for (std::uint64_t i = 0; i < crash_count; ++i) {
      core::CrashEvent ev;
      ev.step = pick(rng, 1, s.steps > 4 ? s.steps - 2 : s.steps);
      ev.proc = static_cast<std::uint32_t>(rng::bounded(rng, s.n));
      ev.down_steps = pick(rng, 2, 16);
      s.crashes.push_back(ev);
    }
  }

  // Scale knobs (deterministic work stealing): drawn after every older
  // field so pre-existing (seed, index) pairs keep their exact scenarios.
  // Stealing needs the instant fabric, so it is never combined with the
  // latency dimension.
  if (s.runtime) {
    // The retired queue-layout draw stays, so later draws keep their place
    // in the stream.
    (void)pick(rng, 0, 1);
    if (!s.rt_latency && pick(rng, 0, 2) == 0) s.rt_steal = true;
  }
  return s;
}

std::string Scenario::describe() const {
  char buf[256];
  if (collision_only) {
    std::snprintf(buf, sizeof buf,
                  "collision n=%llu a=%u b=%u c=%u requests=%llu seed=%llu",
                  static_cast<unsigned long long>(n), a, b, c,
                  static_cast<unsigned long long>(collision_requests),
                  static_cast<unsigned long long>(engine_seed));
    return buf;
  }
  std::string lat;
  if (rt_latency) {
    lat = " lat=" + std::to_string(latency);
    if (link_jitter != 0) lat += " jit=" + std::to_string(link_jitter);
    if (link_bandwidth != 0) lat += " bw=" + std::to_string(link_bandwidth);
    if (link_loss != 0) lat += " loss=" + std::to_string(link_loss);
  }
  if (!crashes.empty()) lat += " crashes=" + std::to_string(crashes.size());
  if (rt_steal) lat += " steal";
  std::snprintf(
      buf, sizeof buf,
      "%s n=%llu steps=%llu model=%s balancer=%s threads=%u/%u "
      "faults=%zu%s%s%s mutation=%s",
      runtime ? (rt_latency ? "runtime-lat" : "runtime") : "engine",
      static_cast<unsigned long long>(n),
      static_cast<unsigned long long>(steps), to_string(model),
      to_string(balancer), threads, threads_replay, faults.size(),
      spread_execution ? " spread" : "", streaming_transfers ? " stream" : "",
      lat.c_str(), sim::to_string(mutation));
  return buf;
}

std::string Scenario::repro_command() const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "clb_fuzz --scenario-seed=%llu --index=%llu --n=%llu "
                "--steps=%llu --max-faults=%zu --mutate=%s",
                static_cast<unsigned long long>(scenario_seed),
                static_cast<unsigned long long>(index),
                static_cast<unsigned long long>(n),
                static_cast<unsigned long long>(steps), faults.size(),
                sim::to_string(mutation));
  return buf;
}

ScenarioRuntime build_runtime(const Scenario& s) {
  CLB_CHECK(!s.collision_only, "collision scenarios have no engine runtime");
  ScenarioRuntime rt;
  switch (s.model) {
    case ModelKind::kSingle:
      rt.model = std::make_unique<models::SingleModel>(s.p, s.eps);
      break;
    case ModelKind::kGeometric:
      rt.model = std::make_unique<models::GeometricModel>(s.geometric_k);
      break;
    case ModelKind::kMulti: {
      // pmf over {0..multi_c-1} with mean < 1: mass 0.6 on zero, the rest
      // split evenly.
      std::vector<double> pmf(s.multi_c, 0.0);
      pmf[0] = 0.6;
      for (std::size_t i = 1; i < pmf.size(); ++i) {
        pmf[i] = 0.4 / static_cast<double>(pmf.size() - 1);
      }
      rt.model = std::make_unique<models::MultiModel>(std::move(pmf));
      break;
    }
    case ModelKind::kAdversarial: {
      models::AdversarialConfig ac;
      ac.cap = 4 * s.n;
      rt.model = std::make_unique<models::AdversarialModel>(ac, s.n);
      break;
    }
    case ModelKind::kPoissonBatch:
      rt.model = std::make_unique<models::PoissonBatchModel>(s.lambda);
      break;
    case ModelKind::kOnOff:
      rt.model = std::make_unique<models::OnOffModel>(models::OnOffConfig{},
                                                      s.n);
      break;
    case ModelKind::kWeighted:
      rt.model = std::make_unique<models::WeightedSingleModel>(
          s.p, s.eps, std::vector<double>{0.5, 0.25, 0.15, 0.1});
      break;
    case ModelKind::kBurst: {
      models::BurstConfig bc;
      bc.period = 16;
      bc.burst_len = 8;
      bc.hot_fraction = 0.1;
      bc.burst_rate = 6;
      rt.model = std::make_unique<models::BurstModel>(bc, s.n);
      break;
    }
    case ModelKind::kDiurnal: {
      models::DiurnalConfig dc;
      dc.period = 32;
      dc.proc_skew = 1.0 / static_cast<double>(s.n);
      rt.model = std::make_unique<models::DiurnalModel>(dc);
      break;
    }
    case ModelKind::kFlashCrowd:
      rt.model = std::make_unique<models::FlashCrowdModel>(
          models::FlashCrowdConfig{}, s.n);
      break;
    case ModelKind::kPareto:
      rt.model = std::make_unique<models::ParetoModel>(models::ParetoConfig{});
      break;
    case ModelKind::kZipf: {
      models::ZipfConfig zc;
      zc.rotate_period = 24;
      rt.model = std::make_unique<models::ZipfModel>(zc, s.n);
      break;
    }
    case ModelKind::kHetero:
      rt.model = std::make_unique<models::HeteroModel>(models::HeteroConfig{});
      break;
  }

  if (!s.crashes.empty()) {
    rt.liveness = std::make_unique<core::LivenessSchedule>(s.n, s.crashes);
  }

  switch (s.balancer) {
    case BalancerKind::kNone:
      break;
    case BalancerKind::kThreshold: {
      core::ThresholdBalancerConfig cfg;
      core::Fractions fr;
      fr.t_min = s.t_min;
      cfg.params = core::PhaseParams::from_n(s.n, fr);
      cfg.game = collision::CollisionConfig{s.a, s.b, s.c, 0};
      cfg.execution = s.spread_execution ? core::PhaseExecution::kSpread
                                         : core::PhaseExecution::kAtomic;
      cfg.one_shot_preround = s.one_shot_preround;
      cfg.prune_satisfied = s.prune_satisfied;
      cfg.streaming_transfers = s.streaming_transfers;
      cfg.weight_based = s.weight_based;
      rt.balancer = std::make_unique<core::ThresholdBalancer>(cfg);
      break;
    }
    case BalancerKind::kDist: {
      dist::DistConfig cfg;
      cfg.params = core::PhaseParams::from_n(s.n);
      cfg.latency = s.latency;
      rt.balancer = std::make_unique<dist::DistThresholdBalancer>(cfg);
      break;
    }
    case BalancerKind::kRsu:
      rt.balancer = std::make_unique<baselines::RsuBalancer>();
      break;
    case BalancerKind::kLm:
      rt.balancer = std::make_unique<baselines::LmBalancer>();
      break;
    case BalancerKind::kRandomSeeking:
      rt.balancer = std::make_unique<baselines::RandomSeekingBalancer>();
      break;
    case BalancerKind::kAllInAir:
      rt.balancer = std::make_unique<baselines::AllInAirBalancer>();
      break;
    case BalancerKind::kStaleSq:
      rt.balancer = std::make_unique<baselines::StaleShortestQueue>(
          baselines::StaleSqConfig{s.stale_staleness, s.stale_gap}, s.n,
          rt.liveness.get());
      break;
    case BalancerKind::kLocalSearch:
      rt.balancer = std::make_unique<baselines::LocalSearchBalancer>(
          baselines::LocalSearchConfig{s.ls_min_load}, s.n,
          rt.liveness.get());
      break;
  }
  return rt;
}

}  // namespace clb::testing
