#include "rt/config.hpp"

#include <algorithm>
#include <cstdio>
#include <thread>

#include "util/check.hpp"

namespace clb::rt {

const char* transport_name(Transport t) {
  switch (t) {
    case Transport::kInProc: return "inproc";
    case Transport::kUds: return "uds";
    case Transport::kTcp: return "tcp";
  }
  return "?";
}

const char* policy_name(RtPolicy p) {
  switch (p) {
    case RtPolicy::kNone: return "none";
    case RtPolicy::kThreshold: return "threshold";
    case RtPolicy::kAllInAir: return "all-in-air";
    case RtPolicy::kStaleSq: return "stale-sq";
    case RtPolicy::kLocalSearch: return "local-search";
  }
  return "?";
}

void check_processor(std::uint64_t p, std::uint64_t n, const char* who) {
  if (p < n) return;
  char msg[160];
  std::snprintf(msg, sizeof msg, "%s: processor %llu out of range (n = %llu)",
                who, static_cast<unsigned long long>(p),
                static_cast<unsigned long long>(n));
  CLB_CHECK(p < n, msg);
}

void check_deposit(std::uint64_t p, std::uint64_t n, std::uint64_t birth_step,
                   std::uint64_t step, const char* who) {
  check_processor(p, n, who);
  if (birth_step <= step) return;
  const std::string msg = std::string(who) + ": task for processor " +
                          std::to_string(p) + " born at step " +
                          std::to_string(birth_step) + ", after step " +
                          std::to_string(step);
  CLB_CHECK(false, msg.c_str());
}

namespace {

/// The fault-injection rules: the ordinal fits the kind (sim/mutation.hpp),
/// and the config carries what the kind injects into (mailbox-drop needs
/// nothing beyond transfers).
void validate_mutation(const RtConfig& cfg, std::vector<std::string>& v) {
  using K = sim::MutationKind;
  const sim::MutationInfo& m = sim::mutation_info(cfg.mutation);
  const std::string name = std::string("mutation ") + m.name;
  if (m.site == sim::MutationSite::kEngine) {
    v.push_back(name + " injects through sim::Engine, not the runtime");
    return;
  }
  if (m.ordinal != (cfg.mutation_ordinal != 0)) {
    v.push_back(name + (m.ordinal ? ": mutation_ordinal must be >= 1"
                                  : ": mutation_ordinal must be 0"));
  }
  const bool lossy = cfg.latency >= 1 && cfg.link.lossy();
  const char* lossy_link = "a lossy latency link (link.loss_per_64k > 0)";
  const struct { K kind; bool ok; const char* needs; } sites[] = {
      {K::kDelaySkew, cfg.latency >= 1, "the latency fabric (latency >= 1)"},
      {K::kFrameCorrupt, cfg.transport != Transport::kInProc,
       "a socket transport (kUds or kTcp)"},
      {K::kLinkLossNoRetransmit, lossy, lossy_link},
      {K::kDupDelivery, lossy, lossy_link},
      {K::kCrashLoseQueue, !cfg.crashes.empty(), "a crash schedule"},
      {K::kStaleFreeLunch, cfg.policy == RtPolicy::kStaleSq, "policy stale-sq"},
      {K::kStealDuplicateTask, cfg.steal.enabled, "steal.enabled"},
  };
  for (const auto& site : sites) {
    if (site.kind == cfg.mutation && !site.ok) {
      v.push_back(name + " needs " + site.needs);
    }
  }
}

}  // namespace

std::vector<std::string> validate(const RtConfig& cfg) {
  std::vector<std::string> v;
  const auto rule = [&](bool ok, const char* what) {
    if (!ok) v.emplace_back(what);
  };
  rule(cfg.deterministic,
       "deterministic = false (arrival-order mode) no longer exists; every "
       "run sorts into the canonical order");
  rule(cfg.n >= 1 && cfg.n <= (1ULL << 31),
       "processor ids must fit comfortably in 32 bits (1 <= n <= 2^31)");
  if (cfg.policy == RtPolicy::kThreshold) {
    rule(cfg.params.n == cfg.n,
         "phase params must be realised for this n (PhaseParams::from_n)");
    rule(cfg.game.b >= 1 && cfg.game.b <= 2,
         "query trees are binary: b must be 1 or 2");
    rule(cfg.game.a >= 2 && cfg.game.a <= 16 && cfg.game.a < cfg.n,
         "collision fan-out a out of range");
    rule(cfg.game.c >= 1, "collision capacity c must be >= 1");
  }
  const bool zoo = cfg.policy == RtPolicy::kStaleSq ||
                   cfg.policy == RtPolicy::kLocalSearch;
  if (cfg.latency > 0) {
    rule(cfg.policy == RtPolicy::kThreshold,
         "the latency fabric runs the threshold protocol only");
    rule(cfg.game.a <= 8, "latency mode runs the dist protocol: a in [2, 8]");
    rule(static_cast<std::uint64_t>(cfg.game.c) * (cfg.game.a - cfg.game.b) >=
             2,
         "latency mode: round bound needs c(a-b) >= 2");
    rule(cfg.phase_gap >= 1, "latency mode: phase_gap must be >= 1");
    rule(!zoo, "workload-zoo policies run on the instant fabric only");
    rule(cfg.crashes.empty(), "crash/recovery runs on the instant fabric only");
    rule(!cfg.steal.enabled, "work stealing runs on the instant fabric only");
  } else {
    rule(!cfg.link.shaped(),
         "link-model knobs require the latency fabric (latency >= 1)");
  }
  rule(cfg.policy != RtPolicy::kStaleSq || cfg.stale.staleness >= 1,
       "stale-sq: staleness must be >= 1");
  rule(cfg.crashes.empty() || cfg.policy == RtPolicy::kNone || zoo,
       "a crash schedule requires a liveness-aware policy "
       "(none, stale-sq or local-search)");
  rule(!cfg.steal.enabled || cfg.steal.min_victim_load >= 2,
       "work stealing: min_victim_load must be >= 2");
  validate_mutation(cfg, v);
  return v;
}

void refuse_invalid(const std::vector<std::string>& violations,
                    const char* who) {
  if (violations.empty()) return;
  std::string msg = std::string(who) + " refuses the config: ";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    if (i != 0) msg += "; ";
    msg += violations[i];
  }
  CLB_CHECK(false, msg.c_str());
}

unsigned resolve_workers(const RtConfig& cfg) {
  const unsigned w = cfg.workers != 0
                         ? cfg.workers
                         : std::max(1u, std::thread::hardware_concurrency());
  return static_cast<unsigned>(
      std::clamp<std::uint64_t>(w, 1, std::max<std::uint64_t>(cfg.n, 1)));
}

}  // namespace clb::rt
