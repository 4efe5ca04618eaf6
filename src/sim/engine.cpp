#include "sim/engine.hpp"

#include <algorithm>

#include "core/liveness.hpp"
#include "util/check.hpp"

namespace clb::sim {

Engine::Engine(EngineConfig cfg, LoadModel* model, Balancer* balancer)
    : cfg_(cfg), model_(model), balancer_(balancer) {
  CLB_CHECK(cfg_.n >= 1, "engine needs at least one processor");
  CLB_CHECK(cfg_.n <= (1ULL << 32), "processor ids must fit in 32 bits");
  CLB_CHECK(model_ != nullptr, "engine needs a load model");
  procs_.resize(cfg_.n);
  if (cfg_.steal.enabled) {
    dry_.resize(cfg_.n, 0);
    steal_load_.resize(cfg_.n, 0);
    steal_alive_.resize(cfg_.n, 1);
  }
  reset();
}

void Engine::reset() {
  for (auto& p : procs_) p = Processor{};
  pending_.clear();
  msg_.reset();
  sojourn_.clear();
  step_ = 0;
  total_load_ = 0;
  step_max_load_ = 0;
  running_max_load_ = 0;
  total_weight_ = 0;
  step_max_weight_ = 0;
  running_max_weight_ = 0;
  clamped_ = 0;
  deposited_ = 0;
  drained_ = 0;
  rehomed_tasks_ = 0;
  rehomed_events_ = 0;
  std::fill(dry_.begin(), dry_.end(), std::uint8_t{0});
  steal_log_.clear();
  stolen_tasks_ = 0;
  if (balancer_ != nullptr) balancer_->on_reset(*this);
}

void Engine::run(std::uint64_t steps) {
  for (std::uint64_t s = 0; s < steps; ++s) step_once();
}

void Engine::generate_consume(std::uint64_t step) {
  const std::uint64_t system_load = total_load_;  // start-of-step snapshot
  const bool steal_on = cfg_.steal.enabled;
  for (std::uint64_t p = 0; p < cfg_.n; ++p) {
    if (steal_on) dry_[p] = 0;  // dead processors are never dry
    if (cfg_.liveness != nullptr && !cfg_.liveness->alive(p, step)) continue;
    Processor& proc = procs_[p];
    const StepAction act =
        model_->step_action(cfg_.seed, p, step, proc.load(), system_load);
    for (std::uint32_t i = 0; i < act.generate; ++i) {
      proc.queue.push_back(Task{static_cast<std::uint32_t>(step),
                                static_cast<std::uint32_t>(p), act.weight});
      proc.weight_load += act.weight;
    }
    proc.generated += act.generate;
    std::uint32_t c = act.consume;
    while (c > 0 && !proc.queue.empty()) {
      const Task t = proc.queue.pop_front();
      proc.weight_load -= t.weight;
      ++proc.consumed;
      if (t.origin == p) ++proc.consumed_on_origin;
      if (cfg_.track_sojourn) {
        sojourn_.add(step - t.birth_step);
      }
      --c;
    }
    // Dry = consume budget outlived the queue (the loop invariant makes
    // c > 0 imply the queue emptied): this processor is a steal thief.
    if (steal_on && c > 0) dry_[p] = 1;
  }
}

void Engine::process_crashes(std::uint64_t step) {
  if (cfg_.liveness == nullptr || !cfg_.liveness->crash_step(step)) return;
  for (const std::uint32_t c : cfg_.liveness->crashes_at(step)) {
    const std::uint32_t target = cfg_.liveness->rehome_target(c, step);
    Processor& src = procs_[c];
    Processor& dst = procs_[target];
    while (!src.queue.empty()) {
      const Task t = src.queue.pop_front();
      src.weight_load -= t.weight;
      dst.queue.push_back(t);
      dst.weight_load += t.weight;
      ++rehomed_tasks_;
    }
    ++rehomed_events_;
  }
}

void Engine::apply_steals(std::uint64_t step) {
  if (!cfg_.steal.enabled) return;
  for (std::uint64_t p = 0; p < cfg_.n; ++p) {
    steal_load_[p] = static_cast<std::uint32_t>(procs_[p].load());
    steal_alive_[p] = cfg_.liveness == nullptr ||
                              cfg_.liveness->alive(p, step)
                          ? 1
                          : 0;
  }
  const std::vector<Transfer> ds =
      steal_decisions(cfg_.n, steal_load_, dry_, steal_alive_, cfg_.steal);
  for (const Transfer& t : ds) {
    Processor& src = procs_[t.from];
    Processor& dst = procs_[t.to];
    // The rule guarantees count <= load/2, so this never clamps.
    const std::uint64_t weight =
        dst.queue.append_from_back_of(src.queue, t.count);
    src.weight_load -= weight;
    dst.weight_load += weight;
    src.tasks_sent += t.count;
    dst.tasks_received += t.count;
    ++dst.balance_initiations;  // the thief initiated this move
    ++msg_.transfers;
    msg_.tasks_moved += t.count;
    stolen_tasks_ += t.count;
    steal_log_.push_back(StealRecord{step, t.from, t.to, t.count});
    CLB_TRACE_EVENT(cfg_.trace, obs::EventKind::kTransfer, step_, t.from, t.to,
                    t.count);
  }
}

void Engine::step_once() {
  const std::uint64_t step = step_;
  process_crashes(step);
  generate_consume(step);
  apply_steals(step);
  if (balancer_ != nullptr) balancer_->on_step(*this);
  apply_transfers();
  refresh_load_aggregates();
  ++step_;
  // Per-step conservation is debug-only (O(n) counter scan every step);
  // phase-structured balancers call check_conservation() on their own cold
  // phase boundaries, which stays on in release builds.
  CLB_DCHECK(conservation_holds(), "task conservation violated after step");
}

bool Engine::conservation_holds() const {
  std::uint64_t queued = 0, generated = 0, consumed = 0;
  for (const auto& p : procs_) {
    queued += p.load();
    generated += p.generated;
    consumed += p.consumed;
  }
  return generated + deposited_ == consumed + queued + drained_;
}

void Engine::check_conservation() const {
  CLB_CHECK(conservation_holds(),
            "task conservation violated: generated + deposited != "
            "consumed + queued + drained");
}

bool Engine::steal_newest_for_test(std::uint32_t p) {
  CLB_CHECK(p < cfg_.n, "steal target out of range");
  Processor& proc = procs_[p];
  if (proc.queue.empty()) return false;
  const Task t = proc.queue.pop_back();
  proc.weight_load -= t.weight;
  ++drained_;  // books the loss as a drain so count checks stay green
  return true;
}

void Engine::swap_queue_entries_for_test(std::uint32_t p, std::uint64_t i,
                                         std::uint64_t j) {
  CLB_CHECK(p < cfg_.n, "swap target out of range");
  procs_[p].queue.swap_positions(i, j);
}

void Engine::schedule_transfer(std::uint32_t from, std::uint32_t to,
                               std::uint32_t count) {
  CLB_CHECK(from < cfg_.n && to < cfg_.n, "transfer endpoint out of range");
  CLB_CHECK(from != to, "transfer to self");
  if (count == 0) return;
  pending_.push_back(Transfer{from, to, count});
}

void Engine::apply_transfers() {
  for (const Transfer& t : pending_) {
    Processor& src = procs_[t.from];
    Processor& dst = procs_[t.to];
    std::uint64_t count = t.count;
    if (count > src.load()) {
      count = src.load();
      ++clamped_;
    }
    const std::uint64_t weight = dst.queue.append_from_back_of(src.queue, count);
    src.weight_load -= weight;
    dst.weight_load += weight;
    src.tasks_sent += count;
    dst.tasks_received += count;
    ++msg_.transfers;
    msg_.tasks_moved += count;
    CLB_TRACE_EVENT(cfg_.trace, obs::EventKind::kTransfer, step_, t.from, t.to,
                    count);
  }
  pending_.clear();
}

void Engine::refresh_load_aggregates() {
  std::uint64_t total = 0;
  std::uint64_t mx = 0;
  std::uint64_t total_w = 0;
  std::uint64_t mx_w = 0;
  for (const auto& p : procs_) {
    const std::uint64_t l = p.load();
    total += l;
    if (l > mx) mx = l;
    total_w += p.weight_load;
    if (p.weight_load > mx_w) mx_w = p.weight_load;
  }
  total_load_ = total;
  step_max_load_ = mx;
  if (mx > running_max_load_) running_max_load_ = mx;
  total_weight_ = total_w;
  step_max_weight_ = mx_w;
  if (mx_w > running_max_weight_) running_max_weight_ = mx_w;
}

std::vector<Task> Engine::drain_all() {
  std::vector<Task> all;
  all.reserve(total_load_);
  for (auto& p : procs_) {
    while (!p.queue.empty()) all.push_back(p.queue.pop_front());
    p.weight_load = 0;
  }
  drained_ += all.size();
  return all;
}

void Engine::deposit(std::uint32_t p, Task t) {
  CLB_CHECK(p < cfg_.n, "deposit target out of range");
  procs_[p].queue.push_back(t);
  procs_[p].weight_load += t.weight;
  ++deposited_;
}

stats::IntHistogram Engine::load_histogram() const {
  stats::IntHistogram h;
  for (const auto& p : procs_) h.add(p.load());
  return h;
}

std::uint64_t Engine::total_generated() const {
  std::uint64_t s = 0;
  for (const auto& p : procs_) s += p.generated;
  return s;
}

std::uint64_t Engine::total_consumed() const {
  std::uint64_t s = 0;
  for (const auto& p : procs_) s += p.consumed;
  return s;
}

double Engine::locality_fraction() const {
  std::uint64_t consumed = 0, on_origin = 0;
  for (const auto& p : procs_) {
    consumed += p.consumed;
    on_origin += p.consumed_on_origin;
  }
  return consumed == 0 ? 1.0
                       : static_cast<double>(on_origin) /
                             static_cast<double>(consumed);
}

}  // namespace clb::sim
