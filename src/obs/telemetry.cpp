#include "obs/telemetry.hpp"

#include "obs/json.hpp"

namespace clb::obs {

void WorkerTelemetry::merge(const WorkerTelemetry& other) {
  steps += other.steps;
  step_ns += other.step_ns;
  stall_ns += other.stall_ns;
  barrier_waits += other.barrier_waits;
  for (std::size_t i = 0; i < kStageCount; ++i) {
    stage_ns[i] += other.stage_ns[i];
    stage_stall_ns[i] += other.stage_stall_ns[i];
  }
  enq_self += other.enq_self;
  enq_remote += other.enq_remote;
  deq += other.deq;
  drains += other.drains;
  generated += other.generated;
  consumed += other.consumed;
  phases += other.phases;
  steals += other.steals;
  stolen_tasks += other.stolen_tasks;
  if (other.fabric_max_in_flight > fabric_max_in_flight) {
    fabric_max_in_flight = other.fabric_max_in_flight;
  }
  fabric_flight_sum += other.fabric_flight_sum;
  fabric_flight_samples += other.fabric_flight_samples;
  step_ns_hist.merge(other.step_ns_hist);
  stall_ns_hist.merge(other.stall_ns_hist);
  drain_batch_hist.merge(other.drain_batch_hist);
  phase_steps_hist.merge(other.phase_steps_hist);
}

void merge_worker_telemetry(MetricsRegistry& m, const WorkerTelemetry& t,
                            const std::string& prefix) {
  m.counter(prefix + "steps") = t.steps;
  m.counter(prefix + "step_ns") = t.step_ns;
  m.counter(prefix + "stall_ns") = t.stall_ns;
  m.counter(prefix + "work_ns") = t.work_ns();
  m.counter(prefix + "barrier_waits") = t.barrier_waits;
  std::uint64_t staged = 0;
  for (std::size_t i = 0; i < kStageCount; ++i) {
    m.counter(prefix + "stage." + kStageNames[i] + "_ns") = t.stage_ns[i];
    m.counter(prefix + "stage." + kStageNames[i] + ".stall_ns") =
        t.stage_stall_ns[i];
    staged += t.stage_ns[i];
  }
  m.counter(prefix + "enq_self") = t.enq_self;
  m.counter(prefix + "enq_remote") = t.enq_remote;
  m.counter(prefix + "deq") = t.deq;
  m.counter(prefix + "drains") = t.drains;
  m.counter(prefix + "generated") = t.generated;
  m.counter(prefix + "consumed") = t.consumed;
  m.counter(prefix + "phases") = t.phases;
  m.counter(prefix + "steals") = t.steals;
  m.counter(prefix + "stolen_tasks") = t.stolen_tasks;
  m.gauge(prefix + "utilization") = t.utilization();
  m.gauge(prefix + "stall_fraction") = t.stall_fraction();
  // The share of step time the named stages account for (~1 by design).
  m.gauge(prefix + "stage_coverage") =
      t.step_ns == 0 ? 0.0
                     : static_cast<double>(staged) /
                           static_cast<double>(t.step_ns);
  m.gauge(prefix + "drain_batch_mean") = t.drain_batch_hist.mean();
  m.gauge(prefix + "drain_batch_p99") =
      static_cast<double>(t.drain_batch_hist.quantile(0.99));
  m.gauge(prefix + "barrier_wait_p50_ns") =
      static_cast<double>(t.stall_ns_hist.quantile(0.50));
  m.gauge(prefix + "barrier_wait_p99_ns") =
      static_cast<double>(t.stall_ns_hist.quantile(0.99));
  m.gauge(prefix + "barrier_wait_max_ns") =
      static_cast<double>(t.stall_ns_hist.max());
  m.gauge(prefix + "step_p50_ns") =
      static_cast<double>(t.step_ns_hist.quantile(0.50));
  m.gauge(prefix + "step_p99_ns") =
      static_cast<double>(t.step_ns_hist.quantile(0.99));
  m.gauge(prefix + "phase_steps_mean") = t.phase_steps_hist.mean();
  m.gauge(prefix + "phase_steps_max") =
      static_cast<double>(t.phase_steps_hist.max());
}

void append_telemetry_snapshot(std::string& out, const std::string& tag,
                               std::uint64_t step, unsigned worker,
                               unsigned workers, std::uint64_t shard_load,
                               const WorkerTelemetry& t) {
  JsonWriter w;
  w.begin_object();
  w.member("kind", "rt_telemetry");
  if (!tag.empty()) w.member("tag", tag);
  w.member("step", step);
  w.member("worker", static_cast<std::uint64_t>(worker));
  w.member("workers", static_cast<std::uint64_t>(workers));
  w.member("shard_load", shard_load);
  w.member("steps", t.steps);
  w.member("step_ns", t.step_ns);
  w.member("stall_ns", t.stall_ns);
  w.member("work_ns", t.work_ns());
  w.member("barrier_waits", t.barrier_waits);
  w.member("enq_self", t.enq_self);
  w.member("enq_remote", t.enq_remote);
  w.member("deq", t.deq);
  w.member("drains", t.drains);
  w.member("generated", t.generated);
  w.member("consumed", t.consumed);
  w.member("phases", t.phases);
  w.end_object();
  out += w.str();
  out += '\n';
}

}  // namespace clb::obs
