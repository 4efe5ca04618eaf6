// Telemetry layer contracts: the histogram arithmetic, multi-threaded
// single-writer merge discipline (TSan target), conservation of runtime
// totals, the bit-identity guarantee (telemetry only observes — a run's
// outputs do not change when it is switched on), the
// snapshot JSONL emitter, the registry export, and worker attribution on
// trace events. All suites are named Telemetry* so the TSan CI job can
// select them with a single -R regex.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/params.hpp"
#include "models/single.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "rt/runtime.hpp"
#include "stats/log_histogram.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace clb;

TEST(TelemetryHistogram, CountSumMeanMax) {
  stats::LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0u);
  h.add(0);
  h.add(1);
  h.add(7);
  h.add(1000);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 1008u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_DOUBLE_EQ(h.mean(), 252.0);
  // Values below 32 have a bucket each; 1000 has width 10, so it sits in
  // bucket 4 * 32 + (1000 >> 4) = [992, 1007] with 15 other values.
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[7], 1u);
  EXPECT_EQ(h.buckets()[4 * 32 + 62], 1u);
  EXPECT_EQ(stats::LogHistogram::bucket_low(4 * 32 + 62), 992u);
}

TEST(TelemetryHistogram, QuantileHitsBucketMidpoint) {
  stats::LogHistogram h;
  for (int i = 0; i < 99; ++i) h.add(5000);  // bucket [4992, 5119]
  h.add(1 << 20);
  // p50 falls in the [4992, 5119] bucket; its midpoint is 4992 + 127 / 2.
  EXPECT_EQ(h.quantile(0.50), 5055u);
  // The single top sample's bucket is [2^20, 2^20 + 2^15 - 1]; its midpoint
  // is above the sample, so the quantile caps at the exact max.
  EXPECT_EQ(h.quantile(1.0), 1u << 20);
}

TEST(TelemetryHistogram, MergeConservesAndClearResets) {
  stats::LogHistogram a;
  stats::LogHistogram b;
  for (std::uint64_t v : {1u, 2u, 3u}) a.add(v);
  for (std::uint64_t v : {100u, 200u}) b.add(v);
  a.merge(b);
  EXPECT_EQ(a.count(), 5u);
  EXPECT_EQ(a.sum(), 306u);
  EXPECT_EQ(a.max(), 200u);
  a.clear();
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.sum(), 0u);
  EXPECT_EQ(a.max(), 0u);
  EXPECT_EQ(a.quantile(0.99), 0u);
}

// Factor-2 buckets read every barrier p99 between 1,048,576 and 2,097,151 ns
// as one value; the log-linear buckets keep 1.6 ms and 2.0 ms apart, each
// to within 1/64 of itself.
TEST(TelemetryHistogram, StallP99TellsOnePointSixFromTwoMs) {
  const auto p99 = [](std::uint64_t tail_ns) {
    obs::WorkerTelemetry t;
    for (int i = 0; i < 98; ++i) t.stall_ns_hist.add(20000);
    for (int i = 0; i < 2; ++i) t.stall_ns_hist.add(tail_ns);
    obs::MetricsRegistry m;
    obs::merge_worker_telemetry(m, t, "t.");
    return m.gauge("t.barrier_wait_p99_ns");
  };
  const double a = p99(1600000);
  const double b = p99(2000000);
  EXPECT_NEAR(a, 1.6e6, 1.6e6 / 64);
  EXPECT_NEAR(b, 2.0e6, 2.0e6 / 64);
  EXPECT_LT(a, b);
}

TEST(TelemetryWorker, DerivedRatiosAndMerge) {
  obs::WorkerTelemetry t;
  t.steps = 10;
  t.step_ns = 1000;
  t.stall_ns = 250;
  EXPECT_EQ(t.work_ns(), 750u);
  EXPECT_DOUBLE_EQ(t.utilization(), 0.75);
  EXPECT_DOUBLE_EQ(t.stall_fraction(), 0.25);

  obs::WorkerTelemetry u;
  u.steps = 5;
  u.step_ns = 500;
  u.stall_ns = 500;
  u.consumed = 42;
  u.fabric_max_in_flight = 9;
  t.merge(u);
  EXPECT_EQ(t.steps, 15u);
  EXPECT_EQ(t.step_ns, 1500u);
  EXPECT_EQ(t.stall_ns, 750u);
  EXPECT_EQ(t.consumed, 42u);
  EXPECT_EQ(t.fabric_max_in_flight, 9u);  // maxes, not adds
  EXPECT_DOUBLE_EQ(t.utilization(), 0.5);
}

TEST(TelemetryWorker, ZeroStepsHasZeroRatios) {
  const obs::WorkerTelemetry t;
  EXPECT_EQ(t.work_ns(), 0u);
  EXPECT_DOUBLE_EQ(t.utilization(), 0.0);
  EXPECT_DOUBLE_EQ(t.stall_fraction(), 0.0);
}

// The runtime's concurrency pattern under TSan: 8 threads each own one
// WorkerTelemetry (single writer, no atomics), publish via a barrier, and
// the leader merges everyone's struct between cycles — exactly how the
// snapshot emitter reads foreign telemetry.
TEST(TelemetryMergeHammer, EightWorkersBarrierPublished) {
  constexpr unsigned kWorkers = 8;
  constexpr int kCycles = 50;
  constexpr int kAddsPerCycle = 200;
  std::vector<obs::WorkerTelemetry> telems(kWorkers);
  obs::WorkerTelemetry observed_total;  // leader-owned scratch
  util::PhaseBarrier barrier(kWorkers);
  std::vector<std::thread> threads;
  threads.reserve(kWorkers);
  for (unsigned w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&, w] {
      util::bind_worker_index(w);
      obs::WorkerTelemetry& t = telems[w];
      for (int c = 0; c < kCycles; ++c) {
        for (int i = 0; i < kAddsPerCycle; ++i) {
          ++t.enq_self;
          ++t.deq;
          t.step_ns += 3;
          t.stall_ns += 1;
          t.stall_ns_hist.add(static_cast<std::uint64_t>(i));
        }
        ++t.steps;
        // Barrier-wait accounting writes into the worker's own struct
        // AFTER the timed barrier returns, so a separate publish barrier
        // must order them before the leader's read — the same
        // copy-publish-read-fence dance the runtime's snapshot emitter
        // does (reading right after the timed barrier is a data race;
        // TSan convicts it if this test gets that order wrong).
        t.stall_ns += barrier.arrive_and_wait_timed();
        ++t.barrier_waits;
        barrier.arrive_and_wait();  // publish the post-wait writes
        if (w == 0) {
          obs::WorkerTelemetry sum;
          for (const obs::WorkerTelemetry& other : telems) sum.merge(other);
          observed_total = sum;
        }
        barrier.arrive_and_wait();  // fence the leader's read
      }
    });
  }
  for (std::thread& t : threads) t.join();
  util::bind_worker_index(0);

  obs::WorkerTelemetry total;
  for (const obs::WorkerTelemetry& t : telems) total.merge(t);
  const std::uint64_t expect_adds =
      static_cast<std::uint64_t>(kWorkers) * kCycles * kAddsPerCycle;
  EXPECT_EQ(total.enq_self, expect_adds);
  EXPECT_EQ(total.deq, expect_adds);
  EXPECT_EQ(total.steps, static_cast<std::uint64_t>(kWorkers) * kCycles);
  EXPECT_EQ(total.step_ns, expect_adds * 3);
  EXPECT_EQ(total.stall_ns_hist.count(), expect_adds);
  // The leader's last mid-run observation saw the same totals.
  EXPECT_EQ(observed_total.enq_self, expect_adds);
}

TEST(TelemetryBarrier, TimedWaitReportsBlockedTime) {
  util::PhaseBarrier barrier(2);
  std::uint64_t fast_ns = 0;
  std::thread fast([&] { fast_ns = barrier.arrive_and_wait_timed(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  barrier.arrive_and_wait_timed();
  fast.join();
  // The early arriver blocked for roughly the sleep (very loose floor —
  // shared CI boxes oversleep, they don't undersleep).
  EXPECT_GE(fast_ns, 1'000'000u);
}

TEST(TelemetryBarrier, BindWorkerIndexAdoptsThread) {
  std::thread t([] {
    EXPECT_EQ(util::worker_index(), 0u);  // never bound
    util::bind_worker_index(3);
    EXPECT_EQ(util::worker_index(), 3u);
  });
  t.join();
}

// ---- runtime integration ----

rt::RtConfig threshold_config(std::uint64_t n, unsigned workers,
                              bool telemetry, std::uint32_t latency = 0) {
  rt::RtConfig cfg;
  cfg.n = n;
  cfg.seed = 7;
  cfg.workers = workers;
  cfg.policy = rt::RtPolicy::kThreshold;
  core::Fractions fr;
  fr.t_min = 32;
  cfg.params = core::PhaseParams::from_n(n, fr);
  cfg.latency = latency;
  cfg.telemetry = telemetry;
  return cfg;
}

void spike(rt::Runtime& run, std::uint64_t n, std::uint64_t step) {
  const auto proc = static_cast<std::uint32_t>((7 + step * 13) % n);
  for (std::uint32_t i = 0; i < 40; ++i) {
    run.deposit(proc, sim::Task{static_cast<std::uint32_t>(step), proc, 1});
  }
}

TEST(TelemetryRuntime, TotalsConserved) {
  constexpr std::uint64_t kN = 256;
  constexpr unsigned kWorkers = 4;
  models::SingleModel model(0.45, 0.1);
  rt::Runtime run(threshold_config(kN, kWorkers, /*telemetry=*/true), &model);
  ASSERT_TRUE(run.telemetry_enabled());
  for (std::uint64_t s = 0; s < 96; s += 24) {
    spike(run, kN, s);
    run.run(24);
  }

  const obs::WorkerTelemetry total = run.telemetry_total();
  EXPECT_EQ(total.consumed, run.result().total_consumed());
  EXPECT_EQ(total.generated, run.result().total_generated());
  // Every mailbox push was drained by run end (the step barrier orders
  // sends before the next drain, and the run ended on a step boundary).
  EXPECT_EQ(total.enq_self + total.enq_remote, total.deq);
  EXPECT_EQ(total.steps, static_cast<std::uint64_t>(kWorkers) * 96);
  EXPECT_GE(total.step_ns, total.stall_ns);
  EXPECT_EQ(total.step_ns_hist.count(), total.steps);

  // Workers march in lockstep: per-worker steps and phases are identical.
  for (unsigned w = 0; w < kWorkers; ++w) {
    const obs::WorkerTelemetry& t = run.worker_telemetry(w);
    EXPECT_EQ(t.steps, 96u) << "worker " << w;
    EXPECT_EQ(t.phases, run.worker_telemetry(0).phases) << "worker " << w;
  }
}

// The stage laps partition the step: every threshold stage that ran is
// booked, the idle ones are not, and together they stay within the step.
TEST(TelemetryRuntime, StagesPartitionTheStep) {
  constexpr std::uint64_t kN = 256;
  models::SingleModel model(0.45, 0.1);
  rt::Runtime run(threshold_config(kN, 2, /*telemetry=*/true), &model);
  for (std::uint64_t s = 0; s < 64; s += 16) {
    spike(run, kN, s);
    run.run(16);
  }

  const obs::WorkerTelemetry total = run.telemetry_total();
  ASSERT_GT(total.phases, 0u);
  const auto ns = [&](obs::Stage s) {
    return total.stage_ns[static_cast<std::size_t>(s)];
  };
  std::uint64_t staged = 0;
  for (const std::uint64_t v : total.stage_ns) staged += v;
  EXPECT_LE(staged, total.step_ns);
  for (const obs::Stage s :
       {obs::Stage::kGenConsume, obs::Stage::kClassify,
        obs::Stage::kCollisionRounds, obs::Stage::kTreeChildren,
        obs::Stage::kTreeIds, obs::Stage::kTreeTransfers,
        obs::Stage::kEndStep}) {
    EXPECT_GT(ns(s), 0u) << obs::kStageNames[static_cast<std::size_t>(s)];
  }
  EXPECT_EQ(ns(obs::Stage::kSteal), 0u);  // stealing is off
  // Each stage's barrier wait lies inside it, and every exchange of the
  // step falls in exactly one stage.
  std::uint64_t stalled = 0;
  for (std::size_t k = 0; k < obs::kStageCount; ++k) {
    EXPECT_LE(total.stage_stall_ns[k], total.stage_ns[k])
        << obs::kStageNames[k];
    stalled += total.stage_stall_ns[k];
  }
  EXPECT_EQ(stalled, total.stall_ns);
  // gen_consume exchanges nothing; the collision rounds always do.
  EXPECT_EQ(
      total.stage_stall_ns[static_cast<std::size_t>(obs::Stage::kGenConsume)],
      0u);
  EXPECT_GT(total.stage_stall_ns[static_cast<std::size_t>(
                obs::Stage::kCollisionRounds)],
            0u);

  obs::MetricsRegistry m;
  run.export_telemetry(m, "t.");
  EXPECT_EQ(m.counter("t.stage.gen_consume_ns"),
            ns(obs::Stage::kGenConsume));
  EXPECT_EQ(m.counter("t.w1.stage.tree_ids_ns"),
            run.worker_telemetry(1)
                .stage_ns[static_cast<std::size_t>(obs::Stage::kTreeIds)]);
  EXPECT_EQ(m.counter("t.stage.collision_rounds.stall_ns"),
            total.stage_stall_ns[static_cast<std::size_t>(
                obs::Stage::kCollisionRounds)]);
  EXPECT_EQ(m.counter("t.w0.stage.end_step.stall_ns"),
            run.worker_telemetry(0).stage_stall_ns[static_cast<std::size_t>(
                obs::Stage::kEndStep)]);
  EXPECT_GT(m.gauge("t.stage_coverage"), 0.0);
  EXPECT_LE(m.gauge("t.stage_coverage"), 1.0);
}

TEST(TelemetryRuntime, DisabledRunsRecordNothing) {
  constexpr std::uint64_t kN = 128;
  models::SingleModel model(0.45, 0.1);
  rt::Runtime run(threshold_config(kN, 2, /*telemetry=*/false), &model);
  EXPECT_FALSE(run.telemetry_enabled());
  run.run(32);
  const obs::WorkerTelemetry total = run.telemetry_total();
  EXPECT_EQ(total.steps, 0u);
  EXPECT_EQ(total.step_ns, 0u);
  EXPECT_EQ(total.deq, 0u);
  for (const std::uint64_t v : total.stage_ns) EXPECT_EQ(v, 0u);
  for (const std::uint64_t v : total.stage_stall_ns) EXPECT_EQ(v, 0u);
  EXPECT_TRUE(run.telemetry_jsonl().empty());
}

/// A spiked run, kept alive so its result can be diffed.
struct SpikedRun {
  std::unique_ptr<models::SingleModel> model;
  std::unique_ptr<rt::Runtime> run;
};

SpikedRun spiked_run(std::uint64_t n, unsigned workers, bool telemetry,
                     std::uint32_t latency) {
  SpikedRun r{std::make_unique<models::SingleModel>(0.45, 0.1), nullptr};
  rt::RtConfig cfg = threshold_config(n, workers, telemetry, latency);
  cfg.telemetry_interval = telemetry ? 16 : 0;
  r.run = std::make_unique<rt::Runtime>(cfg, r.model.get());
  for (std::uint64_t s = 0; s < 96; s += 24) {
    spike(*r.run, n, s);
    r.run->run(24);
  }
  return r;
}

// Telemetry only observes: a run's protocol outputs are bit-identical with telemetry (and its snapshot emitter) on or off.
TEST(TelemetryDeterminism, InstantModeBitIdenticalOnVsOff) {
  const SpikedRun off = spiked_run(256, 3, false, 0);
  const SpikedRun on = spiked_run(256, 3, true, 0);
  EXPECT_EQ(rt::diff(off.run->result(), on.run->result()), "");
}

TEST(TelemetryDeterminism, LatencyFabricBitIdenticalOnVsOff) {
  const SpikedRun off = spiked_run(256, 3, false, 2);
  const SpikedRun on = spiked_run(256, 3, true, 2);
  EXPECT_EQ(rt::diff(off.run->result(), on.run->result()), "");
}

TEST(TelemetryDeterminism, CountersReproduceAcrossRuns) {
  for (const std::uint32_t latency : {0u, 2u}) {
    models::SingleModel m1(0.45, 0.1);
    models::SingleModel m2(0.45, 0.1);
    rt::Runtime a(threshold_config(256, 2, true, latency), &m1);
    rt::Runtime b(threshold_config(256, 2, true, latency), &m2);
    a.run(64);
    b.run(64);
    for (unsigned w = 0; w < 2; ++w) {
      const obs::WorkerTelemetry& ta = a.worker_telemetry(w);
      const obs::WorkerTelemetry& tb = b.worker_telemetry(w);
      // Everything except wall-clock nanoseconds is deterministic.
      EXPECT_EQ(ta.steps, tb.steps);
      EXPECT_EQ(ta.enq_self, tb.enq_self);
      EXPECT_EQ(ta.enq_remote, tb.enq_remote);
      EXPECT_EQ(ta.deq, tb.deq);
      EXPECT_EQ(ta.drains, tb.drains);
      EXPECT_EQ(ta.generated, tb.generated);
      EXPECT_EQ(ta.consumed, tb.consumed);
      EXPECT_EQ(ta.phases, tb.phases);
      EXPECT_EQ(ta.drain_batch_hist.sum(), tb.drain_batch_hist.sum());
      EXPECT_EQ(ta.phase_steps_hist.sum(), tb.phase_steps_hist.sum());
    }
  }
}

TEST(TelemetrySnapshots, EmitterWritesOneLinePerWorkerPerInterval) {
  constexpr unsigned kWorkers = 2;
  models::SingleModel model(0.45, 0.1);
  rt::RtConfig cfg = threshold_config(128, kWorkers, /*telemetry=*/true);
  cfg.telemetry_interval = 8;
  cfg.telemetry_tag = "snaptest";
  rt::Runtime run(cfg, &model);
  run.run(32);  // snapshots after steps 7, 15, 23, 31
  const std::string jsonl = run.telemetry_jsonl();
  std::size_t lines = 0;
  std::size_t tagged = 0;
  for (std::size_t pos = 0; (pos = jsonl.find('\n', pos)) != std::string::npos;
       ++pos) {
    ++lines;
  }
  for (std::size_t pos = 0;
       (pos = jsonl.find("\"tag\":\"snaptest\"", pos)) != std::string::npos;
       ++pos) {
    ++tagged;
  }
  EXPECT_EQ(lines, 4u * kWorkers);
  EXPECT_EQ(tagged, 4u * kWorkers);
  EXPECT_NE(jsonl.find("\"kind\":\"rt_telemetry\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"worker\":1"), std::string::npos);
}

TEST(TelemetryExport, RegistryGaugesMatchTotals) {
  constexpr unsigned kWorkers = 3;
  models::SingleModel model(0.45, 0.1);
  rt::Runtime run(threshold_config(256, kWorkers, /*telemetry=*/true), &model);
  for (std::uint64_t s = 0; s < 64; s += 16) {
    spike(run, 256, s);
    run.run(16);
  }
  obs::MetricsRegistry m;
  run.export_telemetry(m, "t.");
  EXPECT_EQ(m.counter("t.consumed"), run.result().total_consumed());
  EXPECT_EQ(m.counter("t.steps"),
            static_cast<std::uint64_t>(kWorkers) * 64);
  EXPECT_EQ(m.counter("t.w0.steps"), 64u);
  EXPECT_EQ(m.counter("t.w2.steps"), 64u);
  EXPECT_EQ(m.gauge("t.workers"), static_cast<double>(kWorkers));
  EXPECT_GE(m.gauge("t.utilization_mean"), 0.0);
  EXPECT_LE(m.gauge("t.utilization_mean"), 1.0);
  EXPECT_GE(m.gauge("t.queue_imbalance"), 1.0);
  EXPECT_GE(m.gauge("t.barrier_stall_fraction"), 0.0);
  EXPECT_LE(m.gauge("t.barrier_stall_fraction"), 1.0);
}

TEST(TelemetryExport, SnapshotLineCarriesFullSchema) {
  obs::WorkerTelemetry t;
  t.steps = 3;
  t.consumed = 11;
  std::string out;
  obs::append_telemetry_snapshot(out, "tagx", 42, 1, 2, 99, t);
  for (const char* key :
       {"\"kind\":\"rt_telemetry\"", "\"tag\":\"tagx\"", "\"step\":42",
        "\"worker\":1", "\"workers\":2", "\"shard_load\":99", "\"steps\":3",
        "\"consumed\":11", "\"phases\":0"}) {
    EXPECT_NE(out.find(key), std::string::npos) << "missing " << key;
  }
  EXPECT_EQ(out.back(), '\n');
  // Untagged lines omit the tag key entirely.
  std::string bare;
  obs::append_telemetry_snapshot(bare, "", 0, 0, 1, 0, t);
  EXPECT_EQ(bare.find("\"tag\""), std::string::npos);
}

TEST(TelemetryTrace, RtEventsCarryWorkerLanes) {
  obs::TraceSink sink;
  models::SingleModel model(0.45, 0.1);
  rt::RtConfig cfg = threshold_config(128, 2, /*telemetry=*/true);
  cfg.trace = &sink;
  rt::Runtime run(cfg, &model);
  run.run(16);
  bool saw_worker1_lane = false;
  std::uint64_t lane_events = 0;
  for (const obs::TraceEvent& e : sink.snapshot()) {
    if (!obs::event_kind_worker_lane(e.kind)) continue;
    ++lane_events;
    EXPECT_LT(e.worker, 2u);
    if (e.worker == 1) saw_worker1_lane = true;
  }
  EXPECT_GT(lane_events, 0u);
  EXPECT_TRUE(saw_worker1_lane);
  const std::string jsonl = sink.to_jsonl();
  EXPECT_NE(jsonl.find("\"kind\":\"worker_step\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"kind\":\"barrier_wait\""), std::string::npos);
  const std::string chrome = sink.to_chrome_trace();
  EXPECT_NE(chrome.find("worker 1"), std::string::npos);  // lane metadata
}

}  // namespace
