// EXP-15 — google-benchmark microbenchmarks: engine step throughput, RNG
// throughput, collision-round cost, FIFO queue ops. These guard the
// simulator's performance envelope (everything else runs on top of it).
//
// Accepts the standard observability flags (--trace=, --metrics-json=,
// --manifest=, --trace-sample=) in addition to google-benchmark's own;
// they are stripped from argv before benchmark::Initialize sees them.
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "clb.hpp"

namespace {

using namespace clb;

void BM_PhiloxU64(benchmark::State& state) {
  rng::CounterRng rng(1, 2, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng());
  }
}
BENCHMARK(BM_PhiloxU64);

// The per-processor draw the lane kernel replaces: CounterRng's first two
// words of one processor's stream (the key derivation included).
void BM_PhiloxStreamWordsScalar(benchmark::State& state) {
  std::uint64_t proc = 0;
  for (auto _ : state) {
    rng::CounterRng stream(1, rng::hash_combine(proc++, 2), 3);
    benchmark::DoNotOptimize(stream());
    benchmark::DoNotOptimize(stream());
  }
  state.counters["ns_per_proc"] = benchmark::Counter(
      static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_PhiloxStreamWordsScalar);

// The same words from one variant of the Philox lane kernel, kPhiloxLanes
// processors per call; registered in main() once per variant this CPU runs.
void BM_PhiloxLanes(benchmark::State& state, rng::PhiloxLaneVariant::Fn run) {
  std::uint64_t w0[rng::kPhiloxLanes], w1[rng::kPhiloxLanes];
  std::uint64_t first = 0;
  for (auto _ : state) {
    run(1, 2, first, 3, rng::kPhiloxLanes, w0, w1);
    benchmark::DoNotOptimize(w0 + 0);
    benchmark::DoNotOptimize(w1 + 0);
    benchmark::ClobberMemory();
    first += rng::kPhiloxLanes;
  }
  state.counters["ns_per_proc"] = benchmark::Counter(
      static_cast<double>(state.iterations() * rng::kPhiloxLanes),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void BM_XoshiroU64(benchmark::State& state) {
  rng::Xoshiro256 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng());
  }
}
BENCHMARK(BM_XoshiroU64);

void BM_BoundedDraw(benchmark::State& state) {
  rng::Xoshiro256 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng::bounded(rng, 12345));
  }
}
BENCHMARK(BM_BoundedDraw);

void BM_FifoPushPop(benchmark::State& state) {
  sim::FifoQueue q;
  std::uint32_t i = 0;
  for (auto _ : state) {
    q.push_back(sim::Task{i++, 0});
    if (q.size() > 64) benchmark::DoNotOptimize(q.pop_front());
  }
}
BENCHMARK(BM_FifoPushPop);

void BM_EngineStepUnbalanced(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  models::SingleModel model(0.4, 0.1);
  sim::Engine eng({.n = n, .seed = 1}, &model, nullptr);
  eng.run(100);  // reach steady state
  for (auto _ : state) {
    eng.step_once();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EngineStepUnbalanced)->Arg(1 << 10)->Arg(1 << 14);

void BM_EngineStepBalanced(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  models::SingleModel model(0.4, 0.1);
  core::ThresholdBalancer balancer({.params = core::PhaseParams::from_n(n)});
  sim::Engine eng({.n = n, .seed = 1}, &model, &balancer);
  eng.run(100);
  for (auto _ : state) {
    eng.step_once();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EngineStepBalanced)->Arg(1 << 10)->Arg(1 << 14);

void BM_CollisionGame(benchmark::State& state) {
  const std::uint64_t n = 1 << 14;
  const auto m = static_cast<std::uint64_t>(state.range(0));
  collision::CollisionGame game(n, {.a = 5, .b = 2, .c = 1});
  std::vector<std::uint32_t> requesters;
  for (std::uint64_t i = 0; i < m; ++i) {
    requesters.push_back(static_cast<std::uint32_t>(i * (n / m)));
  }
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(game.run(requesters, ++seed));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(m));
}
BENCHMARK(BM_CollisionGame)->Arg(64)->Arg(512);

void BM_EngineStepTraced(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  obs::TraceSink sink({.enabled = true, .sample_every = 1});
  models::SingleModel model(0.4, 0.1);
  core::ThresholdBalancer balancer(
      {.params = core::PhaseParams::from_n(n), .trace = &sink});
  sim::Engine eng({.n = n, .seed = 1, .trace = &sink}, &model, &balancer);
  eng.run(100);
  for (auto _ : state) {
    eng.step_once();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EngineStepTraced)->Arg(1 << 10)->Arg(1 << 14);

void BM_TraceEmit(benchmark::State& state) {
  obs::TraceSink sink({.enabled = true, .sample_every = 1});
  [[maybe_unused]] std::uint64_t step = 0;
  for (auto _ : state) {
    CLB_TRACE_EVENT(&sink, obs::EventKind::kTransfer, ++step, 1, 2, 3);
    if (sink.event_count() > (1u << 20)) sink.clear();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceEmit);

void BM_TraceEmitDisabledSink(benchmark::State& state) {
  [[maybe_unused]] obs::TraceSink sink({.enabled = false});
  [[maybe_unused]] std::uint64_t step = 0;
  for (auto _ : state) {
    CLB_TRACE_EVENT(&sink, obs::EventKind::kTransfer, ++step, 1, 2, 3);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceEmitDisabledSink);

void BM_TraceEmitNullSink(benchmark::State& state) {
  [[maybe_unused]] obs::TraceSink* sink = nullptr;
  std::uint64_t step = 0;
  for (auto _ : state) {
    CLB_TRACE_EVENT(sink, obs::EventKind::kTransfer, ++step, 1, 2, 3);
    benchmark::DoNotOptimize(step);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceEmitNullSink);

void BM_SupermarketHorizon(benchmark::State& state) {
  queueing::SupermarketConfig cfg;
  cfg.n = 1024;
  cfg.lambda = 0.9;
  cfg.horizon = 10.0;
  cfg.warmup = 2.0;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    cfg.seed = ++seed;
    benchmark::DoNotOptimize(queueing::run_supermarket(cfg));
  }
}
BENCHMARK(BM_SupermarketHorizon);

// Pulls `--<name>=<v>` or `--<name> <v>` out of argv; returns true and sets
// `value` when found. google-benchmark rejects flags it does not know, so the
// obs flags must be removed before benchmark::Initialize runs.
bool take_flag(std::vector<char*>& argv, const char* name, std::string* value) {
  const std::string prefix = std::string("--") + name + "=";
  const std::string bare = std::string("--") + name;
  for (std::size_t i = 1; i < argv.size(); ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      *value = argv[i] + prefix.size();
      argv.erase(argv.begin() + static_cast<std::ptrdiff_t>(i));
      return true;
    }
    if (bare == argv[i] && i + 1 < argv.size()) {
      *value = argv[i + 1];
      argv.erase(argv.begin() + static_cast<std::ptrdiff_t>(i),
                 argv.begin() + static_cast<std::ptrdiff_t>(i) + 2);
      return true;
    }
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  obs::RecorderConfig rc;
  rc.tool = "bench_micro";
  rc.command.assign(argv, argv + argc);

  std::vector<char*> args(argv, argv + argc);
  std::string value;
  if (take_flag(args, "trace", &value)) rc.trace_path = value;
  if (take_flag(args, "metrics-json", &value)) rc.metrics_path = value;
  if (take_flag(args, "manifest", &value)) rc.manifest_path = value;
  if (take_flag(args, "trace-sample", &value)) {
    rc.trace_sample = static_cast<std::uint32_t>(std::stoul(value));
  }

  obs::Recorder rec(rc);
  for (const rng::PhiloxLaneVariant& v : rng::philox_lane_variants()) {
    if (v.supported) {
      benchmark::RegisterBenchmark(
          (std::string("BM_PhiloxLanes/") + v.name).c_str(), BM_PhiloxLanes,
          v.run);
    }
  }
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  if (rec.active()) {
    // A short instrumented run so the requested trace/metrics files have
    // representative content (the microbenchmarks above discard theirs).
    constexpr std::uint64_t kN = 1 << 12;
    models::SingleModel model(0.4, 0.1);
    core::ThresholdBalancer balancer({.params = core::PhaseParams::from_n(kN),
                                      .trace = rec.trace(),
                                      .metrics = &rec.metrics()});
    sim::Engine eng({.n = kN, .seed = 1, .trace = rec.trace()}, &model,
                    &balancer);
    eng.run(512);
    obs::snapshot_engine(rec.metrics(), eng, "micro.");
    rec.manifest().set_seed(1);
    rec.manifest().set_param("n", kN);
    rec.manifest().set_param("steps", std::uint64_t{512});
  }
  rec.finish();
  return 0;
}
