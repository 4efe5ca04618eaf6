// Tests for the observability layer (src/obs): trace sink semantics and
// emitted-format validity, metrics registry, run manifests, and the
// Recorder bundle, plus an engine integration check that traced event
// counts match the simulator's own accounting.
//
// The JSON the emitters produce is validated with a small recursive-descent
// parser defined below — we parse everything we emit, so a syntax error in
// any writer fails here rather than in chrome://tracing.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/threshold_balancer.hpp"
#include "models/single.hpp"
#include "obs/json.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "obs/views.hpp"
#include "sim/engine.hpp"

namespace clb::obs {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON parser (objects, arrays, strings, numbers, booleans, null).
// Only what the tests need: structural validity plus lookups.
// ---------------------------------------------------------------------------

struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<Json> array;
  std::map<std::string, Json> object;

  [[nodiscard]] const Json& at(const std::string& k) const {
    auto it = object.find(k);
    EXPECT_NE(it, object.end()) << "missing key: " << k;
    static const Json null_json;
    return it == object.end() ? null_json : it->second;
  }
  [[nodiscard]] bool has(const std::string& k) const {
    return object.count(k) != 0;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : s_(text) {}

  bool parse(Json* out) {
    skip_ws();
    if (!value(out)) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value(Json* out) {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object(out);
      case '[': return array(out);
      case '"': out->type = Json::Type::kString; return string(&out->string);
      case 't': out->type = Json::Type::kBool; out->boolean = true;
                return literal("true");
      case 'f': out->type = Json::Type::kBool; out->boolean = false;
                return literal("false");
      case 'n': out->type = Json::Type::kNull; return literal("null");
      default:  return number(out);
    }
  }
  bool object(Json* out) {
    out->type = Json::Type::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (peek('}')) { ++pos_; return true; }
    while (true) {
      skip_ws();
      std::string key;
      if (!string(&key)) return false;
      skip_ws();
      if (!expect(':')) return false;
      skip_ws();
      Json v;
      if (!value(&v)) return false;
      out->object.emplace(std::move(key), std::move(v));
      skip_ws();
      if (peek(',')) { ++pos_; continue; }
      return expect('}');
    }
  }
  bool array(Json* out) {
    out->type = Json::Type::kArray;
    ++pos_;  // '['
    skip_ws();
    if (peek(']')) { ++pos_; return true; }
    while (true) {
      skip_ws();
      Json v;
      if (!value(&v)) return false;
      out->array.push_back(std::move(v));
      skip_ws();
      if (peek(',')) { ++pos_; continue; }
      return expect(']');
    }
  }
  bool string(std::string* out) {
    if (!expect('"')) return false;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        switch (s_[pos_]) {
          case '"': *out += '"'; break;
          case '\\': *out += '\\'; break;
          case '/': *out += '/'; break;
          case 'b': *out += '\b'; break;
          case 'f': *out += '\f'; break;
          case 'n': *out += '\n'; break;
          case 'r': *out += '\r'; break;
          case 't': *out += '\t'; break;
          case 'u': {
            if (pos_ + 4 >= s_.size()) return false;
            *out += '?';  // escaped code point; content not needed by tests
            pos_ += 4;
            break;
          }
          default: return false;
        }
        ++pos_;
      } else {
        *out += s_[pos_++];
      }
    }
    return expect('"');
  }
  bool number(Json* out) {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    out->type = Json::Type::kNumber;
    out->number = std::stod(std::string(s_.substr(start, pos_ - start)));
    return true;
  }
  bool literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool peek(char c) const { return pos_ < s_.size() && s_[pos_] == c; }
  bool expect(char c) {
    if (!peek(c)) return false;
    ++pos_;
    return true;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

Json parse_or_fail(const std::string& text) {
  Json j;
  EXPECT_TRUE(JsonParser(text).parse(&j)) << "invalid JSON: " << text;
  return j;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    if (end > start) lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

std::string read_file(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << "cannot open " << path;
  if (f == nullptr) return "";
  std::string out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

// ---------------------------------------------------------------------------
// JsonWriter
// ---------------------------------------------------------------------------

TEST(JsonWriter, NestedStructuresRoundTrip) {
  JsonWriter w;
  w.begin_object()
      .member("name", "tr\"icky\\\n")
      .member("count", std::uint64_t{42})
      .member("neg", std::int64_t{-7})
      .member("pi", 3.25)
      .member("flag", true)
      .key("nan");
  w.value(0.0 / 0.0);
  w.key("list").begin_array().value(std::uint64_t{1}).value(std::uint64_t{2});
  w.begin_object().member("deep", "yes").end_object();
  w.end_array().end_object();

  const Json j = parse_or_fail(w.str());
  EXPECT_EQ(j.at("name").string, "tr\"icky\\\n");
  EXPECT_EQ(j.at("count").number, 42);
  EXPECT_EQ(j.at("neg").number, -7);
  EXPECT_EQ(j.at("pi").number, 3.25);
  EXPECT_TRUE(j.at("flag").boolean);
  EXPECT_EQ(j.at("nan").type, Json::Type::kNull);  // NaN must not leak out
  ASSERT_EQ(j.at("list").array.size(), 3u);
  EXPECT_EQ(j.at("list").array[2].at("deep").string, "yes");
}

// ---------------------------------------------------------------------------
// TraceSink semantics
// ---------------------------------------------------------------------------

TEST(TraceSink, RecordsAndSortsByStep) {
  TraceSink sink;
  sink.emit(EventKind::kTransfer, /*step=*/9, 1, 2, 3);
  sink.emit(EventKind::kPhaseBegin, /*step=*/0, 0, 0, 0, 5, 10);
  sink.emit(EventKind::kQuery, /*step=*/4, 7, 8);
  EXPECT_EQ(sink.event_count(), 3u);

  const auto events = sink.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].step, 0u);
  EXPECT_EQ(events[1].step, 4u);
  EXPECT_EQ(events[2].step, 9u);
  EXPECT_EQ(events[2].kind, EventKind::kTransfer);

  sink.clear();
  EXPECT_EQ(sink.event_count(), 0u);
}

TEST(TraceSink, TimeBaseShiftsSubsequentEvents) {
  TraceSink sink;
  sink.emit(EventKind::kQuery, 3);
  sink.set_time_base(100);
  sink.emit(EventKind::kQuery, 3);
  const auto events = sink.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].step, 3u);
  EXPECT_EQ(events[1].step, 103u);
}

TEST(TraceSink, DisabledSinkRecordsNothing) {
  TraceSink sink({.enabled = false});
  sink.emit(EventKind::kTransfer, 1, 2, 3);
  CLB_TRACE_EVENT(&sink, EventKind::kQuery, 1, 2, 3);
  EXPECT_EQ(sink.event_count(), 0u);
  EXPECT_EQ(sink.events_seen(), 0u);
}

TEST(TraceSink, NullSinkMacroIsSafe) {
  [[maybe_unused]] TraceSink* sink = nullptr;
  CLB_TRACE_EVENT(sink, EventKind::kTransfer, 1, 2, 3);  // must not crash
}

TEST(TraceSink, SamplingKeepsEveryKthButAllPhaseEvents) {
  TraceSink sink({.enabled = true, .sample_every = 4});
  for (int i = 0; i < 100; ++i) {
    sink.emit(EventKind::kQuery, static_cast<std::uint64_t>(i));
  }
  for (int i = 0; i < 10; ++i) {
    sink.emit(EventKind::kPhaseBegin, static_cast<std::uint64_t>(i));
    sink.emit(EventKind::kPhaseEnd, static_cast<std::uint64_t>(i));
  }
  std::uint64_t queries = 0, phases = 0;
  for (const auto& e : sink.snapshot()) {
    (e.kind == EventKind::kQuery ? queries : phases)++;
  }
  EXPECT_EQ(phases, 20u);  // structural events are exempt from sampling
  EXPECT_NEAR(static_cast<double>(queries), 25.0, 1.0);
  EXPECT_EQ(sink.events_seen(), 120u);
}

TEST(TraceSink, MultiThreadedEmitsAllArrive) {
  TraceSink sink;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&sink, t] {
      for (int i = 0; i < kPerThread; ++i) {
        sink.emit(EventKind::kTransfer, static_cast<std::uint64_t>(i),
                  static_cast<std::uint32_t>(t));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(sink.event_count(), kThreads * kPerThread);
  const auto events = sink.snapshot();
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].step, events[i].step);  // snapshot stays sorted
  }
}

// ---------------------------------------------------------------------------
// Emitted formats
// ---------------------------------------------------------------------------

TEST(TraceFormats, JsonlLinesAreSelfDescribingObjects) {
  TraceSink sink;
  sink.emit(EventKind::kPhaseBegin, 0, 0, 0, /*phase=*/0, /*heavy=*/3,
            /*light=*/5);
  sink.emit(EventKind::kQuery, 1, /*src=*/2, /*dst=*/9, /*phase=*/0,
            /*level=*/1);
  sink.emit(EventKind::kTransfer, 2, /*from=*/2, /*to=*/9, /*count=*/4);
  sink.emit(EventKind::kPhaseEnd, 3, 0, 0, /*phase=*/0, /*matched=*/3,
            /*unmatched=*/0);

  const auto lines = split_lines(sink.to_jsonl());
  ASSERT_EQ(lines.size(), 4u);
  const Json begin = parse_or_fail(lines[0]);
  EXPECT_EQ(begin.at("kind").string, "phase_begin");
  EXPECT_EQ(begin.at("step").number, 0);
  EXPECT_EQ(begin.at("heavy").number, 3);
  EXPECT_EQ(begin.at("light").number, 5);

  const Json query = parse_or_fail(lines[1]);
  EXPECT_EQ(query.at("kind").string, "query");
  EXPECT_EQ(query.at("src").number, 2);
  EXPECT_EQ(query.at("dst").number, 9);

  const Json transfer = parse_or_fail(lines[2]);
  EXPECT_EQ(transfer.at("kind").string, "transfer");
  EXPECT_EQ(transfer.at("from").number, 2);
  EXPECT_EQ(transfer.at("to").number, 9);
  EXPECT_EQ(transfer.at("count").number, 4);
}

TEST(TraceFormats, ChromeTraceIsValidAndPairsPhases) {
  TraceSink sink;
  sink.emit(EventKind::kPhaseBegin, 0, 0, 0, 0, 3, 5);
  sink.emit(EventKind::kQuery, 2, 2, 9, 0, 1);
  sink.emit(EventKind::kPhaseEnd, 7, 0, 0, 0, 3, 0);
  sink.emit(EventKind::kPhaseBegin, 8, 0, 0, 1, 2, 6);
  sink.emit(EventKind::kPhaseEnd, 8, 0, 0, 1, 2, 0);  // zero-length phase

  const Json trace = parse_or_fail(sink.to_chrome_trace());
  EXPECT_EQ(trace.at("displayTimeUnit").string, "ms");
  const auto& events = trace.at("traceEvents").array;
  std::uint64_t slices = 0, instants = 0, metadata = 0;
  for (const auto& e : events) {
    const std::string& ph = e.at("ph").string;
    if (ph == "X") {
      ++slices;
      EXPECT_GE(e.at("dur").number, 1) << "slices must be visible";
      EXPECT_TRUE(e.has("ts"));
    } else if (ph == "i") {
      ++instants;
      EXPECT_EQ(e.at("s").string, "t");
    } else if (ph == "M") {
      ++metadata;
    }
  }
  EXPECT_EQ(slices, 2u);    // one per begin/end pair
  EXPECT_EQ(instants, 1u);  // the query
  EXPECT_GE(metadata, 1u);  // process/thread names
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, CreateOrGetReturnsSameObject) {
  MetricsRegistry reg;
  std::uint64_t& a = reg.counter("requests");
  a += 3;
  std::uint64_t& b = reg.counter("requests");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(reg.counter_value("requests"), 3u);
  EXPECT_EQ(reg.size(), 1u);

  reg.gauge("load") = 2.5;
  EXPECT_EQ(reg.gauge_value("load"), 2.5);
  EXPECT_TRUE(reg.contains("load"));
  EXPECT_FALSE(reg.contains("absent"));
}

TEST(MetricsRegistryDeathTest, KindChangeAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  MetricsRegistry reg;
  reg.counter("x");
  EXPECT_DEATH(reg.gauge("x"), "re-registered");
}

TEST(MetricsRegistry, ViewsReadLiveValues) {
  MetricsRegistry reg;
  std::uint64_t backing = 0;
  double ratio = 0.0;
  reg.expose_counter("live.count", &backing);
  reg.expose_gauge("live.ratio", [&ratio] { return ratio; });

  backing = 11;
  ratio = 0.5;
  EXPECT_EQ(reg.counter_value("live.count"), 11u);
  EXPECT_EQ(reg.gauge_value("live.ratio"), 0.5);

  backing = 12;  // the registry must not have copied
  const Json j = parse_or_fail(reg.to_json());
  EXPECT_EQ(j.at("counters").at("live.count").number, 12);
  EXPECT_EQ(j.at("gauges").at("live.ratio").number, 0.5);
}

TEST(MetricsRegistry, HistogramExportCarriesQuantiles) {
  MetricsRegistry reg;
  auto& h = reg.histogram("latency");
  for (std::uint64_t v = 1; v <= 100; ++v) h.add(v);

  const Json j = parse_or_fail(reg.to_json());
  const Json& lat = j.at("histograms").at("latency");
  EXPECT_EQ(lat.at("count").number, 100);
  EXPECT_EQ(lat.at("max").number, 100);
  EXPECT_NEAR(lat.at("mean").number, 50.5, 0.01);
  EXPECT_NEAR(lat.at("p50").number, 50, 2);
  EXPECT_NEAR(lat.at("p99").number, 99, 2);
  EXPECT_TRUE(lat.has("p90"));
  EXPECT_TRUE(lat.has("p999"));
}

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

TEST(Manifest, RoundTripsThroughJson) {
  Manifest man("bench_test");
  man.set_command({"bench_test", "--n=1024", "--seed=7"});
  man.set_seed(7);
  man.set_param("n", std::uint64_t{1024});
  man.set_param("beta", 0.01);
  man.set_param("model", "single");
  man.set_param("weighted", false);
  man.set_param("n", std::uint64_t{2048});  // overwrite, not duplicate
  man.add_output("metrics", "runs/m.json");
  man.set_wall_seconds(1.5);

  const Json j = parse_or_fail(man.to_json());
  EXPECT_EQ(j.at("schema").string, "clb.run.v1");
  EXPECT_EQ(j.at("tool").string, "bench_test");
  ASSERT_EQ(j.at("command").array.size(), 3u);
  EXPECT_EQ(j.at("command").array[1].string, "--n=1024");
  EXPECT_EQ(j.at("seed").number, 7);
  EXPECT_EQ(j.at("params").at("n").number, 2048);
  EXPECT_EQ(j.at("params").at("beta").number, 0.01);
  EXPECT_EQ(j.at("params").at("model").string, "single");
  EXPECT_FALSE(j.at("params").at("weighted").boolean);
  ASSERT_EQ(j.at("outputs").array.size(), 1u);
  EXPECT_EQ(j.at("outputs").array[0].at("kind").string, "metrics");
  EXPECT_EQ(j.at("wall_seconds").number, 1.5);

  // Build provenance is always present.
  EXPECT_FALSE(j.at("build").at("git_sha").string.empty());
}

// ---------------------------------------------------------------------------
// Recorder
// ---------------------------------------------------------------------------

TEST(Recorder, JsonlSiblingSwapsExtension) {
  EXPECT_EQ(jsonl_sibling("runs/a.trace.json"), "runs/a.trace.jsonl");
  EXPECT_EQ(jsonl_sibling("trace"), "trace.jsonl");
  EXPECT_EQ(jsonl_sibling("a.b/c"), "a.b/c.jsonl");
}

TEST(Recorder, InactiveWithoutPathsButSinkUsable) {
  RecorderConfig cfg;
  cfg.tool = "t";
  Recorder rec(std::move(cfg));
  EXPECT_FALSE(rec.active());
  ASSERT_NE(rec.trace(), nullptr);
  EXPECT_FALSE(rec.trace()->enabled());
  CLB_TRACE_EVENT(rec.trace(), EventKind::kQuery, 1);
  EXPECT_EQ(rec.trace()->event_count(), 0u);
  EXPECT_TRUE(rec.finish());  // nothing to write, nothing to fail
}

TEST(Recorder, FinishWritesEveryRequestedOutput) {
  const std::string dir = ::testing::TempDir() + "clb_obs_recorder";
  RecorderConfig cfg;
  cfg.tool = "test_tool";
  cfg.command = {"test_tool", "--x=1"};
  cfg.trace_path = dir + "/t.trace.json";
  cfg.metrics_path = dir + "/m.json";
  cfg.manifest_path = dir + "/run.json";
  Recorder rec(cfg);
  EXPECT_TRUE(rec.active());
  // The runtime switch follows the requested path.
  EXPECT_TRUE(rec.trace()->enabled());

  rec.trace()->emit(EventKind::kPhaseBegin, 0);
  rec.trace()->emit(EventKind::kPhaseEnd, 5);
  rec.metrics().counter("done") = 1;
  rec.manifest().set_seed(3);
  ASSERT_TRUE(rec.finish());

  const Json trace = parse_or_fail(read_file(cfg.trace_path));
  EXPECT_EQ(trace.at("displayTimeUnit").string, "ms");
  const Json metrics = parse_or_fail(read_file(cfg.metrics_path));
  EXPECT_EQ(metrics.at("counters").at("done").number, 1);
  const Json man = parse_or_fail(read_file(cfg.manifest_path));
  EXPECT_EQ(man.at("tool").string, "test_tool");
  EXPECT_GE(man.at("wall_seconds").number, 0.0);
  // The manifest lists the trace, its JSONL twin, and the metrics file.
  EXPECT_EQ(man.at("outputs").array.size(), 3u);
  for (const auto& line : split_lines(read_file(jsonl_sibling(cfg.trace_path)))) {
    parse_or_fail(line);
  }
}

// ---------------------------------------------------------------------------
// Engine + balancer integration
// ---------------------------------------------------------------------------

TEST(ObsIntegration, TracedRunMatchesEngineAccounting) {
  constexpr std::uint64_t kN = 1 << 10;
  TraceSink sink;  // sample_every = 1: every event must arrive
  MetricsRegistry reg;
  models::SingleModel model(0.4, 0.1);
  core::ThresholdBalancer balancer({.params = core::PhaseParams::from_n(kN),
                                    .trace = &sink,
                                    .metrics = &reg});
  sim::Engine eng({.n = kN, .seed = 11, .trace = &sink}, &model, &balancer);
  eng.run(300);

  std::uint64_t begins = 0, ends = 0, transfers = 0, id_msgs = 0;
  for (const auto& e : sink.snapshot()) {
    switch (e.kind) {
      case EventKind::kPhaseBegin: ++begins; break;
      case EventKind::kPhaseEnd: ++ends; break;
      case EventKind::kTransfer: ++transfers; break;
      case EventKind::kIdMessage: ++id_msgs; break;
      default: break;
    }
  }
  // Every closed phase traced exactly once; one phase may still be open.
  EXPECT_EQ(ends, balancer.aggregate().phases);
  EXPECT_GE(begins, ends);
  EXPECT_LE(begins, ends + 1);
  // One transfer event per transfer message the engine counted.
  EXPECT_EQ(transfers, eng.messages().transfers);
  EXPECT_EQ(id_msgs, eng.messages().id_messages);

  // The attached registry collected per-phase distributions.
  EXPECT_TRUE(reg.contains("core.phase.heavy"));
  const Json j = parse_or_fail(reg.to_json());
  EXPECT_EQ(j.at("histograms").at("core.phase.messages").at("count").number,
            static_cast<double>(balancer.aggregate().phases));

  // Live views over the same run export cleanly.
  expose_engine(reg, eng);
  expose_aggregate_stats(reg, balancer.aggregate());
  const Json live = parse_or_fail(reg.to_json());
  EXPECT_EQ(live.at("counters").at("sim.engine.messages.transfers").number,
            static_cast<double>(eng.messages().transfers));
  EXPECT_EQ(live.at("counters").at("core.phases.count").number,
            static_cast<double>(balancer.aggregate().phases));
}

TEST(ObsIntegration, IdenticalRunsProduceIdenticalTraces) {
  auto run_trace = [] {
    TraceSink sink;
    models::SingleModel model(0.4, 0.1);
    core::ThresholdBalancer balancer(
        {.params = core::PhaseParams::from_n(512), .trace = &sink});
    sim::Engine eng({.n = 512, .seed = 5, .trace = &sink}, &model, &balancer);
    eng.run(200);
    return sink.to_jsonl();
  };
  EXPECT_EQ(run_trace(), run_trace());  // counter-RNG: bit-for-bit replay
}

}  // namespace
}  // namespace clb::obs
