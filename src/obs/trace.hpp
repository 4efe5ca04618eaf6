// Event tracing for simulator runs.
//
// The paper's statements are about *events* — phases opening and closing,
// collision-game rounds, id messages finding partners, blocks of tasks
// moving — so the trace layer records exactly those, stamped with the
// simulation step, and flushes them as
//
//   * JSONL (one self-describing object per line, schema in
//     docs/observability.md), and
//   * Chrome trace_event JSON that opens directly in chrome://tracing or
//     Perfetto (phases become duration slices, everything else instants,
//     classification sizes a counter track).
//
// Cost model: tracing must never tax the simulator when it is off. A null
// sink costs one pointer test (in the CLB_TRACE_EVENT macro); a disabled
// sink one predictable branch; an enabled sink appends 40 bytes to a
// per-thread buffer — no locks on the hot path. High-rate event kinds can
// additionally be sampled (`sample_every`).
//
// Threading: emit() may be called from any thread (the engine's generation
// pass runs under util/thread_pool). Each thread lazily registers a private
// buffer with the sink (one mutex acquisition per thread per sink, ever);
// snapshot()/writers merge and step-sort the buffers.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/thread_pool.hpp"

namespace clb::obs {

enum class EventKind : std::uint8_t {
  kPhaseBegin = 0,     ///< v0 = phase index, v1 = #heavy, v2 = #light
  kPhaseEnd,           ///< v0 = phase index, v1 = matched, v2 = unmatched
  kTreeLevel,          ///< proc = level; v0 = requests, v1 = rounds, v2 = msgs
  kCollisionRound,     ///< proc = round; v0 = active, v1 = queries, v2 = accepts
  kQuery,              ///< proc = src, peer = dst; v0 = phase, v1 = level
  kAccept,             ///< proc = src, peer = dst; v0 = phase, v1 = level
  kIdMessage,          ///< proc = root, peer = partner; v0 = phase, v1 = level
  kTransfer,           ///< proc = from, peer = to; v0 = task count
  kPreroundMatch,      ///< proc = root, peer = partner; v0 = phase
  kBarrierWait,        ///< v0 = wait ns (rt telemetry; one per barrier)
  kMailboxDrain,       ///< v0 = batch size (rt telemetry; one per drain)
  kWorkerStep,         ///< v0 = step ns, v1 = work ns (rt telemetry)
  kKindCount_,         // sentinel, keep last
};

[[nodiscard]] const char* event_kind_name(EventKind kind);

/// Worker-lane kinds render on per-worker Chrome tracks (one lane per
/// worker thread) instead of the per-family tracks; they always carry a
/// meaningful TraceEvent::worker.
[[nodiscard]] constexpr bool event_kind_worker_lane(EventKind kind) {
  return kind == EventKind::kBarrierWait || kind == EventKind::kMailboxDrain ||
         kind == EventKind::kWorkerStep;
}

/// Phase begin/end events are structural (the Chrome writer pairs them into
/// slices) and are therefore exempt from sampling.
[[nodiscard]] constexpr bool event_kind_sampled(EventKind kind) {
  return kind != EventKind::kPhaseBegin && kind != EventKind::kPhaseEnd;
}

struct TraceEvent {
  EventKind kind = EventKind::kPhaseBegin;
  std::uint32_t proc = 0;  ///< primary actor (sender / root / level)
  std::uint32_t peer = 0;  ///< secondary actor (receiver / partner)
  std::uint64_t step = 0;  ///< simulation step the event happened at
  std::uint64_t v0 = 0, v1 = 0, v2 = 0;  ///< kind-specific payload
  /// Emitting worker thread — stamped by emit() from
  /// util::ThreadPool::worker_index(), never by call sites. rt::Runtime
  /// shard threads bind their shard index at spawn, so multi-worker traces
  /// attribute every event (kTransfer, kPhaseBegin/End, the worker-lane
  /// kinds) to the thread that produced it.
  std::uint32_t worker = 0;
};

struct TraceSinkConfig {
  /// Runtime master switch; a disabled sink records nothing.
  bool enabled = true;
  /// Keep every k-th event of the sampled kinds (1 = keep everything).
  /// Applied per thread, so multi-threaded runs sample approximately.
  std::uint32_t sample_every = 1;
};

class TraceSink {
 public:
  explicit TraceSink(TraceSinkConfig cfg = {});

  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  [[nodiscard]] bool enabled() const { return cfg_.enabled; }
  void set_enabled(bool on) { cfg_.enabled = on; }
  [[nodiscard]] const TraceSinkConfig& config() const { return cfg_; }

  /// Offset added to every subsequent event's step. Benches that run several
  /// engines into one sink move each run to a disjoint window so phase
  /// slices from different runs never overlap on the trace timeline.
  void set_time_base(std::uint64_t base) { time_base_ = base; }
  [[nodiscard]] std::uint64_t time_base() const { return time_base_; }

  /// Records one event (subject to `enabled` and sampling). Thread-safe.
  void emit(TraceEvent e) {
    if (!cfg_.enabled) return;
    e.step += time_base_;
    e.worker = util::ThreadPool::worker_index();
    Buffer& b = local_buffer();
    ++b.seen;
    if (event_kind_sampled(e.kind) && cfg_.sample_every > 1 &&
        b.seen % cfg_.sample_every != 0) {
      return;
    }
    b.events.push_back(e);
  }
  void emit(EventKind kind, std::uint64_t step, std::uint32_t proc = 0,
            std::uint32_t peer = 0, std::uint64_t v0 = 0, std::uint64_t v1 = 0,
            std::uint64_t v2 = 0) {
    emit(TraceEvent{kind, proc, peer, step, v0, v1, v2});
  }

  /// Events recorded so far (post-sampling), across all threads.
  [[nodiscard]] std::uint64_t event_count() const;
  /// Events offered to emit() on enabled sinks (pre-sampling).
  [[nodiscard]] std::uint64_t events_seen() const;

  /// All recorded events, merged across threads and sorted by step (ties
  /// keep per-thread emission order).
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;

  /// One JSON object per line; see docs/observability.md for the schema.
  [[nodiscard]] std::string to_jsonl() const;
  bool write_jsonl(const std::string& path) const;

  /// Chrome trace_event format (the `{"traceEvents": [...]}` object form),
  /// loadable in chrome://tracing and Perfetto.
  [[nodiscard]] std::string to_chrome_trace() const;
  bool write_chrome_trace(const std::string& path) const;

  /// Drops all recorded events (buffers stay registered).
  void clear();

 private:
  struct Buffer {
    std::vector<TraceEvent> events;
    std::uint64_t seen = 0;
  };

  Buffer& local_buffer();

  TraceSinkConfig cfg_;
  std::uint64_t time_base_ = 0;
  std::uint64_t id_;  // process-unique; keys the thread-local buffer cache
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

}  // namespace clb::obs

// Hot-path emission macro: costs one null test when the component has no
// sink attached.
//
//   CLB_TRACE_EVENT(sink_ptr, obs::EventKind::kTransfer, step, from, to, n);
#define CLB_TRACE_EVENT(sink, ...)                      \
  do {                                                  \
    ::clb::obs::TraceSink* clb_trace_s_ = (sink);       \
    if (clb_trace_s_ != nullptr && clb_trace_s_->enabled()) \
      clb_trace_s_->emit(__VA_ARGS__);                  \
  } while (0)
