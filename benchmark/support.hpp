// Benchmark-side instrumentation: a span recorder, a timing LoadModel
// decorator and the run fingerprint the correctness checks compare. All of it
// observes the library from outside its public API; nothing here is compiled
// into the library.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "rt/runtime.hpp"
#include "sim/counters.hpp"
#include "sim/model.hpp"
#include "stats/histogram.hpp"

namespace clb::bench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Spans recorded around each call into a layer: name, start, end, parent.
/// Held in memory and written out once, as a Chrome trace, when the
/// benchmark ends. A null recorder (tracing off) makes every Scope free.
class Spans {
 public:
  struct Span {
    std::string name;
    double start_us = 0;
    double end_us = 0;
    int parent = -1;
  };

  Spans() : origin_(Clock::now()) {}

  int begin(std::string name, int parent) {
    spans_.push_back({std::move(name), now_us(), 0.0, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int id) { spans_[static_cast<std::size_t>(id)].end_us = now_us(); }

  /// Self time per span name: each span's duration minus the part its
  /// direct children cover (children never overlap: clb_bench is serial).
  [[nodiscard]] std::vector<std::pair<std::string, double>> self_us() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end_us - spans_[i].start_us;
    }
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        self[static_cast<std::size_t>(s.parent)] -= s.end_us - s.start_us;
      }
    }
    std::vector<std::pair<std::string, double>> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      auto it = std::find_if(out.begin(), out.end(), [&](const auto& e) {
        return e.first == spans_[i].name;
      });
      if (it == out.end()) {
        out.emplace_back(spans_[i].name, self[i]);
      } else {
        it->second += self[i];
      }
    }
    return out;
  }

  bool write_chrome_trace(const std::string& path) const {
    std::ofstream f(path);
    if (!f) return false;
    f << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      f << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << s.start_us
        << ",\"dur\":" << (s.end_us - s.start_us) << ",\"args\":{\"id\":" << i
        << ",\"parent\":" << s.parent << "}}";
    }
    f << "\n]}\n";
    return static_cast<bool>(f);
  }

 private:
  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// RAII span; no-op when the recorder is null.
class Scope {
 public:
  Scope(Spans* s, std::string name, int parent = -1)
      : spans_(s), id_(s ? s->begin(std::move(name), parent) : -1) {}
  ~Scope() {
    if (spans_ != nullptr) spans_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  Spans* spans_;
  int id_;
};

/// LoadModel decorator that times every step_action call. The runtime calls
/// the model from all its worker threads, so each thread accumulates into
/// its own cache-line-padded slot; totals are read between run() calls,
/// which the runtime's command barrier orders after the workers' writes.
class TimedModel final : public sim::LoadModel {
 public:
  explicit TimedModel(sim::LoadModel* inner)
      : inner_(inner), id_(next_id_.fetch_add(1) + 1) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }

  sim::StepAction step_action(std::uint64_t seed, std::uint64_t proc,
                              std::uint64_t step, std::uint64_t load,
                              std::uint64_t system_load) override {
    Slot& s = slot();
    const auto t0 = Clock::now();
    const sim::StepAction a =
        inner_->step_action(seed, proc, step, load, system_load);
    s.ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
            .count());
    ++s.calls;
    return a;
  }

  [[nodiscard]] bool serial_generation() const override {
    return inner_->serial_generation();
  }
  [[nodiscard]] double expected_load_per_processor() const override {
    return inner_->expected_load_per_processor();
  }

  [[nodiscard]] std::uint64_t calls() const {
    std::lock_guard<std::mutex> lk(mu_);
    std::uint64_t c = 0;
    for (const auto& s : slots_) c += s->calls;
    return c;
  }
  [[nodiscard]] std::uint64_t ns() const {
    std::lock_guard<std::mutex> lk(mu_);
    std::uint64_t t = 0;
    for (const auto& s : slots_) t += s->ns;
    return t;
  }

 private:
  struct alignas(64) Slot {
    std::uint64_t calls = 0;
    std::uint64_t ns = 0;
  };

  Slot& slot() {
    // Keyed by a per-instance id, not the address: a later decorator may
    // reuse a destroyed one's address while this thread still caches it.
    thread_local std::uint64_t owner = 0;
    thread_local Slot* cached = nullptr;
    if (owner != id_) {
      std::lock_guard<std::mutex> lk(mu_);
      slots_.push_back(std::make_unique<Slot>());
      cached = slots_.back().get();
      owner = id_;
    }
    return *cached;
  }

  static inline std::atomic<std::uint64_t> next_id_{0};

  sim::LoadModel* inner_;
  std::uint64_t id_;
  mutable std::mutex mu_;  // guards slots_ (not the slot contents)
  std::vector<std::unique_ptr<Slot>> slots_;
};

/// 64-bit FNV-1a over a stream of words.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// What every run is checked on: task counts, the running maximum load,
/// message counters by kind and digests of the transfer ledger and the
/// step-counted sojourn histogram. Two substrates that executed the same
/// protocol schedule produce equal fingerprints.
struct Fingerprint {
  std::uint64_t generated = 0;
  std::uint64_t consumed = 0;
  std::uint64_t total_load = 0;
  std::uint64_t max_load = 0;
  sim::MessageCounters msg;
  std::uint64_t clamped = 0;
  std::uint64_t ledger_entries = 0;
  std::uint64_t ledger_digest = 0;
  std::uint64_t sojourn_digest = 0;

  /// Name and values of the first field that differs ("" when equal).
  [[nodiscard]] std::string first_difference(const Fingerprint& ref) const {
    const std::pair<const char*, std::pair<std::uint64_t, std::uint64_t>>
        fields[] = {
            {"generated", {generated, ref.generated}},
            {"consumed", {consumed, ref.consumed}},
            {"total_load", {total_load, ref.total_load}},
            {"max_load", {max_load, ref.max_load}},
            {"messages.queries", {msg.queries, ref.msg.queries}},
            {"messages.accepts", {msg.accepts, ref.msg.accepts}},
            {"messages.id_messages", {msg.id_messages, ref.msg.id_messages}},
            {"messages.control", {msg.control, ref.msg.control}},
            {"messages.transfers", {msg.transfers, ref.msg.transfers}},
            {"messages.tasks_moved", {msg.tasks_moved, ref.msg.tasks_moved}},
            {"clamped_transfers", {clamped, ref.clamped}},
            {"ledger_entries", {ledger_entries, ref.ledger_entries}},
            {"ledger_digest", {ledger_digest, ref.ledger_digest}},
            {"sojourn_steps_digest", {sojourn_digest, ref.sojourn_digest}},
        };
    for (const auto& [name, v] : fields) {
      if (v.first != v.second) {
        std::ostringstream os;
        os << name << ": run=" << v.first << " reference=" << v.second;
        return os.str();
      }
    }
    return "";
  }
};

/// Digest of a ledger in canonical (step, from, to, count) order.
inline std::uint64_t ledger_digest(std::vector<rt::LedgerEntry> ledger) {
  std::sort(ledger.begin(), ledger.end(),
            [](const rt::LedgerEntry& a, const rt::LedgerEntry& b) {
              if (a.step != b.step) return a.step < b.step;
              if (a.from != b.from) return a.from < b.from;
              if (a.to != b.to) return a.to < b.to;
              return a.count < b.count;
            });
  Digest d;
  for (const rt::LedgerEntry& e : ledger) {
    d.add(e.step);
    d.add(e.from);
    d.add(e.to);
    d.add(e.count);
  }
  return d.value();
}

/// Digest of a histogram's non-zero (value, count) pairs.
inline std::uint64_t histogram_digest(const stats::IntHistogram& h) {
  Digest d;
  const std::vector<std::uint64_t>& c = h.counts();
  for (std::size_t v = 0; v < c.size(); ++v) {
    if (c[v] == 0) continue;
    d.add(v);
    d.add(c[v]);
  }
  return d.value();
}

/// Peak resident set size in MiB of this process, and of the largest
/// reaped child (the transport's shard processes).
inline double peak_rss_mib(int who) {
  rusage ru{};
  ::getrusage(who, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace clb::bench
