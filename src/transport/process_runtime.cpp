#include "transport/process_runtime.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>

#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace clb::transport {

namespace {

/// Records the socket transport `wire` in the config, refuses an invalid
/// config, then resolves the shard count and stamps the run's clock origin.
ShardRunConfig checked(ShardRunConfig cfg, WireKind wire) {
  cfg.transport =
      wire == WireKind::kTcp ? rt::Transport::kTcp : rt::Transport::kUds;
  std::vector<std::string> v = rt::validate(cfg);
  if (cfg.trace != nullptr) {
    v.emplace_back("a trace sink is a borrowed in-proc pointer");
  }
  if (cfg.topology != nullptr) {
    v.emplace_back("a topology is a borrowed in-proc pointer");
  }
  if (cfg.telemetry) {
    v.emplace_back("per-worker telemetry is an in-proc runtime feature");
  }
  cfg.workers = rt::resolve_workers(cfg);
  if (cfg.workers > 64) {
    v.emplace_back("shard-process fan-out is capped at 64");
  }
  rt::refuse_invalid(v, "transport::ProcessRuntime");
  cfg.clock_origin_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now().time_since_epoch())
                            .count();
  return cfg;
}

ShardRunConfig from_rt(const rt::RtConfig& cfg, const ModelSpec& model) {
  CLB_CHECK(cfg.transport != rt::Transport::kInProc,
            "ProcessRuntime needs a socket transport "
            "(RtConfig::transport kUds or kTcp)");
  ShardRunConfig sc;
  static_cast<rt::RtConfig&>(sc) = cfg;
  sc.model = model;
  return sc;
}

}  // namespace

ProcessRuntime::ProcessRuntime(ShardRunConfig cfg, WireKind wire)
    : cfg_(checked(std::move(cfg), wire)),
      wire_(wire),
      part_(cfg_.n, cfg_.workers) {
  spawn();
}

ProcessRuntime::ProcessRuntime(const rt::RtConfig& cfg, const ModelSpec& model)
    : ProcessRuntime(from_rt(cfg, model), cfg.transport == rt::Transport::kTcp
                                              ? WireKind::kTcp
                                              : WireKind::kUds) {}

void ProcessRuntime::spawn() {
  const unsigned w = cfg_.workers;

  // Full pre-fork mesh: peer_ends[i][j] is child i's data link to child j.
  std::vector<std::vector<Endpoint>> peer_ends(w);
  for (unsigned i = 0; i < w; ++i) peer_ends[i].resize(w);
  for (unsigned i = 0; i < w; ++i) {
    for (unsigned j = i + 1; j < w; ++j) {
      auto [a, b] = make_stream_pair(wire_);
      peer_ends[i][j] = std::move(a);
      peer_ends[j][i] = std::move(b);
    }
  }
  std::vector<Endpoint> ctl_child(w);
  ctl_.resize(w);
  for (unsigned i = 0; i < w; ++i) {
    auto [parent, child] = make_stream_pair(wire_);
    ctl_[i] = std::move(parent);
    ctl_child[i] = std::move(child);
  }

  pids_.resize(w, -1);
  for (unsigned i = 0; i < w; ++i) {
    const pid_t pid = ::fork();
    CLB_CHECK(pid >= 0, "transport: fork failed");
    if (pid == 0) {
      // Child: keep only our own ends. Everything else is closed so a dead
      // peer surfaces as EOF instead of a hang.
      for (unsigned k = 0; k < w; ++k) {
        ctl_[k].close_fd();
        if (k == i) continue;
        ctl_child[k].close_fd();
        for (unsigned j = 0; j < w; ++j) peer_ends[k][j].close_fd();
      }
      shard_worker_main(std::move(ctl_child[i]), std::move(peer_ends[i]));
      ::_exit(0);
    }
    pids_[i] = pid;
  }
  // Coordinator: drop the child-side fds (peer_ends/ctl_child destructors
  // close them as these vectors go out of scope).

  for (unsigned i = 0; i < w; ++i) {
    ShardRunConfig child_cfg = cfg_;
    child_cfg.index = i;
    Writer payload;
    child_cfg.serialize(payload);
    ctl_[i].send_frame(FrameType::kConfig, payload.data());
  }
  for (unsigned i = 0; i < w; ++i) {
    const Frame f = ctl_[i].recv_frame();
    CLB_CHECK(f.type == FrameType::kConfigAck,
              "transport: expected kConfigAck from a shard worker");
  }
}

ProcessRuntime::~ProcessRuntime() {
  for (Endpoint& c : ctl_) {
    if (c.valid()) c.send_frame(FrameType::kShutdown, nullptr, 0);
  }
  for (std::size_t i = 0; i < pids_.size(); ++i) {
    if (pids_[i] < 0) continue;
    int status = 0;
    const pid_t r = ::waitpid(pids_[i], &status, 0);
    CLB_CHECK(r == pids_[i], "transport: waitpid failed");
    CLB_CHECK(WIFEXITED(status) && WEXITSTATUS(status) == 0,
              "transport: a shard worker exited abnormally");
  }
}

void ProcessRuntime::run(std::uint64_t steps) {
  if (steps == 0) return;
  CLB_CHECK(!collected_, "transport: run() after collect()");
  const auto t0 = std::chrono::steady_clock::now();
  Writer w;
  w.u64(steps);
  for (Endpoint& c : ctl_) c.send_frame(FrameType::kRun, w.data());

  // Barrier service: every child hits the same superstep schedule, so the
  // coordinator sees homogeneous waves — W kBarrier frames (answered with
  // one kRelease concatenating all blobs) until the W kDone frames land.
  std::vector<Frame> wave(cfg_.workers);
  for (;;) {
    for (unsigned i = 0; i < cfg_.workers; ++i) {
      wave[i] = ctl_[i].recv_frame();
      CLB_CHECK(wave[i].type == wave[0].type,
                "transport: superstep schedule divergence across workers");
    }
    if (wave[0].type == FrameType::kDone) break;
    CLB_CHECK(wave[0].type == FrameType::kBarrier,
              "transport: unexpected frame in the barrier service loop");
    Writer release;
    for (const Frame& f : wave) {
      release.bytes(f.payload.data(), f.payload.size());
    }
    for (Endpoint& c : ctl_) {
      c.send_frame(FrameType::kRelease, release.data());
    }
  }
  wall_seconds_ +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  step_base_ += steps;
  log_.push_back(Command{Command::Kind::kRun, steps, 0, {}});
}

void ProcessRuntime::deposit(std::uint32_t p, sim::Task t) {
  CLB_CHECK(!collected_, "transport: deposit() after collect()");
  CLB_CHECK(p < cfg_.n, "deposit target out of range");
  Writer w;
  w.u64(p);
  serialize_task(w, rt::RtTask{t, 0});
  ctl_[part_.owner_of(p)].send_frame(FrameType::kDeposit, w.data());
  log_.push_back(Command{Command::Kind::kDeposit, 0, p, t});
}

void ProcessRuntime::collect() {
  if (collected_) return;
  for (Endpoint& c : ctl_) c.send_frame(FrameType::kCollect, nullptr, 0);

  procs_.clear();
  procs_.resize(cfg_.n);
  for (unsigned i = 0; i < cfg_.workers; ++i) {
    const Frame f = ctl_[i].recv_frame();
    CLB_CHECK(f.type == FrameType::kState,
              "transport: expected kState from a shard worker");
    Reader r(f.payload);
    ShardState st = ShardState::deserialize(r);
    CLB_CHECK(r.exhausted(), "transport: trailing bytes after kState payload");
    const auto [b, e] = util::block_range(cfg_.n, cfg_.workers, i);
    CLB_CHECK(st.begin == b && st.end == e && st.procs.size() == e - b,
              "transport: shard state does not match the partition");
    for (std::uint64_t p = b; p < e; ++p) {
      procs_[p] = std::move(st.procs[p - b]);
    }
    total_.merge(st);
    wire_stats_.merge(st.wire);
  }
  std::sort(total_.ledger.begin(), total_.ledger.end(), rt::ledger_less);
  collected_ = true;
}

const rt::RtProcessor& ProcessRuntime::processor(std::uint64_t p) {
  rt::check_processor(p, cfg_.n, "ProcessRuntime::processor");
  collect();
  return procs_[p];
}

std::uint64_t ProcessRuntime::load(std::uint64_t p) {
  return processor(p).queue.size();
}

std::uint64_t ProcessRuntime::total_load() {
  collect();
  std::uint64_t sum = 0;
  for (const rt::RtProcessor& pr : procs_) sum += pr.queue.size();
  return sum;
}

std::uint64_t ProcessRuntime::total_generated() {
  collect();
  std::uint64_t sum = 0;
  for (const rt::RtProcessor& pr : procs_) sum += pr.generated;
  return sum;
}

std::uint64_t ProcessRuntime::total_consumed() {
  collect();
  std::uint64_t sum = 0;
  for (const rt::RtProcessor& pr : procs_) sum += pr.consumed;
  return sum;
}

std::uint64_t ProcessRuntime::running_max_load() {
  collect();
  return total_.running_max;
}

bool ProcessRuntime::conservation_holds() {
  collect();
  return total_generated() + total_.deposited ==
         total_consumed() + total_load() + total_.dropped_tasks;
}

sim::MessageCounters ProcessRuntime::messages() {
  collect();
  return total_.msg;
}

std::uint64_t ProcessRuntime::clamped_transfers() {
  collect();
  return total_.clamped;
}

std::vector<rt::LedgerEntry> ProcessRuntime::ledger() {
  collect();
  return total_.ledger;
}

const std::vector<rt::RtPhaseSummary>& ProcessRuntime::phases() {
  collect();
  return total_.phases;
}

stats::IntHistogram ProcessRuntime::sojourn_steps() {
  collect();
  return total_.sojourn_steps;
}

stats::IntHistogram ProcessRuntime::sojourn_us() {
  collect();
  return total_.sojourn_us;
}

std::uint64_t ProcessRuntime::deposited() {
  collect();
  return total_.deposited;
}

const rt::ShardOutputs& ProcessRuntime::outputs() {
  collect();
  return total_;
}

const obs::WireStats& ProcessRuntime::wire_stats() {
  collect();
  return wire_stats_;
}

}  // namespace clb::transport
