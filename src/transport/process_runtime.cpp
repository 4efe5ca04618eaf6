#include "transport/process_runtime.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>

#include "util/check.hpp"

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

  // The shards exchange among themselves; the coordinator only waits for
  // every kDone.
  for (Endpoint& c : ctl_) {
    CLB_CHECK(c.recv_frame().type == FrameType::kDone,
              "transport: expected kDone from a shard worker");
  }
  wall_seconds_ +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  step_base_ += steps;
  log_.push_back(Command{Command::Kind::kRun, steps, 0, {}});
}

void ProcessRuntime::deposit(std::uint32_t p, sim::Task t) {
  CLB_CHECK(!collected_, "transport: deposit() after collect()");
  rt::check_deposit(p, cfg_.n, t.birth_step, step_base_,
                    "ProcessRuntime::deposit");
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
    const std::int64_t now_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count();
    const HistBounds bound{
        step_base_,
        static_cast<std::uint64_t>(now_ns - cfg_.clock_origin_ns) / 1000 + 1};
    ShardState st = ShardState::deserialize(r, bound);
    CLB_CHECK(r.exhausted(), "transport: trailing bytes after kState payload");
    const auto [b, e] = part_.range(i);
    CLB_CHECK(st.begin == b && st.end == e && st.procs.size() == e - b,
              "transport: shard state does not match the partition");
    for (std::uint64_t p = b; p < e; ++p) {
      procs_[p] = std::move(st.procs[p - b]);
    }
    result_.out.merge(st);
    wire_stats_.merge(st.wire);
  }
  result_.out.sort_logs();
  result_.procs = procs_;
  result_.step = step_base_;
  collected_ = true;
}

const rt::RunResult& ProcessRuntime::result() {
  collect();
  return result_;
}

const obs::WireStats& ProcessRuntime::wire_stats() {
  collect();
  return wire_stats_;
}

}  // namespace clb::transport
