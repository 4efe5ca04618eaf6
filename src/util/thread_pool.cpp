#include "util/thread_pool.hpp"

#include <algorithm>
#include <chrono>

#include "util/check.hpp"

namespace clb::util {

namespace {

// Worker index of the current thread (see bind_worker_index); threads that
// never bind one keep the default 0.
thread_local unsigned t_worker_index = 0;

}  // namespace

std::pair<std::uint64_t, std::uint64_t> block_range(std::uint64_t count,
                                                    unsigned parts,
                                                    unsigned index) {
  const std::uint64_t base = count / parts;
  const std::uint64_t extra = count % parts;
  const std::uint64_t begin =
      index * base + std::min<std::uint64_t>(index, extra);
  const std::uint64_t size = base + (index < extra ? 1 : 0);
  return {begin, begin + size};
}

PhaseBarrier::PhaseBarrier(unsigned parties) : parties_(parties) {
  CLB_CHECK(parties >= 1, "PhaseBarrier needs at least one party");
}

void PhaseBarrier::arrive_and_wait() {
  std::unique_lock lock(mu_);
  const std::uint64_t my_generation = generation_;
  if (++waiting_ == parties_) {
    waiting_ = 0;
    ++generation_;
    cv_.notify_all();
    return;
  }
  cv_.wait(lock, [&] { return generation_ != my_generation; });
}

std::uint64_t PhaseBarrier::arrive_and_wait_timed() {
  const auto t0 = std::chrono::steady_clock::now();
  arrive_and_wait();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

std::uint64_t PhaseBarrier::generation() const {
  std::lock_guard lock(mu_);
  return generation_;
}

unsigned worker_index() { return t_worker_index; }

void bind_worker_index(unsigned index) { t_worker_index = index; }

}  // namespace clb::util
