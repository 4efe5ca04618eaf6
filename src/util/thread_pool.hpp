// The threading primitives the concurrent runtime (src/rt) builds its
// supersteps from: the contiguous block partition, a reusable phase barrier
// and the calling thread's worker index. The simulator itself is serial;
// only rt::Runtime's shard threads run concurrently.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <utility>

namespace clb::util {

/// Splits [0, count) into `parts` contiguous blocks; returns [begin, end) of
/// block `index`. Blocks differ in size by at most 1, and earlier blocks get
/// the larger sizes, so concatenating blocks 0..parts-1 walks [0, count) in
/// order. The rt shard partition uses this, which is what makes "worker
/// order = ascending processor order" a property the runtime can rely on.
[[nodiscard]] std::pair<std::uint64_t, std::uint64_t> block_range(
    std::uint64_t count, unsigned parts, unsigned index);

/// Reusable cyclic barrier with std::barrier's core API (arrive_and_wait).
/// All `parties` threads block until the last one arrives, then all proceed;
/// the barrier resets itself for the next cycle (sense-reversing via a
/// generation counter). Unlike std::barrier it is copy-free to embed, has no
/// completion function, and — because it synchronises through one mutex —
/// every write made before arrive_and_wait() happens-before every read made
/// after it in any other party. The rt runtime leans on that: plain (non-
/// atomic) per-worker slots published before a barrier are safe to read
/// after it.
///
/// Deliberately blocking (condvar), not spinning: oversubscribed hosts
/// (CI runners, the 1-core container this repo is often built in) are the
/// common case, and a spinning barrier inverts priorities there.
class PhaseBarrier {
 public:
  explicit PhaseBarrier(unsigned parties);

  PhaseBarrier(const PhaseBarrier&) = delete;
  PhaseBarrier& operator=(const PhaseBarrier&) = delete;

  /// Blocks until all parties have arrived at this cycle.
  void arrive_and_wait();

  /// arrive_and_wait, returning the nanoseconds this thread spent inside
  /// the call (arrive -> release, lock acquisition included). The telemetry
  /// layer's barrier-stall accounting uses this; it costs two steady_clock
  /// reads on top of the plain wait, so callers should only pick it when
  /// they actually record the result.
  std::uint64_t arrive_and_wait_timed();

  [[nodiscard]] unsigned parties() const { return parties_; }

  /// Number of completed cycles. Only meaningful when the caller knows the
  /// barrier is quiescent (e.g. between rt run() commands); used by tests.
  [[nodiscard]] std::uint64_t generation() const;

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  const unsigned parties_;
  unsigned waiting_ = 0;
  std::uint64_t generation_ = 0;
};

/// The calling thread's worker index: what it last passed to
/// bind_worker_index, or 0 for a thread that never bound one (the main
/// thread included). obs::TraceSink stamps every event with it.
[[nodiscard]] unsigned worker_index();

/// Makes worker_index() return `index` on the calling thread from now on.
/// rt::Runtime's shard threads bind their shard index at spawn, so the
/// trace events and telemetry they emit carry the right lane.
void bind_worker_index(unsigned index);

}  // namespace clb::util
