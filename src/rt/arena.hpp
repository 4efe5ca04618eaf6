// Cache-conscious task storage for the million-processor regime.
//
// At n = 2^20..2^24 the runtime's hot loop touches every processor's queue
// every step. TaskArena fixes the *placement*: one bump allocator per worker
// shard, so the ring buffers of consecutive processors are laid out
// consecutively in memory and the sequential per-shard step loop walks the
// arena almost linearly. TaskQueue fixes the *layout*: a power-of-two ring of
// 16-byte RtTask records, one per slot, so a push or a pop touches one cache
// line of the ring (the sweep pushes and pops at both ends of every queue it
// visits, and those ring misses, not the headers, are its memory cost).
//
// The ring is the only queue layout. A queue bound to an arena takes its
// ring blocks from it (the runtime binds every shard queue at construction);
// an unbound queue (transport state shipping, tests) owns one heap block.
// Both keep the FIFO contract: push_back at the tail, pop_front at the head,
// transfers extracted from the back.
//
// The header is 32 bytes, and RtProcessor around it 80 (tests/
// rt_arena_test.cpp asserts both). The sweep reads that per-processor array
// once per step, but it is not what bounds the sweep: in a replica of the
// sweep at n = 2^20 on a 4-vCPU AVX-512 Xeon, cutting the record stride from
// 80 to 48 bytes saved about 2 of about 34 ns per processor-step, while the
// ring pushes and pops cost about 20-25.
//
// head/tail/mask are u32: the counters run free and wrap modulo 2^32, which
// every power-of-two capacity up to 2^31 divides, so size = tail - head and
// slot = (head + i) & mask are exact across the wrap; grow() refuses a ring
// past 2^31 tasks.
//
// Threading: a queue (and its arena) is owned by the shard's worker; the
// main thread's deposit() runs between runs, at a quiescent point.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "rt/message.hpp"
#include "util/check.hpp"

namespace clb::rt {

/// Bump allocator for one worker shard's queue storage. Never frees
/// individual allocations (rings are grow-only per run); memory is reclaimed
/// when the arena dies with the runtime.
class TaskArena {
 public:
  explicit TaskArena(std::size_t chunk_bytes = 1u << 18)
      : chunk_bytes_(chunk_bytes) {}

  TaskArena(const TaskArena&) = delete;
  TaskArena& operator=(const TaskArena&) = delete;

  /// Returns `bytes` of 64-byte-aligned storage. Allocations within a chunk
  /// are contiguous in call order — the locality the file header describes.
  [[nodiscard]] std::byte* allocate(std::size_t bytes) {
    bytes = (bytes + 63) & ~std::size_t{63};
    if (bytes > static_cast<std::size_t>(end_ - cur_)) {
      const std::size_t chunk = bytes > chunk_bytes_ ? bytes : chunk_bytes_;
      // Left uninitialised: a queue reads only the slots in [head, tail),
      // each written by push_back or grow() first, so zero-filling every
      // chunk would only add a memset of all queue storage.
      chunks_.push_back(
          std::make_unique_for_overwrite<std::byte[]>(chunk + 63));
      auto base = reinterpret_cast<std::uintptr_t>(chunks_.back().get());
      cur_ = reinterpret_cast<std::byte*>((base + 63) & ~std::uintptr_t{63});
      end_ = cur_ + chunk;
      bytes_reserved_ += chunk;
    }
    std::byte* p = cur_;
    cur_ += bytes;
    bytes_used_ += bytes;
    return p;
  }

  [[nodiscard]] std::size_t bytes_used() const { return bytes_used_; }
  [[nodiscard]] std::size_t bytes_reserved() const { return bytes_reserved_; }
  [[nodiscard]] std::size_t chunks() const { return chunks_.size(); }

 private:
  std::size_t chunk_bytes_;
  std::vector<std::unique_ptr<std::byte[]>> chunks_;
  std::byte* cur_ = nullptr;
  std::byte* end_ = nullptr;
  std::size_t bytes_used_ = 0;
  std::size_t bytes_reserved_ = 0;
};

/// FIFO task queue over a ring of RtTask records (see file header).
/// head_/tail_ are free-running counters masked on access, exactly like
/// sim::FifoQueue, so FIFO semantics match the simulator by construction.
/// Move-only: the block is arena storage (bound) or a heap block this queue
/// owns (unbound).
class TaskQueue {
 public:
  /// The largest ring the u32 counters index exactly (see file header).
  static constexpr std::uint64_t kMaxCapacity = std::uint64_t{1} << 31;

  TaskQueue() = default;
  explicit TaskQueue(TaskArena* arena) : arena_(arena) {}
  ~TaskQueue() { release(); }

  TaskQueue(TaskQueue&& o) noexcept { *this = std::move(o); }
  TaskQueue& operator=(TaskQueue&& o) noexcept {
    if (this != &o) {
      release();
      arena_ = o.arena_;
      block_ = o.block_;
      mask_ = o.mask_;
      head_ = o.head_;
      tail_ = o.tail_;
      owns_block_ = o.owns_block_;
      o.forget();
    }
    return *this;
  }
  TaskQueue(const TaskQueue&) = delete;
  TaskQueue& operator=(const TaskQueue&) = delete;

  /// The ring size grow() moves to from `cap` slots (0: no ring yet).
  [[nodiscard]] static std::uint64_t grown_capacity(std::uint64_t cap) {
    CLB_CHECK(cap < kMaxCapacity, "TaskQueue capacity exceeds 2^31 tasks");
    return cap ? cap * 2 : 8;
  }

  [[nodiscard]] std::uint64_t size() const { return tail_ - head_; }
  [[nodiscard]] bool empty() const { return tail_ == head_; }

  void push_back(const RtTask& t) {
    if (block_ == nullptr || tail_ - head_ == mask_ + 1) grow();
    block_[tail_ & mask_] = t;
    ++tail_;
  }

  [[nodiscard]] const RtTask& operator[](std::uint64_t i) const {
    return block_[(head_ + static_cast<std::uint32_t>(i)) & mask_];
  }

  [[nodiscard]] const RtTask& front() const { return (*this)[0]; }

  void pop_front() {
    CLB_DCHECK(tail_ != head_, "pop_front on empty TaskQueue");
    ++head_;
  }

  /// Moves the newest `count` tasks (oldest-first among them, i.e. original
  /// relative order) into `out` — transfers always take from the back.
  void extract_back(std::uint64_t count, std::vector<RtTask>& out) {
    CLB_DCHECK(count <= size(), "extract_back past queue head");
    for (std::uint64_t i = size() - count; i < size(); ++i) {
      out.push_back((*this)[i]);
    }
    tail_ -= static_cast<std::uint32_t>(count);
  }

  void clear() { head_ = tail_ = 0; }

  /// Forward iteration in FIFO order:
  /// `for (const rt::RtTask& t : proc.queue)`.
  class const_iterator {
   public:
    const_iterator(const TaskQueue* q, std::uint64_t i) : q_(q), i_(i) {}
    const RtTask& operator*() const { return (*q_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator!=(const const_iterator& o) const { return i_ != o.i_; }
    bool operator==(const const_iterator& o) const { return i_ == o.i_; }

   private:
    const TaskQueue* q_;
    std::uint64_t i_;
  };
  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, size()}; }

 private:
  void grow() {
    const std::uint64_t cap =
        grown_capacity(block_ ? std::uint64_t{mask_} + 1 : 0);
    RtTask* nb = arena_ != nullptr
                     ? reinterpret_cast<RtTask*>(
                           arena_->allocate(cap * sizeof(RtTask)))
                     : new RtTask[cap];
    const std::uint32_t sz = tail_ - head_;
    for (std::uint32_t i = 0; i < sz; ++i) nb[i] = block_[(head_ + i) & mask_];
    release();
    block_ = nb;
    owns_block_ = arena_ == nullptr;
    head_ = 0;
    tail_ = sz;
    mask_ = static_cast<std::uint32_t>(cap - 1);
  }

  /// Frees an owned block; arena blocks die with their arena.
  void release() {
    if (owns_block_) delete[] block_;
    block_ = nullptr;
    owns_block_ = false;
  }
  /// Leaves a moved-from queue empty (still bound to its arena).
  void forget() {
    block_ = nullptr;
    owns_block_ = false;
    mask_ = head_ = tail_ = 0;
  }

  TaskArena* arena_ = nullptr;
  RtTask* block_ = nullptr;  // mask_ + 1 records
  std::uint32_t mask_ = 0;
  std::uint32_t head_ = 0;
  std::uint32_t tail_ = 0;
  bool owns_block_ = false;  // unbound queues only
};

}  // namespace clb::rt
