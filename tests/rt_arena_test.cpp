// rt::TaskQueue and rt::TaskArena: the ring's FIFO contract across
// growth and ring wrap, its hand-written ownership (owned and
// arena-bound blocks under move), and the per-processor and per-message
// footprints the runtime's sweeps and exchanges depend on.
#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "rt/arena.hpp"
#include "rt/config.hpp"
#include "rt/message.hpp"

namespace {

using clb::rt::RtProcessor;
using clb::rt::RtTask;
using clb::rt::TaskArena;
using clb::rt::TaskQueue;

// Growing either is a deliberate edit: the generate/consume sweep walks one
// RtProcessor per processor every step (see rt/arena.hpp on what that costs).
static_assert(sizeof(TaskQueue) <= 32, "TaskQueue header grew past 32 bytes");
static_assert(sizeof(RtProcessor) <= 80, "RtProcessor grew past 80 bytes");
// Every protocol message is copied into an outbox, out of it, and sorted by
// key: a record that grows or owns memory slows every exchange.
static_assert(sizeof(clb::rt::Msg) <= 32 &&
                  std::is_trivially_copyable_v<clb::rt::Msg>,
              "rt::Msg grew past 32 bytes or stopped being trivially copyable");

RtTask task(std::uint32_t id) {
  return RtTask{clb::sim::Task{id, id + 1000, id % 7 + 1}, id * 3};
}

void expect_task(const RtTask& got, std::uint32_t id) {
  const RtTask want = task(id);
  EXPECT_EQ(got.task.birth_step, want.task.birth_step) << "task " << id;
  EXPECT_EQ(got.task.origin, want.task.origin) << "task " << id;
  EXPECT_EQ(got.task.weight, want.task.weight) << "task " << id;
  EXPECT_EQ(got.birth_us, want.birth_us) << "task " << id;
}

/// Pushes ids [first, first + count).
void push_range(TaskQueue& q, std::uint32_t first, std::uint32_t count) {
  for (std::uint32_t i = 0; i < count; ++i) q.push_back(task(first + i));
}

/// Pops `count` tasks, expecting ids first, first + 1, ...
void pop_expect(TaskQueue& q, std::uint32_t first, std::uint32_t count) {
  for (std::uint32_t i = 0; i < count; ++i) {
    ASSERT_FALSE(q.empty());
    expect_task(q.front(), first + i);
    q.pop_front();
  }
}

/// Fills the first ring (8), pops 5 and pushes 5 so head and tail straddle
/// the end of the ring, then pushes past capacity: grow() must unwrap.
void fifo_across_wrapped_grow(TaskQueue& q) {
  push_range(q, 0, 8);
  pop_expect(q, 0, 5);
  push_range(q, 8, 5);
  ASSERT_EQ(q.size(), 8u);
  push_range(q, 13, 20);
  ASSERT_EQ(q.size(), 28u);
  pop_expect(q, 5, 28);
  EXPECT_TRUE(q.empty());
}

TEST(TaskQueue, FifoAcrossGrowWithWrappedRing) {
  TaskQueue owned;
  fifo_across_wrapped_grow(owned);
  TaskArena arena;
  TaskQueue bound(&arena);
  fifo_across_wrapped_grow(bound);
}

TEST(TaskQueue, ExtractBackAcrossWrapPoint) {
  TaskQueue q;
  push_range(q, 0, 8);
  pop_expect(q, 0, 6);
  push_range(q, 8, 4);  // ring slots 6,7 hold 6,7; slots 0..3 hold 8..11
  ASSERT_EQ(q.size(), 6u);
  std::vector<RtTask> out;
  q.extract_back(4, out);  // the newest four, oldest first
  ASSERT_EQ(out.size(), 4u);
  for (std::uint32_t i = 0; i < 4; ++i) expect_task(out[i], 8 + i);
  ASSERT_EQ(q.size(), 2u);

  // Now take the back across the wrap: 6,7 sit at the ring's end, 12,13
  // at its start.
  push_range(q, 12, 2);
  out.clear();
  q.extract_back(3, out);
  ASSERT_EQ(out.size(), 3u);
  expect_task(out[0], 7);
  expect_task(out[1], 12);
  expect_task(out[2], 13);
  pop_expect(q, 6, 1);
  EXPECT_TRUE(q.empty());
}

TEST(TaskQueue, IndexAndIterationFollowFifoOrder) {
  TaskArena arena;
  TaskQueue q(&arena);
  push_range(q, 0, 8);
  pop_expect(q, 0, 3);
  push_range(q, 8, 3);  // wrapped: logical 0..7 = ids 3..10
  ASSERT_EQ(q.size(), 8u);
  for (std::uint64_t i = 0; i < q.size(); ++i) {
    expect_task(q[i], 3 + static_cast<std::uint32_t>(i));
  }
  std::uint32_t want = 3;
  for (const RtTask& t : q) expect_task(t, want++);
  EXPECT_EQ(want, 11u);
}

TEST(TaskQueue, MoveOwnedQueue) {
  TaskQueue a;
  push_range(a, 0, 20);
  pop_expect(a, 0, 2);

  TaskQueue b(std::move(a));
  EXPECT_TRUE(a.empty());  // a moved-from queue is defined empty
  ASSERT_EQ(b.size(), 18u);

  TaskQueue c;
  push_range(c, 100, 9);  // c owns a block that the assignment must free
  c = std::move(b);
  EXPECT_TRUE(b.empty());
  ASSERT_EQ(c.size(), 18u);

  TaskQueue& self = c;
  c = std::move(self);  // self-move keeps the contents
  ASSERT_EQ(c.size(), 18u);
  pop_expect(c, 2, 18);

  // A moved-from queue is reusable.
  push_range(a, 50, 10);
  pop_expect(a, 50, 10);
}

TEST(TaskQueue, MoveArenaBoundQueue) {
  TaskArena arena;
  TaskQueue a(&arena);
  push_range(a, 0, 12);
  const std::size_t used = arena.bytes_used();

  TaskQueue b(std::move(a));
  ASSERT_EQ(b.size(), 12u);
  EXPECT_EQ(arena.bytes_used(), used);  // the block moves; nothing allocated

  TaskQueue c;  // unbound, owning: assignment frees its block
  push_range(c, 100, 3);
  c = std::move(b);
  ASSERT_EQ(c.size(), 12u);
  TaskQueue& self = c;
  c = std::move(self);
  pop_expect(c, 0, 12);

  // The moved-from queue stays bound to the arena.
  push_range(a, 30, 4);
  EXPECT_GT(arena.bytes_used(), used);
  pop_expect(a, 30, 4);
}

TEST(TaskQueue, VectorOfBoundQueuesSurvivesReallocation) {
  TaskArena arena;
  std::vector<RtProcessor> procs;
  for (std::uint32_t p = 0; p < 40; ++p) {
    procs.emplace_back(&arena);
    push_range(procs.back().queue, p * 100, p % 11);
  }
  for (std::uint32_t p = 0; p < 40; ++p) {
    pop_expect(procs[p].queue, p * 100, p % 11);
  }
}

TEST(TaskQueue, ArenaBytesMatchRingGrowth) {
  // 8 -> 16 -> 32 slots, four u32 lanes each: 128 + 256 + 512 bytes.
  TaskArena arena;
  TaskQueue q(&arena);
  push_range(q, 0, 20);
  EXPECT_EQ(arena.bytes_used(), 128u + 256u + 512u);
}

TEST(TaskQueueDeathTest, CapacityPastTwoToThe31Aborts) {
  // grow() doubles through grown_capacity(); a ring already at 2^31 slots
  // (32 GiB of lanes, so not built here) must refuse to double.
  EXPECT_EQ(TaskQueue::grown_capacity(0), 8u);
  EXPECT_EQ(TaskQueue::grown_capacity(8), 16u);
  EXPECT_EQ(TaskQueue::grown_capacity(TaskQueue::kMaxCapacity / 2),
            TaskQueue::kMaxCapacity);
  EXPECT_DEATH((void)TaskQueue::grown_capacity(TaskQueue::kMaxCapacity),
               "capacity exceeds 2\\^31");
}

}  // namespace
