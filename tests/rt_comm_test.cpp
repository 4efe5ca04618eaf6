// rt::InProcComm, the in-proc substrate of the shard kernel: what a drain
// returns when messages sit undrained across an exchange (they move to the
// receiver's stash and must come back intact), with payload tasks in the
// task lane and latency envelopes in their own lane. Suites are named
// InProcComm* so the TSan CI job selects them by regex.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "rt/comm.hpp"
#include "rt/message.hpp"

namespace {

using namespace clb;

constexpr std::uint32_t kProcsPerShard = 8;
constexpr std::uint32_t kPerDest = 6;  // messages per (source, dest, epoch)

/// A message's identity, packed into its key: who sent it to whom, in
/// which epoch, as the k-th send to that destination.
std::uint64_t key_of(unsigned src, unsigned dst, unsigned epoch,
                     std::uint32_t k) {
  return (std::uint64_t{src} << 24) | (std::uint64_t{dst} << 16) |
         (std::uint64_t{epoch} << 8) | k;
}

/// Payload task t of message `key`; k % 3 tasks per message, so payload
/// and payload-free messages alternate.
rt::RtTask task_of(std::uint64_t key, std::uint32_t t) {
  return rt::RtTask{sim::Task{static_cast<std::uint32_t>(key), t, 1},
                    static_cast<std::uint32_t>(key >> 16)};
}

void send_epoch(rt::InProcComm& comm, unsigned shards, unsigned epoch) {
  const unsigned src = comm.self();
  for (unsigned dst = 0; dst < shards; ++dst) {
    for (std::uint32_t k = 0; k < kPerDest; ++k) {
      rt::Msg m;
      m.kind = rt::MsgKind::kTransfer;
      m.key = key_of(src, dst, epoch, k);
      // A stale span on the record must not leak: send() sets its own.
      m.task_offset = 12345;
      m.task_count = 99;
      std::vector<rt::RtTask> payload;
      for (std::uint32_t t = 0; t < k % 3; ++t) {
        payload.push_back(task_of(m.key, t));
      }
      const std::uint32_t dest_proc = dst * kProcsPerShard + k % 8;
      comm.send(dest_proc, m, payload);
      if (k % 4 == 1) {
        rt::Envelope e;
        e.msg.kind = rt::MsgKind::kAccept;
        e.msg.key = m.key;
        e.from = src;
        e.to = dest_proc;
        e.due = epoch + 10;
        comm.send(dest_proc, e);
      }
    }
  }
}

/// What each shard drained: epochs 0 and 1 in one batch, then epoch 2.
struct Drained {
  rt::Batch first;
  rt::Batch next;
};

/// Every shard sends in epochs 0 and 1 and drains only after the second
/// exchange, so epoch 0's messages go through the stash. With `seeded`,
/// the batch drained into already holds one task (the copying append);
/// without it the drain starts from an empty batch (the swapping append).
/// Then every shard sends epoch 2 and drains it into an empty batch, which
/// runs on the buffers the swaps left behind in the stash and outboxes.
std::vector<Drained> run_epochs(unsigned shards, bool seeded) {
  const rt::Partition part(std::uint64_t{shards} * kProcsPerShard, shards);
  rt::InProcFabric fabric(shards);
  std::vector<std::unique_ptr<rt::InProcComm>> comms;
  for (unsigned s = 0; s < shards; ++s) {
    comms.push_back(std::make_unique<rt::InProcComm>(part, s, fabric));
  }
  std::vector<Drained> got(shards);
  std::vector<std::thread> threads;
  for (unsigned s = 0; s < shards; ++s) {
    threads.emplace_back([&, s] {
      rt::InProcComm& comm = *comms[s];
      send_epoch(comm, shards, 0);
      (void)comm.exchange({});
      send_epoch(comm, shards, 1);
      (void)comm.exchange({});
      if (seeded) got[s].first.tasks.push_back(task_of(0, 0));
      comm.drain(got[s].first);
      // Nothing is owed twice.
      rt::Batch again;
      comm.drain(again);
      EXPECT_TRUE(again.empty()) << "shard " << s;
      send_epoch(comm, shards, 2);
      (void)comm.exchange({});
      comm.drain(got[s].next);
    });
  }
  for (std::thread& t : threads) t.join();
  return got;
}

/// Checks that `b` holds epochs [first_epoch, last_epoch) addressed to
/// `dst` in (epoch, source shard, send) order, their spans tiling the task
/// lane from `offset` on.
void expect_epochs(const rt::Batch& b, unsigned dst, unsigned shards,
                   unsigned first_epoch, unsigned last_epoch,
                   std::uint32_t offset) {
  SCOPED_TRACE("shard " + std::to_string(dst));
  ASSERT_EQ(b.msgs.size(), (last_epoch - first_epoch) * shards * kPerDest);
  std::size_t i = 0, env = 0;
  for (unsigned epoch = first_epoch; epoch < last_epoch; ++epoch) {
    for (unsigned src = 0; src < shards; ++src) {
      for (std::uint32_t k = 0; k < kPerDest; ++k, ++i) {
        const rt::Msg& m = b.msgs[i];
        const std::uint64_t key = key_of(src, dst, epoch, k);
        ASSERT_EQ(m.key, key) << "message " << i;
        ASSERT_EQ(m.task_count, k % 3) << "message " << i;
        EXPECT_EQ(m.task_offset, offset) << "message " << i;
        offset += m.task_count;
        const auto payload = b.payload(m);
        for (std::uint32_t t = 0; t < m.task_count; ++t) {
          const rt::RtTask want = task_of(key, t);
          EXPECT_EQ(payload[t].task.birth_step, want.task.birth_step);
          EXPECT_EQ(payload[t].task.origin, want.task.origin);
          EXPECT_EQ(payload[t].birth_us, want.birth_us);
        }
        if (k % 4 == 1) {
          ASSERT_LT(env, b.envs.size());
          EXPECT_EQ(b.envs[env].msg.key, key);
          EXPECT_EQ(b.envs[env].from, src);
          EXPECT_EQ(b.envs[env].due, epoch + 10u);
          ++env;
        }
      }
    }
  }
  EXPECT_EQ(offset, b.tasks.size());
  EXPECT_EQ(env, b.envs.size());
}

void expect_epoch_order(unsigned shards, bool seeded) {
  const std::vector<Drained> got = run_epochs(shards, seeded);
  for (unsigned dst = 0; dst < shards; ++dst) {
    // Behind the seeded task, if there is one.
    expect_epochs(got[dst].first, dst, shards, 0, 2, seeded ? 1 : 0);
    expect_epochs(got[dst].next, dst, shards, 2, 3, 0);
  }
}

TEST(InProcComm, StashedPayloadsReturnInShardAndSendOrderTwoShards) {
  expect_epoch_order(2, true);
}

TEST(InProcComm, StashedPayloadsReturnInShardAndSendOrderFourShards) {
  expect_epoch_order(4, true);
}

// A drain into an empty batch takes the stash by swapping lanes, then
// appends (and rebases) the sealed outboxes behind it; the next exchange
// refills the buffers the swaps handed back.
TEST(InProcComm, EmptyDrainSwapsTheStashInTwoShards) {
  expect_epoch_order(2, false);
}

TEST(InProcComm, SendCountsSelfAndRemotePushes) {
  const rt::Partition part(2 * kProcsPerShard, 2);
  rt::InProcFabric fabric(2);
  rt::InProcComm comm(part, 0, fabric);
  comm.send(1, rt::Msg{});               // own shard
  comm.send(kProcsPerShard, rt::Msg{});  // shard 1
  comm.send(kProcsPerShard + 3, rt::Envelope{});
  EXPECT_EQ(comm.self_pushes(), 1u);
  EXPECT_EQ(comm.remote_pushes(), 2u);
}

/// A batch of `count` messages keyed from `key0`, message k carrying k % 3
/// payload tasks.
rt::Batch filled(std::uint64_t key0, std::uint32_t count) {
  rt::Batch b;
  for (std::uint32_t k = 0; k < count; ++k) {
    rt::Msg m;
    m.key = key0 + k;
    std::vector<rt::RtTask> payload;
    for (std::uint32_t t = 0; t < k % 3; ++t) {
      payload.push_back(task_of(m.key, t));
    }
    b.push(m, payload);
  }
  b.envs.push_back(rt::Envelope{});
  return b;
}

/// Every message of `b` at or after index `first` has its own payload.
void expect_payloads(const rt::Batch& b, std::size_t first = 0) {
  for (std::size_t i = first; i < b.msgs.size(); ++i) {
    const rt::Msg& m = b.msgs[i];
    const auto payload = b.payload(m);
    ASSERT_EQ(payload.size(), m.task_count);
    ASSERT_LE(m.task_offset + m.task_count, b.tasks.size()) << "message " << i;
    for (std::uint32_t t = 0; t < m.task_count; ++t) {
      const rt::RtTask want = task_of(m.key, t);
      EXPECT_EQ(payload[t].task.birth_step, want.task.birth_step)
          << "message " << i;
      EXPECT_EQ(payload[t].task.origin, want.task.origin) << "message " << i;
    }
  }
}

TEST(BatchAppend, IntoEmptyBatchSwapsAndKeepsSpans) {
  rt::Batch src = filled(100, 7);
  const rt::RtTask* lane = src.tasks.data();
  const std::vector<rt::Msg> before = src.msgs;
  rt::Batch dst;
  dst.append(src);
  // The lanes moved, not copied: same task buffer, offsets untouched.
  EXPECT_EQ(dst.tasks.data(), lane);
  ASSERT_EQ(dst.msgs.size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(dst.msgs[i].task_offset, before[i].task_offset);
  }
  EXPECT_EQ(dst.envs.size(), 1u);
  expect_payloads(dst);
  EXPECT_TRUE(src.empty());
  EXPECT_TRUE(src.tasks.empty());
}

TEST(BatchAppend, SecondAppendRebasesBehindTheFirst) {
  rt::Batch a = filled(100, 7);
  rt::Batch b = filled(200, 5);
  const std::size_t lane = a.tasks.size();
  rt::Batch dst;
  dst.append(a);
  dst.append(b);
  ASSERT_EQ(dst.msgs.size(), 12u);
  EXPECT_EQ(dst.msgs[7].task_offset, lane);  // b's first message
  EXPECT_EQ(dst.tasks.size(), lane + 4);     // b carries 0+1+2+0+1 tasks
  EXPECT_EQ(dst.envs.size(), 2u);
  expect_payloads(dst);
  EXPECT_TRUE(b.empty());
  EXPECT_TRUE(b.tasks.empty());
}

TEST(BatchAppend, EmptiedSourceRefillsForTheNextExchange) {
  rt::Batch src = filled(100, 7);
  rt::Batch dst;
  dst.append(src);
  // The source now holds the destination's old (empty) buffers; it fills
  // from offset 0 as a fresh batch does.
  rt::Batch refill = filled(300, 4);
  src.append(refill);
  ASSERT_EQ(src.msgs.size(), 4u);
  EXPECT_EQ(src.msgs[0].task_offset, 0u);
  expect_payloads(src);
  std::vector<rt::RtTask> payload = {task_of(304, 0)};
  rt::Msg m;
  m.key = 304;
  src.push(m, payload);
  EXPECT_EQ(src.msgs.back().task_offset, 3u);  // behind 0+1+2 tasks
  expect_payloads(src);
  // The first drain is untouched by the source's reuse.
  expect_payloads(dst);
  // A batch holding only tasks is not empty: appending copies and rebases.
  rt::Batch seeded;
  seeded.tasks.push_back(task_of(0, 0));
  seeded.append(src);
  EXPECT_EQ(seeded.msgs[0].task_offset, 1u);
  expect_payloads(seeded);
}

}  // namespace
