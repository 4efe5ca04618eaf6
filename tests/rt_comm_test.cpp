// rt::InProcComm, the in-proc substrate of the shard kernel: what a drain
// returns when messages sit undrained across an exchange (they move to the
// receiver's stash and must come back intact), with payload tasks in the
// task lane and latency envelopes in their own lane. Suites are named
// InProcComm* so the TSan CI job selects them by regex.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
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

/// Every shard sends in epochs 0 and 1 and drains only after the second
/// exchange, so epoch 0's messages go through the stash.
std::vector<rt::Batch> run_two_epochs(unsigned shards) {
  const rt::Partition part(std::uint64_t{shards} * kProcsPerShard, shards);
  rt::InProcFabric fabric(shards);
  std::vector<std::unique_ptr<rt::InProcComm>> comms;
  for (unsigned s = 0; s < shards; ++s) {
    comms.push_back(std::make_unique<rt::InProcComm>(part, s, fabric));
  }
  std::vector<rt::Batch> got(shards);
  std::vector<std::thread> threads;
  for (unsigned s = 0; s < shards; ++s) {
    threads.emplace_back([&, s] {
      rt::InProcComm& comm = *comms[s];
      send_epoch(comm, shards, 0);
      (void)comm.exchange({});
      send_epoch(comm, shards, 1);
      (void)comm.exchange({});
      got[s].tasks.push_back(task_of(0, 0));  // drains append
      comm.drain(got[s]);
      // Nothing is owed twice.
      rt::Batch again;
      comm.drain(again);
      EXPECT_TRUE(again.empty()) << "shard " << s;
    });
  }
  for (std::thread& t : threads) t.join();
  return got;
}

void expect_epoch_order(unsigned shards) {
  const std::vector<rt::Batch> got = run_two_epochs(shards);
  for (unsigned dst = 0; dst < shards; ++dst) {
    const rt::Batch& b = got[dst];
    ASSERT_EQ(b.msgs.size(), 2u * shards * kPerDest) << "shard " << dst;
    // Epoch, then source shard, then send order; spans tile the task lane
    // behind the task that was already there.
    std::size_t i = 0, env = 0;
    std::uint32_t next_offset = 1;
    for (unsigned epoch = 0; epoch < 2; ++epoch) {
      for (unsigned src = 0; src < shards; ++src) {
        for (std::uint32_t k = 0; k < kPerDest; ++k, ++i) {
          const rt::Msg& m = b.msgs[i];
          const std::uint64_t key = key_of(src, dst, epoch, k);
          ASSERT_EQ(m.key, key) << "shard " << dst << " message " << i;
          ASSERT_EQ(m.task_count, k % 3) << "message " << i;
          EXPECT_EQ(m.task_offset, next_offset) << "message " << i;
          next_offset += m.task_count;
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
    EXPECT_EQ(next_offset, b.tasks.size()) << "shard " << dst;
    EXPECT_EQ(env, b.envs.size()) << "shard " << dst;
  }
}

TEST(InProcComm, StashedPayloadsReturnInShardAndSendOrderTwoShards) {
  expect_epoch_order(2);
}

TEST(InProcComm, StashedPayloadsReturnInShardAndSendOrderFourShards) {
  expect_epoch_order(4);
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

}  // namespace
