// The message vocabulary of the shard kernel (rt/kernel.hpp), shared by the
// in-proc runtime and the cross-process transport: one trivially copyable
// record with its payload in a task lane, and an envelope for the latency
// fabric, carried by rt::Comm (per-destination Batch outboxes in one
// address space, kBatch frames between processes).
#pragma once

#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "net/delivery.hpp"
#include "sim/task.hpp"

namespace clb::rt {

/// A task in flight through the runtime. Wraps the simulator's Task (so
/// equivalence checks compare the exact same identity triple) and adds the
/// wall-clock birth stamp time_sojourn needs for sojourn latency.
struct RtTask {
  sim::Task task;
  std::uint32_t birth_us = 0;  ///< microseconds since the run's clock origin
};

enum class MsgKind : std::uint8_t {
  kQuery,        ///< collision game: request slot queries a target
  kAccept,       ///< collision game: target accepted the query
  kChild,        ///< tree: node announces child q to q's shard
  kChildStatus,  ///< tree: child reports applicative or not to the root
  kId,           ///< latency fabric: an applicative light's id to the root
  kForward,      ///< latency fabric: child becomes a next-level node
  kTransfer,     ///< T/4 tasks moving from a matched root to its light
  kScatter,      ///< all-in-air: one task thrown to a random processor
  kTransferCmd,  ///< latency fabric: delayed "ship the block" command,
                 ///< staged at the source owner, applied end of its due step
  kRehome,       ///< crash: a crashed processor's queue moving to its heir
};

/// One protocol message: a 32-byte trivially copyable record. `key` is the
/// message's canonical processing key — a total order that depends only on
/// protocol state (slots, tree edges), never on which shard sent it or when
/// it arrived — so the kernel sorts a drained batch into a
/// partition-invariant order. Payload tasks do not live in the record: they
/// travel in the task lane of the Batch that carries it, and
/// [task_offset, task_offset + task_count) indexes that lane. Field use per
/// kind (slots/edges are recovered from `key`; accepts and child reports go
/// to the root's shard, which hosts every node of its query tree):
///
///   kind          key                    a          b            tasks
///   kQuery        slot<<4 | j            target     root         -
///   kAccept       slot<<4 | j            -          -            -
///   kChild        g<<1 | s               child q    root         -
///   kChildStatus  g<<1 | s               child q    applicative  -
///   kTransfer     from                   from       to           T/4
///   kScatter      from<<32 | seq         from       to           1
///   kRehome       crash ordinal          crashed    heir         queue
///
/// An applicative kChildStatus is the paper's id message.
/// Latency mode (RtConfig::latency >= 1) runs the dist:: protocol instead,
/// kId and kForward included; its messages travel as Envelopes (below),
/// with `a`/`b` carrying the dist Message payloads (root/count,
/// level/applicative).
struct Msg {
  std::uint64_t key = 0;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint32_t task_offset = 0;  ///< first payload task in the task lane
  std::uint32_t task_count = 0;   ///< payload tasks (0: none)
  MsgKind kind = MsgKind::kQuery;
};
static_assert(sizeof(Msg) == 32 && std::is_trivially_copyable_v<Msg>);

/// A latency-mode message: the record plus what only the latency fabric
/// needs — the protocol endpoints, the step the message matures (`due`) and
/// the shared canonical send position (net/delivery.hpp). net::Fabric files
/// envelopes; instant-fabric messages never carry one.
struct Envelope {
  Msg msg;
  std::uint32_t from = 0;  ///< protocol sender
  std::uint32_t to = 0;    ///< protocol recipient
  std::uint64_t due = 0;
  net::SeqKey seq{};
};

/// What one outbox holds and what one drain returns: messages, the task
/// lane their payload spans index, and the latency envelopes. Sorting
/// `msgs` keeps every span valid (offsets are absolute within the batch).
struct Batch {
  std::vector<Msg> msgs;
  std::vector<RtTask> tasks;
  std::vector<Envelope> envs;

  /// Appends `m` with `payload` copied into the task lane (m's own span
  /// fields are ignored).
  void push(const Msg& m, std::span<const RtTask> payload) {
    Msg& r = msgs.emplace_back(m);
    r.task_offset = static_cast<std::uint32_t>(tasks.size());
    r.task_count = static_cast<std::uint32_t>(payload.size());
    tasks.insert(tasks.end(), payload.begin(), payload.end());
  }

  /// Moves every record of `src` to the end of this batch, rebasing the
  /// payload spans onto this task lane, and empties `src`.
  void append(Batch& src) {
    const auto base = static_cast<std::uint32_t>(tasks.size());
    const std::size_t first = msgs.size();
    msgs.insert(msgs.end(), src.msgs.begin(), src.msgs.end());
    if (base != 0) {
      for (std::size_t i = first; i < msgs.size(); ++i) {
        msgs[i].task_offset += base;
      }
    }
    tasks.insert(tasks.end(), src.tasks.begin(), src.tasks.end());
    envs.insert(envs.end(), src.envs.begin(), src.envs.end());
    src.clear();
  }

  [[nodiscard]] std::span<const RtTask> payload(const Msg& m) const {
    return {tasks.data() + m.task_offset, m.task_count};
  }
  [[nodiscard]] bool empty() const { return msgs.empty() && envs.empty(); }
  void clear() {
    msgs.clear();
    tasks.clear();
    envs.clear();
  }
};

}  // namespace clb::rt
