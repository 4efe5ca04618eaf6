// The message vocabulary of the shard kernel (rt/kernel.hpp), shared by the
// in-proc runtime and the cross-process transport: one value type, carried
// by rt::Comm (per-destination outboxes in one address space, kBatch frames
// between processes).
#pragma once

#include <cstdint>
#include <vector>

#include "net/delivery.hpp"
#include "sim/task.hpp"

namespace clb::rt {

/// A task in flight through the runtime. Wraps the simulator's Task (so
/// equivalence checks compare the exact same identity triple) and adds the
/// wall-clock birth stamp free-running mode needs for sojourn latency.
struct RtTask {
  sim::Task task;
  std::uint32_t birth_us = 0;  ///< microseconds since the run's clock origin
};

enum class MsgKind : std::uint8_t {
  kQuery,        ///< collision game: request slot queries a target
  kAccept,       ///< collision game: target accepted the query
  kChild,        ///< tree: parent node announces child q (coordination)
  kChildStatus,  ///< tree: child reports applicative / non-applicative
  kId,           ///< an applicative light sends its id to the root
  kForward,      ///< tree: child becomes a node at the next level
  kTransfer,     ///< T/4 tasks moving from a matched root to its light
  kScatter,      ///< all-in-air: one task thrown to a random processor
  kTransferCmd,  ///< latency fabric: delayed "ship the block" command,
                 ///< staged at the source owner, applied end of its due step
  kRehome,       ///< crash: a crashed processor's queue moving to its heir
};

/// One protocol message. `key` is the message's canonical processing key —
/// a total order that depends only on protocol state (slots, tree edges),
/// never on which shard sent it or when it arrived — so deterministic mode
/// can sort a drained batch into a partition-invariant order. Field use per
/// kind (slots/edges are recovered from `key`):
///
///   kQuery        key = slot<<4 | j      a = target, b = requester proc
///   kAccept       key = slot<<4 | j      a = requester proc (routing)
///   kChild        key = g<<1 | s         a = child q, b = root, c = parent
///   kChildStatus  key = g<<1 | s         a = parent, b = applicative flag
///   kId           key = g<<1 | s         a = root, b = partner (light)
///   kForward      key = child slot       a = child proc, b = root
///   kTransfer     key = from             a = from, b = to, payload = tasks
///   kScatter      key = from<<32 | seq   a = from, b = to, payload = task
///   kRehome       key = crash ordinal    a = crashed, b = heir, payload
///
/// Latency mode (RtConfig::latency >= 1) runs the dist:: protocol instead;
/// its messages use the `from`/`to` endpoints, the delivery step `due`, and
/// the shared canonical `seq` stamp (net/delivery.hpp), with `a`/`b`
/// carrying the dist Message payloads (root/count, level/applicative).
struct Msg {
  MsgKind kind = MsgKind::kQuery;
  std::uint64_t key = 0;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint32_t c = 0;
  std::uint32_t from = 0;       // latency mode: protocol sender
  std::uint32_t to = 0;         // latency mode: protocol recipient
  std::uint64_t due = 0;        // latency mode: step the message matures
  net::SeqKey seq{};            // latency mode: canonical send position
  std::vector<RtTask> payload;  // kTransfer / kScatter / kRehome only
};

}  // namespace clb::rt
