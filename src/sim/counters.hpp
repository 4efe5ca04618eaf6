// Global simulation counters, mostly message accounting.
//
// The paper's communication claims (Section 1.2) count messages: queries,
// accepts, id messages, and task movements. Balancers attribute every
// message they "send" to one of these categories so benches can reproduce
// the O(n / (log n)^{log log n - 1}) messages-per-phase claim and the
// comparison against Theta(n)-message balls-into-bins allocation.
#pragma once

#include <cstdint>

namespace clb::sim {

struct MessageCounters {
  std::uint64_t queries = 0;       // collision-protocol queries
  std::uint64_t accepts = 0;       // collision-protocol accept replies
  std::uint64_t id_messages = 0;   // applicative -> boss id messages
  std::uint64_t control = 0;       // everything else (probes, polls, ...)
  std::uint64_t transfers = 0;     // balancing actions that moved load
  std::uint64_t tasks_moved = 0;   // total task payload moved

  [[nodiscard]] std::uint64_t protocol_total() const {
    return queries + accepts + id_messages + control;
  }

  void reset() { *this = MessageCounters{}; }

  MessageCounters& operator+=(const MessageCounters& o) {
    queries += o.queries;
    accepts += o.accepts;
    id_messages += o.id_messages;
    control += o.control;
    transfers += o.transfers;
    tasks_moved += o.tasks_moved;
    return *this;
  }
};

}  // namespace clb::sim
