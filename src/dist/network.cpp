#include "dist/network.hpp"

namespace clb::dist {

namespace {
net::DeliveryPolicy make_policy(std::uint64_t n, std::uint32_t latency,
                                const net::Topology* topology,
                                std::uint32_t jitter, std::uint64_t seed) {
  if (topology != nullptr) {
    return net::DeliveryPolicy(n, latency, topology, jitter, seed);
  }
  return net::DeliveryPolicy(n, latency, jitter, seed);
}
}  // namespace

Network::Network(std::uint64_t n, std::uint32_t latency,
                 const net::Topology* topology, const net::NetConfig& link,
                 std::uint64_t run_seed)
    : policy_(make_policy(n, latency, topology, link.jitter, run_seed)),
      fabric_(policy_.max_delay()) {
  links_.configure(link, run_seed, policy_.max_delay());
}

void Network::send(const Message& m, std::uint64_t now) {
  CLB_DCHECK(m.to < policy_.n() && m.from < policy_.n(),
             "message endpoint out of range");
  const net::SendPlan plan =
      links_.plan(m.from, m.to, now, policy_.delay(m.from, m.to));
  fabric_.file(now, plan.due, m);
  if (fabric_.pending() > max_in_flight_) max_in_flight_ = fabric_.pending();
  total_hops_ += policy_.hops(m.from, m.to);
}

const std::vector<Message>& Network::deliver(std::uint64_t now) {
  due_.clear();
  flight_sum_ += fabric_.pending();  // depth this step, before removal
  ++deliver_calls_;
  fabric_.take_due(now, due_);
  net::sort_due_batch(
      due_, [](const Message& m) { return m.to; },
      [](const Message& m) -> const net::SeqKey& { return m.seq; });
  return due_;
}

void Network::reset() {
  fabric_.discard_pending([](Message&) {});
  links_.reset();
  due_.clear();
  // Cumulative stats (sent/hops/delivered/depth) survive the reset on
  // purpose: a forced phase end discards messages, it does not unsend them.
}

}  // namespace clb::dist
