#include "sim/steal.hpp"

#include <algorithm>

#include "sim/engine.hpp"
#include "util/check.hpp"

namespace clb::sim {

void StealCandidates::encode(std::vector<std::uint64_t>& out) const {
  out.push_back(thieves_.size());
  out.insert(out.end(), thieves_.begin(), thieves_.end());
  for (const Victim& v : victims_) {
    out.push_back((static_cast<std::uint64_t>(v.load) << 32) | v.id);
  }
}

std::vector<Transfer> steal_merge(
    std::span<const std::vector<std::uint64_t>> shard_blobs,
    const StealConfig& cfg) {
  std::vector<Transfer> out;
  if (!cfg.enabled) return out;
  CLB_CHECK(cfg.min_victim_load >= 2, "min_victim_load must be >= 2");

  // Thieves: the first max_steals_per_step in ascending id — shards are
  // contiguous, so shard order is id order.
  std::vector<std::uint32_t> thieves;
  std::vector<std::uint64_t> victims;  // load << 32 | id
  for (const std::vector<std::uint64_t>& b : shard_blobs) {
    const std::uint64_t k = b[0];
    for (std::uint64_t i = 1; i <= k; ++i) {
      if (thieves.size() < cfg.max_steals_per_step) {
        thieves.push_back(static_cast<std::uint32_t>(b[i]));
      }
    }
    victims.insert(victims.end(), b.begin() + 1 + static_cast<std::ptrdiff_t>(k),
                   b.end());
  }
  if (thieves.empty()) return out;

  // Victims: descending load, ascending id on ties; every global top-K
  // victim is in its own shard's top K.
  std::sort(victims.begin(), victims.end(),
            [](std::uint64_t x, std::uint64_t y) {
              if ((x >> 32) != (y >> 32)) return (x >> 32) > (y >> 32);
              return (x & 0xFFFFFFFFu) < (y & 0xFFFFFFFFu);
            });

  // Pair by rank: the lowest-id thief takes the most-loaded victim. Emit
  // sorted ascending by sender so the runtime's canonical send ordinals
  // (list position) match the engine's application order.
  const std::size_t pairs = std::min(thieves.size(), victims.size());
  for (std::size_t i = 0; i < pairs; ++i) {
    const auto load = static_cast<std::uint32_t>(victims[i] >> 32);
    const std::uint32_t count = std::min<std::uint32_t>(cfg.max_batch, load / 2);
    if (count == 0) continue;
    out.push_back(Transfer{static_cast<std::uint32_t>(victims[i]), thieves[i],
                           count});
  }
  std::sort(out.begin(), out.end(),
            [](const Transfer& a, const Transfer& b) { return a.from < b.from; });
  return out;
}

std::vector<Transfer> steal_decisions(std::uint64_t n,
                                      const std::vector<std::uint32_t>& load,
                                      const std::vector<std::uint8_t>& dry,
                                      const std::vector<std::uint8_t>& alive,
                                      const StealConfig& cfg) {
  if (!cfg.enabled) return {};
  StealCandidates c;
  c.reset(cfg);
  for (std::uint64_t p = 0; p < n; ++p) {
    if (alive[p]) c.offer(static_cast<std::uint32_t>(p), load[p], dry[p] != 0);
  }
  std::vector<std::uint64_t> blob;
  c.encode(blob);
  return steal_merge(std::span(&blob, 1), cfg);
}

}  // namespace clb::sim
