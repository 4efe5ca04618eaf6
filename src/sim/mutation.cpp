#include "sim/mutation.hpp"

#include "util/check.hpp"

namespace clb::sim {

namespace {
using K = MutationKind;
using S = MutationSite;
constexpr MutationInfo kTable[] = {
    {K::kNone, "none", S::kOff, false},
    {K::kDropTask, "drop-task", S::kEngine, false},
    {K::kDupTask, "dup-task", S::kEngine, false},
    {K::kReorder, "reorder", S::kEngine, false},
    {K::kPhantomMessage, "phantom-msg", S::kEngine, false},
    {K::kMailboxDrop, "mailbox-drop", S::kRuntime, true},
    {K::kDelaySkew, "delay-skew", S::kRuntime, true},
    {K::kLinkLossNoRetransmit, "link-loss-no-retransmit", S::kRuntime, false},
    {K::kDupDelivery, "dup-delivery", S::kRuntime, false},
    {K::kCrashLoseQueue, "crash-lose-queue", S::kRuntime, false},
    {K::kStaleFreeLunch, "stale-free-lunch", S::kRuntime, false},
    {K::kStealDuplicateTask, "steal-duplicate-task", S::kRuntime, false},
    {K::kFrameCorrupt, "frame-corrupt", S::kTransport, true},
};
}  // namespace

std::span<const MutationInfo> mutations() { return kTable; }

const MutationInfo& mutation_info(MutationKind m) {
  for (const MutationInfo& row : kTable) {
    if (row.kind == m) return row;
  }
  CLB_CHECK(false, "mutation kind out of range");
  return kTable[0];
}

const char* to_string(MutationKind m) { return mutation_info(m).name; }

std::optional<MutationKind> mutation_from_string(std::string_view name) {
  for (const MutationInfo& row : kTable) {
    if (name == row.name) return row.kind;
  }
  return std::nullopt;
}

}  // namespace clb::sim
