// The fault-injection vocabulary: every deliberately broken behaviour the
// repo can inject, wherever it is injected — sim::Engine's test hooks (the
// fuzz oracle), the runtime kernel (rt::RtConfig::mutation) or the socket
// transport (transport::SocketComm). Each one breaks the run while keeping
// count-based checks green, so only an identity oracle or a shadow can
// convict it (the harness's self-test; see docs/testing.md).
//
// Lives in clb_sim, below both clb_rt and clb_testing, so the runtime config
// and the fuzzer name the same kinds.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>

namespace clb::sim {

enum class MutationKind : std::uint8_t {
  kNone,
  kDropTask,        // engine: lose one queued task in flight
  kDupTask,         // engine: deliver one task twice
  kReorder,         // engine: swap two tasks in one FIFO queue
  kPhantomMessage,  // engine: bump a protocol counter outside any phase
  kMailboxDrop,     // rt: silently drop the k-th transfer message
  kDelaySkew,       // rt latency fabric: deliver the k-th send a step early
  kLinkLossNoRetransmit,  // rt lossy link: drop a first attempt, never resend
  kDupDelivery,           // rt lossy link: replay a transfer cmd on ack loss
  kCrashLoseQueue,        // rt: a crashed queue vanishes un-rehomed
  kStaleFreeLunch,        // rt stale-sq: decisions secretly read fresh loads
  kStealDuplicateTask,    // rt stealing: a stolen batch clones, not moves
  kFrameCorrupt,  // transport: corrupt the k-th remote kTransfer frame
};

/// Which layer injects a kind.
enum class MutationSite : std::uint8_t { kOff, kEngine, kRuntime, kTransport };

struct MutationInfo {
  MutationKind kind;
  const char* name;
  MutationSite site;
  /// Hits the k-th event (RtConfig::mutation_ordinal = k >= 1) rather than
  /// every event (ordinal 0).
  bool ordinal;
};

/// The name table: one row per kind.
[[nodiscard]] std::span<const MutationInfo> mutations();
/// The table row of `m` (which must be a valid kind).
[[nodiscard]] const MutationInfo& mutation_info(MutationKind m);
[[nodiscard]] const char* to_string(MutationKind m);
/// Inverse of to_string; nullopt for a name no kind carries.
[[nodiscard]] std::optional<MutationKind> mutation_from_string(
    std::string_view name);

}  // namespace clb::sim
