// The shadow-fabric cross-check: every deterministic cross-process run is
// re-executed on the in-memory rt::Runtime (same config with every test-only
// fault hook cleared, same worker count, same command log of run()/deposit()
// calls) and the two results are compared by rt::diff — every field of the
// merged outputs, the phase log (heavy lists included), every processor's
// counters and per-queue TASK IDENTITY (birth step, origin, weight — not
// just counts), and the step-counted sojourn histogram. Only the wall-clock
// readings and the fault-injection witnesses are left out (rt/result.cpp
// says why). Both run the same rt::ShardKernel, so any difference is the
// substrate's doing, or a fault hook's.
//
// This is the conviction layer the wire CRC cannot provide: a frame whose
// payload was corrupted BEFORE signing carries a valid CRC and keeps every
// count self-consistent, but the shadow sees a task that was never born
// with that identity and names the first divergence (the frame-corrupt
// mutation test drives exactly this path).
#pragma once

#include <string>

#include "transport/process_runtime.hpp"

namespace clb::transport {

struct ShadowReport {
  bool ok = true;
  /// Human-readable description of the FIRST divergence ("" when ok).
  std::string divergence;
};

/// Replays `pr`'s command log on an in-proc rt::Runtime and diffs the two
/// results. Requires a deterministic config (bit-identity is only promised
/// there). Collects pr — no further run()/deposit() on pr afterwards.
[[nodiscard]] ShadowReport shadow_check(ProcessRuntime& pr);

}  // namespace clb::transport
