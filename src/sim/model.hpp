// Load generation/consumption model interface (the paper's §1.2 models are
// implemented in src/models; this is the contract the engine drives).
#pragma once

#include <cstdint>
#include <span>
#include <string>

namespace clb::sim {

/// One processor-step of a model: how many tasks appear and how many the
/// processor may consume (the engine clamps consumption to queue length
/// after this step's generation lands).
struct StepAction {
  std::uint32_t generate = 0;
  std::uint32_t consume = 0;
  /// Weight of each task generated this step (1 = the paper's unit tasks).
  std::uint32_t weight = 1;
};

/// A load model answers, per processor and step, how many tasks are
/// generated and how many the processor is allowed to consume. The answer
/// must be a deterministic function of (seed, proc, step) — plus, for
/// adversarial models, the supplied load/system_load snapshot — so that the
/// engine's parallel step loop reproduces identical runs for any worker
/// count. Generation and consumption are answered in ONE call so the model
/// pays a single counter-RNG setup per processor-step.
class LoadModel {
 public:
  virtual ~LoadModel() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Tasks generated/consumable by `proc` at `step`. `load` is the
  /// processor's queue length at the start of the step and `system_load` the
  /// total system load at the start of the step (only adversarial models
  /// consult these).
  virtual StepAction step_action(std::uint64_t seed, std::uint64_t proc,
                                 std::uint64_t step, std::uint64_t load,
                                 std::uint64_t system_load) = 0;

  /// step_action for the `count` processors [first, first + count) at
  /// `step`, into out[0, count); loads[i] is processor first + i's load.
  /// Must equal calling step_action on each processor in ascending order
  /// with a system_load of 0, which is what this default does; a model
  /// overrides it to hoist the per-step setup out of the per-processor
  /// draw. It serves parallel-safe models only (!serial_generation()),
  /// which never read system_load, so it carries none. rt::ShardKernel draws
  /// blocks of its shard; it never draws a dead (crashed) processor,
  /// because a parallel-safe model may still advance per-processor state
  /// in a draw (models::OnOffModel), and the engine skips dead processors.
  /// sim::Engine keeps calling step_action per processor, so the engine
  /// stays an independent oracle for every override.
  virtual void step_actions(std::uint64_t seed, std::uint64_t first,
                            std::uint64_t count, std::uint64_t step,
                            std::span<const std::uint64_t> loads,
                            std::span<StepAction> out) {
    for (std::uint64_t i = 0; i < count; ++i) {
      out[i] = step_action(seed, first + i, step, loads[i], 0);
    }
  }

  /// Models whose generation depends on `system_load` (the adversarial cap)
  /// must run serially to stay deterministic; others may be parallelised.
  [[nodiscard]] virtual bool serial_generation() const { return false; }

  /// Expected steady-state load per processor, if the model defines one
  /// (used for predicted-value columns); NaN when not applicable.
  [[nodiscard]] virtual double expected_load_per_processor() const = 0;
};

}  // namespace clb::sim
