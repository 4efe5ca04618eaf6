// Run manifests: one JSON file per run that records everything needed to
// reproduce it — the tool, its exact command line, the master seed, the
// realised parameters (n, beta, a, b, c, T, ...), the git SHA and build
// flags of the binary, wall time, and which emitter outputs the run wrote.
//
// The replay contract: re-running `command` against the same git SHA must
// reproduce every table value bit-for-bit (all randomness in the repo is
// counter-RNG keyed off the recorded seed). EXPERIMENTS.md documents the
// workflow.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace clb::obs {

/// Build provenance compiled into the library (see src/obs/CMakeLists.txt).
struct BuildInfo {
  [[nodiscard]] static std::string git_sha();
  [[nodiscard]] static std::string build_type();
  [[nodiscard]] static std::string compiler();
};

class Manifest {
 public:
  explicit Manifest(std::string tool = "");

  void set_tool(std::string tool) { tool_ = std::move(tool); }
  void set_command(int argc, char** argv);
  void set_command(std::vector<std::string> argv) { command_ = std::move(argv); }
  void set_seed(std::uint64_t seed) { seed_ = seed; has_seed_ = true; }
  void set_wall_seconds(double s) { wall_seconds_ = s; }

  /// Parameters are an ordered name -> value map; setting an existing name
  /// overwrites it. Values keep their JSON type.
  void set_param(std::string_view name, std::uint64_t v);
  void set_param(std::string_view name, std::int64_t v);
  void set_param(std::string_view name, double v);
  void set_param(std::string_view name, bool v);
  void set_param(std::string_view name, std::string_view v);
  void set_param(std::string_view name, const char* v) {
    set_param(name, std::string_view(v));
  }

  /// Records an output file this run produced (kind: "chrome_trace",
  /// "jsonl_trace", "metrics", "csv", ...).
  void add_output(std::string_view kind, std::string_view path);

  [[nodiscard]] const std::string& tool() const { return tool_; }
  [[nodiscard]] std::string to_json() const;
  bool write(const std::string& path) const;

 private:
  // Values are stored pre-encoded as JSON fragments so heterogeneous types
  // need no variant machinery.
  void set_raw_param(std::string_view name, std::string encoded);

  std::string tool_;
  std::vector<std::string> command_;
  std::uint64_t seed_ = 0;
  bool has_seed_ = false;
  double wall_seconds_ = -1;
  std::vector<std::pair<std::string, std::string>> params_;
  std::vector<std::pair<std::string, std::string>> outputs_;  // kind, path
};

}  // namespace clb::obs
