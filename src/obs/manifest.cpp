#include "obs/manifest.hpp"

#include "obs/json.hpp"

// Provenance macros are injected by src/obs/CMakeLists.txt; the fallbacks
// keep non-CMake builds (e.g. single-file compiles) working.
#ifndef CLB_GIT_SHA
#define CLB_GIT_SHA "unknown"
#endif
#ifndef CLB_BUILD_TYPE
#define CLB_BUILD_TYPE "unknown"
#endif
#ifndef CLB_COMPILER_ID
#define CLB_COMPILER_ID "unknown"
#endif

namespace clb::obs {

std::string BuildInfo::git_sha() { return CLB_GIT_SHA; }
std::string BuildInfo::build_type() { return CLB_BUILD_TYPE; }
std::string BuildInfo::compiler() { return CLB_COMPILER_ID; }

Manifest::Manifest(std::string tool) : tool_(std::move(tool)) {}

void Manifest::set_command(int argc, char** argv) {
  command_.clear();
  for (int i = 0; i < argc; ++i) command_.emplace_back(argv[i]);
}

void Manifest::set_raw_param(std::string_view name, std::string encoded) {
  for (auto& [n, v] : params_) {
    if (n == name) {
      v = std::move(encoded);
      return;
    }
  }
  params_.emplace_back(std::string(name), std::move(encoded));
}

void Manifest::set_param(std::string_view name, std::uint64_t v) {
  set_raw_param(name, std::to_string(v));
}
void Manifest::set_param(std::string_view name, std::int64_t v) {
  set_raw_param(name, std::to_string(v));
}
void Manifest::set_param(std::string_view name, double v) {
  JsonWriter w;
  w.value(v);
  set_raw_param(name, w.take());
}
void Manifest::set_param(std::string_view name, bool v) {
  set_raw_param(name, v ? "true" : "false");
}
void Manifest::set_param(std::string_view name, std::string_view v) {
  std::string encoded;
  json_append_escaped(encoded, v);
  set_raw_param(name, std::move(encoded));
}

void Manifest::add_output(std::string_view kind, std::string_view path) {
  outputs_.emplace_back(std::string(kind), std::string(path));
}

std::string Manifest::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.member("schema", "clb.run.v1");
  w.member("tool", tool_);

  w.key("command").begin_array();
  for (const std::string& arg : command_) w.value(arg);
  w.end_array();

  if (has_seed_) w.member("seed", seed_);

  w.key("build").begin_object();
  w.member("git_sha", BuildInfo::git_sha());
  w.member("type", BuildInfo::build_type());
  w.member("compiler", BuildInfo::compiler());
  w.end_object();

  w.key("params").begin_object();
  for (const auto& [name, encoded] : params_) w.key(name).raw(encoded);
  w.end_object();

  w.key("outputs").begin_array();
  for (const auto& [kind, path] : outputs_) {
    w.begin_object();
    w.member("kind", kind);
    w.member("path", path);
    w.end_object();
  }
  w.end_array();

  if (wall_seconds_ >= 0) w.member("wall_seconds", wall_seconds_);

  w.end_object();
  return w.take();
}

bool Manifest::write(const std::string& path) const {
  return write_text_file(path, to_json());
}

}  // namespace clb::obs
