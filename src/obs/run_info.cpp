#include "obs/run_info.hpp"

// Configure-time build stamps (see src/obs/CMakeLists.txt).  Defaults keep
// the translation unit compilable outside the CMake build (e.g. tooling).
#ifndef TSCE_GIT_SHA
#define TSCE_GIT_SHA "unknown"
#endif
#ifndef TSCE_BUILD_TYPE
#define TSCE_BUILD_TYPE "unknown"
#endif
#ifndef TSCE_COMPILER
#define TSCE_COMPILER "unknown"
#endif
#ifndef TSCE_SANITIZE_FLAGS
#define TSCE_SANITIZE_FLAGS ""
#endif

namespace tsce::obs {

RunInfo RunInfo::current() {
  RunInfo info;
  info.git_sha = TSCE_GIT_SHA;
  info.build_type = TSCE_BUILD_TYPE;
  info.compiler = TSCE_COMPILER;
  info.sanitize = TSCE_SANITIZE_FLAGS;
  return info;
}

util::Json RunInfo::to_json() const {
  util::Json j = util::Json::object();
  j.set("git_sha", git_sha);
  j.set("build_type", build_type);
  j.set("compiler", compiler);
  j.set("sanitize", sanitize);
  j.set("seed", static_cast<std::int64_t>(seed));
  j.set("threads", threads);
  util::Json p = util::Json::object();
  for (const auto& [key, value] : params) p.set(key, value);
  j.set("params", std::move(p));
  return j;
}

}  // namespace tsce::obs
