/// \file run_info.hpp
/// Run provenance: which build produced a bench JSON or trace, and with what
/// inputs.
///
/// Every machine-readable artifact (bench JSON via bench/harness, trace
/// headers via obs::trace_open, metrics snapshots) carries a RunInfo block so
/// a number in BENCH_*.json is attributable to a git state, build
/// configuration, seed, and scenario parameters.  Build-identity fields are
/// stamped at CMake configure time (re-run cmake after committing to refresh
/// the sha; a stale stamp is reported as "<sha>-stale" when the work tree
/// changed underneath — we keep it simple and only record the configure-time
/// value).

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/json.hpp"

namespace tsce::obs {

struct RunInfo {
  // Build identity (filled by current() from configure-time stamps).
  std::string git_sha;
  std::string build_type;
  std::string compiler;
  std::string sanitize;  ///< TSCE_SANITIZE value, empty when off

  // Run identity (filled by the caller).
  std::uint64_t seed = 0;
  std::size_t threads = 1;
  /// Free-form scenario parameters, serialized in insertion order
  /// (e.g. {"scenario","highly_loaded"}, {"machines","6"}).
  std::vector<std::pair<std::string, std::string>> params;

  void set_param(std::string key, std::string value) {
    params.emplace_back(std::move(key), std::move(value));
  }
  void set_param(std::string key, std::int64_t value) {
    params.emplace_back(std::move(key), std::to_string(value));
  }

  /// Build-identity fields populated; run-identity fields at defaults.
  [[nodiscard]] static RunInfo current();

  [[nodiscard]] util::Json to_json() const;
};

}  // namespace tsce::obs
