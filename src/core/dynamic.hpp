/// \file dynamic.hpp
/// Dynamic reallocation after an unpredictable workload change (paper §1:
/// "dynamic mapping approaches may be needed to reallocate resources during
/// execution").
///
/// Given the updated system model (e.g. nominal times grown beyond what the
/// initial allocation's slack absorbs) and the currently running allocation,
/// the re-mapper repairs QoS with minimal disturbance:
///
///   1. keep every string whose existing mapping is still feasible,
///   2. re-map the violating strings one at a time with the IMR (most worth
///      first), migrating only their applications,
///   3. drop the strings for which no mapping fits.  Dropped strings are
///      never retried: a failed commit consumes no capacity and the
///      committed load only grows, so a retry faces a strictly harder system.
///
/// Migration count — the number of applications whose machine changed — is
/// the disturbance metric (each migration is a process restart on a ship).

#pragma once

#include <vector>

#include "core/allocator.hpp"

namespace tsce::core {

struct ReallocationResult {
  model::Allocation allocation;
  analysis::Fitness fitness;
  /// Strings whose mapping changed (same deployment, different machines).
  std::vector<model::StringId> remapped;
  /// Strings left undeployed because no feasible mapping existed.
  std::vector<model::StringId> dropped;
  /// Applications whose machine changed relative to \p current.
  std::size_t migrations = 0;
};

/// Repairs \p current against \p updated_model.  \p current may be any
/// allocation shaped like the model (typically the initial static mapping).
/// Stage-one feasibility uses the relative-tightness priority rule.
[[nodiscard]] ReallocationResult reallocate(const model::SystemModel& updated_model,
                                            const model::Allocation& current);

}  // namespace tsce::core
