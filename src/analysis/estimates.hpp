/// \file estimates.hpp
/// Shared-resource time estimation, eqs. (5)-(6).
///
/// For every deployed application the estimated computation time is its
/// nominal time plus the average waiting caused by higher-priority
/// applications sharing the CPU; transfers are estimated analogously on
/// shared routes.  Priorities follow relative tightness (see tightness.hpp).

#pragma once

#include <vector>

#include "analysis/priority.hpp"
#include "analysis/utilization.hpp"
#include "model/allocation.hpp"
#include "model/system_model.hpp"

namespace tsce::analysis {

/// Per-string estimated times.  Entries for undeployed strings are empty.
struct TimeEstimates {
  /// comp[k][i] = estimated computation time of a_i^k, eq. (5).
  std::vector<std::vector<double>> comp;
  /// tran[k][i] = estimated transfer time of O[i] of string k, eq. (6);
  /// tran[k] has size n_k - 1 (no entry for the final app).
  std::vector<std::vector<double>> tran;
  /// Scheduling priority value per string under the chosen rule — relative
  /// tightness T[k] for the paper's default (NaN for undeployed strings).
  std::vector<double> tightness;

  /// Estimated end-to-end latency of string k: sum of all computation and
  /// transfer estimates along the string.
  [[nodiscard]] double latency(model::StringId k) const noexcept;
};

/// Computes estimates for every deployed string of \p alloc from scratch,
/// prioritizing by \p rule (the paper's relative tightness by default).
/// This is the reference evaluator: AllocationSession maintains the same
/// values incrementally with its own fused kernels.
[[nodiscard]] TimeEstimates estimate_all(
    const model::SystemModel& model, const model::Allocation& alloc,
    PriorityRule rule = PriorityRule::kRelativeTightness);

}  // namespace tsce::analysis
