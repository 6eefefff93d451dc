/// \file feasibility.hpp
/// The two-stage allocation feasibility analysis (paper §3).
///
/// Stage one: every machine and route utilization is at most 1 (eqs. 2-3).
/// Stage two: with local scheduling prioritized by relative tightness, the
/// estimated computation/transfer times (eqs. 5-6) satisfy the throughput and
/// end-to-end latency constraints (eq. 1) for every deployed string.  Both
/// stages read the one from-scratch reference of estimates.hpp, for chains
/// and DAG strings alike.

#pragma once

#include <string>
#include <vector>

#include "analysis/estimates.hpp"
#include "model/allocation.hpp"
#include "model/system_model.hpp"

namespace tsce::analysis {

/// Numerical tolerance used by all feasibility comparisons: a constraint
/// c <= bound passes when c <= bound * (1 + kFeasibilityEps) + kFeasibilityEps.
inline constexpr double kFeasibilityEps = 1e-9;

[[nodiscard]] constexpr bool within(double value, double bound) noexcept {
  return value <= bound * (1.0 + kFeasibilityEps) + kFeasibilityEps;
}

enum class ViolationKind {
  kMachineOverload,   ///< stage 1: U_machine[j] > 1
  kRouteOverload,     ///< stage 1: U_route[j1,j2] > 1
  kCompThroughput,    ///< stage 2: t_comp > P[k]
  kTranThroughput,    ///< stage 2: t_tran > P[k]
  kLatency,           ///< stage 2: end-to-end estimate > Lmax[k]
};

struct Violation {
  ViolationKind kind;
  model::StringId k = model::kInvalidId;    ///< offending string (stage 2) or invalid
  model::AppIndex i = model::kInvalidId;    ///< offending app/transfer or invalid
  model::MachineId j1 = model::kInvalidId;  ///< machine (stage 1) or route source
  model::MachineId j2 = model::kInvalidId;  ///< route destination (routes only)
  double value = 0.0;         ///< measured quantity
  double bound = 0.0;         ///< violated bound

  [[nodiscard]] std::string to_string() const;
};

struct FeasibilityReport {
  bool stage_one_ok = true;
  bool stage_two_ok = true;
  std::vector<Violation> violations;

  [[nodiscard]] bool feasible() const noexcept { return stage_one_ok && stage_two_ok; }
};

/// Full two-stage analysis of \p alloc from scratch.  Both stages always run
/// so the report lists all violations.  \p rule selects the local-scheduler
/// priority policy stage two assumes (paper default: relative tightness).
/// Stage two bounds each string's critical-path latency (estimates.hpp).
[[nodiscard]] FeasibilityReport check_feasibility(
    const dag::DagSystemModel& model, const model::Allocation& alloc,
    PriorityRule rule = PriorityRule::kRelativeTightness);

/// The same for linear strings, analyzed as path graphs.
[[nodiscard]] inline FeasibilityReport check_feasibility(
    const model::SystemModel& model, const model::Allocation& alloc,
    PriorityRule rule = PriorityRule::kRelativeTightness) {
  return check_feasibility(dag::lift(model), alloc, rule);
}

}  // namespace tsce::analysis
