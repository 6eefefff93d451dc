/// \file estimates.hpp
/// The from-scratch analysis of paper §3 over string graphs: utilizations,
/// eqs. (2)-(3), and shared-resource time estimates, eqs. (5)-(6).
///
/// For every deployed application the estimated computation time is its
/// nominal time plus the average waiting caused by higher-priority
/// applications sharing the CPU; transfers are estimated analogously on
/// shared routes.  Priorities follow the chosen rule (relative tightness by
/// default, see priority.hpp).  A string is a DAG of applications (footnote
/// 2); a linear string is the path graph, and the SystemModel overloads
/// analyze its lift.  This is the reference: AllocationSession maintains the
/// same values incrementally with its own fused kernels, and on chains the
/// two agree bit for bit.

#pragma once

#include <cstddef>
#include <vector>

#include "analysis/priority.hpp"
#include "model/allocation.hpp"
#include "model/dag.hpp"
#include "model/system_model.hpp"

namespace tsce::analysis {

/// Utilization term of app i of string s on machine j, eq. (2): t*u / P.
[[nodiscard]] double app_load(const dag::DagString& s, model::AppIndex i,
                              model::MachineId j) noexcept;
/// Term of edge e on route j1->j2, eq. (3): (O[e] / P) / w; 0 when j1 == j2.
[[nodiscard]] double edge_load(const model::Network& network, const dag::DagString& s,
                               std::size_t e, model::MachineId j1,
                               model::MachineId j2) noexcept;

/// Machine and route utilizations, each a left fold of its terms in the
/// order strings were added.
struct Loads {
  explicit Loads(std::size_t machines)
      : machine(machines, 0.0), route(machines * machines, 0.0) {}

  std::vector<double> machine;  ///< U_machine[j]
  std::vector<double> route;    ///< U_route[j1, j2], M x M row-major

  [[nodiscard]] double route_util(model::MachineId j1, model::MachineId j2) const noexcept {
    return route[static_cast<std::size_t>(j1) * machine.size() +
                 static_cast<std::size_t>(j2)];
  }
  /// Adds the terms of fully mapped string k: apps, then edges, in index order.
  void add_string(const dag::DagSystemModel& model, const model::Allocation& alloc,
                  model::StringId k);
  /// System slackness, eq. (7).
  [[nodiscard]] double slackness() const noexcept;
};

/// Loads of every deployed string of \p alloc, added in increasing string id.
[[nodiscard]] Loads loads_of(const dag::DagSystemModel& model,
                             const model::Allocation& alloc);

/// Per-string estimated times.  Entries for undeployed strings are empty.
struct TimeEstimates {
  /// comp[k][i] = estimated computation time of a_i^k, eq. (5).
  std::vector<std::vector<double>> comp;
  /// tran[k][e] = estimated transfer time of edge e of string k, eq. (6); on
  /// a chain, edge i carries O[i] from app i to app i + 1.
  std::vector<std::vector<double>> tran;
  /// Scheduling priority value per string under the chosen rule — relative
  /// tightness T[k] for the paper's default (NaN for undeployed strings).
  std::vector<double> tightness;
  /// End-to-end latency per string (0 if undeployed): the critical path
  /// through the estimates, summed as its computation estimates in path order
  /// and then its transfer estimates in path order — on a chain, the
  /// session's own fold.
  std::vector<double> latencies;

  [[nodiscard]] double latency(model::StringId k) const noexcept {
    return latencies[static_cast<std::size_t>(k)];
  }
};

/// Computes estimates for every deployed string of \p alloc from scratch,
/// prioritizing by \p rule (the paper's relative tightness by default).  A
/// string's relative tightness is its critical path of nominal durations on
/// the assigned resources divided by Lmax[k].
[[nodiscard]] TimeEstimates estimate_all(
    const dag::DagSystemModel& model, const model::Allocation& alloc,
    PriorityRule rule = PriorityRule::kRelativeTightness);

/// The same for linear strings, analyzed as path graphs.
[[nodiscard]] inline TimeEstimates estimate_all(
    const model::SystemModel& model, const model::Allocation& alloc,
    PriorityRule rule = PriorityRule::kRelativeTightness) {
  return estimate_all(dag::lift(model), alloc, rule);
}

}  // namespace tsce::analysis
