#include "analysis/feasibility.hpp"

#include <cstdio>

namespace tsce::analysis {

using model::Allocation;
using model::MachineId;
using model::StringId;

std::string Violation::to_string() const {
  char buf[160];
  switch (kind) {
    case ViolationKind::kMachineOverload:
      std::snprintf(buf, sizeof(buf), "machine %d overloaded: U=%.4f > 1", j1, value);
      break;
    case ViolationKind::kRouteOverload:
      std::snprintf(buf, sizeof(buf), "route %d->%d overloaded: U=%.4f > 1", j1, j2,
                    value);
      break;
    case ViolationKind::kCompThroughput:
      std::snprintf(buf, sizeof(buf),
                    "string %d app %d: t_comp=%.4f > P=%.4f (throughput)", k, i,
                    value, bound);
      break;
    case ViolationKind::kTranThroughput:
      std::snprintf(buf, sizeof(buf),
                    "string %d transfer %d: t_tran=%.4f > P=%.4f (throughput)", k, i,
                    value, bound);
      break;
    case ViolationKind::kLatency:
      std::snprintf(buf, sizeof(buf), "string %d: latency=%.4f > Lmax=%.4f", k,
                    value, bound);
      break;
  }
  return buf;
}

namespace {

/// Records \p v, clearing \p stage_ok, unless its value is within its bound.
void check(FeasibilityReport& report, bool& stage_ok, const Violation& v) {
  if (within(v.value, v.bound)) return;
  stage_ok = false;
  report.violations.push_back(v);
}

/// Stage one, eqs. (2)-(3): every machine and route load is at most 1.
void check_stage_one(const Loads& loads, FeasibilityReport& report) {
  const auto m = static_cast<MachineId>(loads.machine.size());
  for (MachineId j = 0; j < m; ++j) {
    check(report, report.stage_one_ok,
          {.kind = ViolationKind::kMachineOverload, .j1 = j,
           .value = loads.machine[static_cast<std::size_t>(j)], .bound = 1.0});
  }
  for (MachineId j1 = 0; j1 < m; ++j1) {
    for (MachineId j2 = 0; j2 < m; ++j2) {
      if (j1 == j2) continue;
      check(report, report.stage_one_ok,
            {.kind = ViolationKind::kRouteOverload, .j1 = j1, .j2 = j2,
             .value = loads.route_util(j1, j2), .bound = 1.0});
    }
  }
}

/// Stage two, eq. (1) on the eqs. (5)-(6) estimates: throughput per app and
/// transfer, and end-to-end latency per deployed string.
void check_stage_two(const dag::DagSystemModel& model, const Allocation& alloc,
                     const TimeEstimates& est, FeasibilityReport& report) {
  for (std::size_t k = 0; k < model.num_strings(); ++k) {
    const auto kid = static_cast<StringId>(k);
    if (!alloc.deployed(kid)) continue;
    const double p = model.strings[k].period_s;
    for (std::size_t i = 0; i < est.comp[k].size(); ++i) {
      check(report, report.stage_two_ok,
            {.kind = ViolationKind::kCompThroughput, .k = kid,
             .i = static_cast<model::AppIndex>(i), .value = est.comp[k][i], .bound = p});
    }
    for (std::size_t i = 0; i < est.tran[k].size(); ++i) {
      check(report, report.stage_two_ok,
            {.kind = ViolationKind::kTranThroughput, .k = kid,
             .i = static_cast<model::AppIndex>(i), .value = est.tran[k][i], .bound = p});
    }
    check(report, report.stage_two_ok,
          {.kind = ViolationKind::kLatency, .k = kid, .value = est.latency(kid),
           .bound = model.strings[k].max_latency_s});
  }
}

}  // namespace

FeasibilityReport check_feasibility(const dag::DagSystemModel& model,
                                    const Allocation& alloc, PriorityRule rule) {
  FeasibilityReport report;
  check_stage_one(loads_of(model, alloc), report);
  check_stage_two(model, alloc, estimate_all(model, alloc, rule), report);
  return report;
}

}  // namespace tsce::analysis
