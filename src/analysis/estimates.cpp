#include "analysis/estimates.hpp"

#include <algorithm>
#include <limits>

#include "analysis/tightness.hpp"

namespace tsce::analysis {

using dag::DagString;
using dag::DagSystemModel;
using model::Allocation;
using model::AppIndex;
using model::MachineId;
using model::StringId;

double app_load(const DagString& s, AppIndex i, MachineId j) noexcept {
  return s.apps[static_cast<std::size_t>(i)].cpu_work(static_cast<std::size_t>(j)) /
         s.period_s;
}

double edge_load(const model::Network& network, const DagString& s, std::size_t e,
                 MachineId j1, MachineId j2) noexcept {
  if (j1 == j2) return 0.0;  // intra-machine: infinite bandwidth
  const double mbps = model::kbytes_to_megabits(s.edges[e].output_kbytes) / s.period_s;
  return mbps / network.bandwidth_mbps(j1, j2);
}

void Loads::add_string(const DagSystemModel& model, const Allocation& alloc,
                       StringId k) {
  const DagString& s = model.strings[static_cast<std::size_t>(k)];
  for (std::size_t i = 0; i < s.size(); ++i) {
    const MachineId j = alloc.machine_of(k, static_cast<AppIndex>(i));
    machine[static_cast<std::size_t>(j)] += app_load(s, static_cast<AppIndex>(i), j);
  }
  for (std::size_t e = 0; e < s.edges.size(); ++e) {
    const MachineId j1 = alloc.machine_of(k, s.edges[e].from);
    const MachineId j2 = alloc.machine_of(k, s.edges[e].to);
    if (j1 != j2) {
      route[static_cast<std::size_t>(j1) * machine.size() + static_cast<std::size_t>(j2)] +=
          edge_load(model.network, s, e, j1, j2);
    }
  }
}

double Loads::slackness() const noexcept {
  double min_slack = 1.0;
  for (const double u : machine) min_slack = std::min(min_slack, 1.0 - u);
  for (const double u : route) min_slack = std::min(min_slack, 1.0 - u);
  return min_slack;
}

Loads loads_of(const DagSystemModel& model, const Allocation& alloc) {
  Loads loads(model.num_machines());
  for (std::size_t k = 0; k < model.num_strings(); ++k) {
    if (alloc.deployed(static_cast<StringId>(k))) {
      loads.add_string(model, alloc, static_cast<StringId>(k));
    }
  }
  return loads;
}

namespace {

/// Scheduling priority of a deployed string under \p rule (priority.hpp),
/// given its relative tightness, eq. (4).
double priority_value(const DagString& s, PriorityRule rule, double tightness) {
  switch (rule) {
    case PriorityRule::kRelativeTightness:
      return tightness;
    case PriorityRule::kRateMonotonic:
      return 1.0 / s.period_s;
    case PriorityRule::kWorth:
      return static_cast<double>(s.worth_factor());
  }
  return 0.0;
}

/// Reference to app i (or edge i) of string k resident on a resource.
struct Resident {
  StringId k;
  std::size_t i;
};

}  // namespace

TimeEstimates estimate_all(const DagSystemModel& model, const Allocation& alloc,
                           PriorityRule rule) {
  const std::size_t q = model.num_strings();
  const std::size_t m = model.num_machines();
  TimeEstimates est;
  est.comp.resize(q);
  est.tran.resize(q);
  est.tightness.assign(q, std::numeric_limits<double>::quiet_NaN());
  est.latencies.assign(q, 0.0);

  // Nominal (no-sharing) durations on the assigned resources, which are the
  // base terms of eqs. (5)-(6); priorities; and the resident sets: apps per
  // machine, transfers per route, each in increasing string id, then app or
  // edge index.  Relative tightness is the critical path of the nominal
  // durations over Lmax[k].
  std::vector<std::vector<Resident>> machine_apps(m);
  std::vector<std::vector<Resident>> route_edges(m * m);
  for (std::size_t k = 0; k < q; ++k) {
    const auto kid = static_cast<StringId>(k);
    if (!alloc.deployed(kid)) continue;
    const DagString& s = model.strings[k];
    auto& comp = est.comp[k];
    auto& tran = est.tran[k];
    comp.resize(s.size());
    tran.resize(s.edges.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
      const auto j = static_cast<std::size_t>(alloc.machine_of(kid, static_cast<AppIndex>(i)));
      comp[i] = s.apps[i].nominal_time_s[j];
      machine_apps[j].push_back({kid, i});
    }
    for (std::size_t e = 0; e < s.edges.size(); ++e) {
      const MachineId j1 = alloc.machine_of(kid, s.edges[e].from);
      const MachineId j2 = alloc.machine_of(kid, s.edges[e].to);
      tran[e] = model.network.transfer_s(s.edges[e].output_kbytes, j1, j2);
      if (j1 != j2) {
        route_edges[static_cast<std::size_t>(j1) * m + static_cast<std::size_t>(j2)]
            .push_back({kid, e});
      }
    }
    est.tightness[k] =
        priority_value(s, rule, s.critical_path(comp, tran).length / s.max_latency_s);
  }

  for (std::size_t k = 0; k < q; ++k) {
    const auto kid = static_cast<StringId>(k);
    if (!alloc.deployed(kid)) continue;
    const DagString& s = model.strings[k];
    const double t_k = est.tightness[k];
    auto& comp = est.comp[k];
    auto& tran = est.tran[k];
    // A resident of another string delays us when its priority is higher;
    // same-string residents share one priority.
    auto preempts = [&](const Resident& ref) {
      return ref.k != kid &&
             higher_priority(est.tightness[static_cast<std::size_t>(ref.k)], ref.k, t_k, kid);
    };
    // Average waiting, eq. (5): each higher-priority data set of app p
    // (string z) on the same machine delays us by its CPU work t[p,j]*u[p,j],
    // scaled by how many of its periods overlap one of ours (P[k]/P[z]); see
    // Figure 2 cases 1-3.
    for (std::size_t i = 0; i < s.size(); ++i) {
      const auto j = static_cast<std::size_t>(alloc.machine_of(kid, static_cast<AppIndex>(i)));
      for (const Resident& ref : machine_apps[j]) {
        if (!preempts(ref)) continue;
        const DagString& sz = model.strings[static_cast<std::size_t>(ref.k)];
        comp[i] += (s.period_s / sz.period_s) * sz.apps[ref.i].cpu_work(j);
      }
    }
    // Eq. (6), the same on the route an edge crosses; 0 within a machine.
    for (std::size_t e = 0; e < s.edges.size(); ++e) {
      const MachineId j1 = alloc.machine_of(kid, s.edges[e].from);
      const MachineId j2 = alloc.machine_of(kid, s.edges[e].to);
      if (j1 == j2) {
        tran[e] = 0.0;
        continue;
      }
      const double w = model.network.bandwidth_mbps(j1, j2);
      for (const Resident& ref :
           route_edges[static_cast<std::size_t>(j1) * m + static_cast<std::size_t>(j2)]) {
        if (!preempts(ref)) continue;
        const DagString& sz = model.strings[static_cast<std::size_t>(ref.k)];
        tran[e] += (s.period_s / sz.period_s) *
                   model::kbytes_to_megabits(sz.edges[ref.i].output_kbytes) / w;
      }
    }
    // Latency: the critical path's computation estimates in path order, then
    // its transfer estimates in path order.
    const dag::CriticalPath path = s.critical_path(comp, tran);
    double latency = 0.0;
    for (const AppIndex i : path.apps) latency += comp[static_cast<std::size_t>(i)];
    for (const std::size_t e : path.edges) latency += tran[e];
    est.latencies[k] = latency;
  }
  return est;
}

}  // namespace tsce::analysis
