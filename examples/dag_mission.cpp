/// \file dag_mission.cpp
/// A fork/join mission thread modeled as a DAG string: a surveillance picture
/// fuses radar and sonar branches that process the same data set in parallel
/// before a combined classification stage — exactly the structure the paper's
/// footnote 2 anticipates for the final ARMS program.
///
///       ingest ──> radar-filter ──> radar-track ──┐
///          │                                      ├──> fuse ──> display
///          └─────> sonar-filter ──> sonar-class ──┘
///
/// The example maps the DAG with the generalized IMR, verifies the two-stage
/// feasibility, and contrasts the critical-path latency with the chain-sum
/// bound a purely linear model would have to assume.

#include <cstdio>

#include "analysis/feasibility.hpp"
#include "dag/allocator.hpp"
#include "model/dag.hpp"
#include "util/table.hpp"

int main() {
  using namespace tsce;
  dag::DagSystemModel system;
  system.network = model::Network(4);
  for (model::MachineId j1 = 0; j1 < 4; ++j1) {
    for (model::MachineId j2 = 0; j2 < 4; ++j2) {
      if (j1 != j2) system.network.set_bandwidth_mbps(j1, j2, 6.0);
    }
  }

  dag::DagString mission;
  mission.name = "surveillance-picture";
  mission.period_s = 5.0;
  mission.max_latency_s = 14.0;
  mission.worth = model::Worth::kHigh;
  const char* names[] = {"ingest",      "radar-filter", "radar-track",
                         "sonar-filter", "sonar-class",  "fuse",
                         "display"};
  const double times[] = {1.0, 2.0, 1.5, 2.5, 2.0, 1.2, 0.6};
  const double utils[] = {0.5, 0.8, 0.7, 0.8, 0.6, 0.5, 0.3};
  for (int i = 0; i < 7; ++i) {
    model::Application a;
    a.name = names[i];
    a.nominal_time_s.assign(4, times[i]);
    a.nominal_util.assign(4, utils[i]);
    mission.apps.push_back(std::move(a));
  }
  mission.edges = {
      {0, 1, 120.0},  // ingest -> radar-filter
      {0, 3, 150.0},  // ingest -> sonar-filter
      {1, 2, 60.0},   // radar-filter -> radar-track
      {3, 4, 70.0},   // sonar-filter -> sonar-class
      {2, 5, 30.0},   // radar-track -> fuse
      {4, 5, 30.0},   // sonar-class -> fuse
      {5, 6, 20.0},   // fuse -> display
  };
  system.strings.push_back(mission);

  // A background navigation chain competes for the same machines.
  dag::DagString nav;
  nav.name = "nav-chain";
  nav.period_s = 8.0;
  nav.max_latency_s = 40.0;
  nav.worth = model::Worth::kMedium;
  for (int i = 0; i < 3; ++i) {
    model::Application a;
    a.name = "nav-" + std::to_string(i);
    a.nominal_time_s.assign(4, 2.0);
    a.nominal_util.assign(4, 0.4);
    nav.apps.push_back(std::move(a));
  }
  nav.edges = {{0, 1, 40.0}, {1, 2, 40.0}};
  system.strings.push_back(nav);

  const auto problems = system.validate();
  if (!problems.empty()) {
    std::printf("model invalid: %s\n", problems.front().c_str());
    return 1;
  }

  const auto result = dag::allocate_most_worth_first(system);
  std::printf("== DAG mission allocation ==\n");
  std::printf("worth deployed: %d of %d; slackness %.3f\n\n",
              result.fitness.total_worth, system.total_worth_available(),
              result.fitness.slackness);

  util::Table table({"application", "machine"});
  for (std::size_t i = 0; i < system.strings[0].size(); ++i) {
    table.add_row({system.strings[0].apps[i].name,
                   "m" + std::to_string(result.allocation.machine_of(
                             0, static_cast<model::AppIndex>(i)))});
  }
  table.print();

  const auto est = analysis::estimate_all(system, result.allocation);
  double chain_sum = 0.0;
  for (const double c : est.comp[0]) chain_sum += c;
  for (const double t : est.tran[0]) chain_sum += t;
  const double critical = est.latency(0);
  std::printf("\nmission latency: critical path %.2f s (chain-sum bound would "
              "be %.2f s) against Lmax = %.2f s\n",
              critical, chain_sum, system.strings[0].max_latency_s);
  const auto report = analysis::check_feasibility(system, result.allocation);
  std::printf("two-stage feasibility: %s\n", report.feasible() ? "PASS" : "FAIL");
  return report.feasible() ? 0 : 1;
}
