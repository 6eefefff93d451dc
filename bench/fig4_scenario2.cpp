/// \file fig4_scenario2.cpp
/// Reproduces Figure 4: total worth for *partial mapping in a QoS-limited
/// system* (scenario 2: tight throughput/latency constraints stop the
/// allocation before any hardware resource saturates).
///
/// Expected shape (paper §8): same ordering as Figure 3, but the largest
/// heuristic-to-UB gap of the three scenarios — the LP bound only enforces
/// stage-one capacity, so tight QoS hurts the heuristics more than the bound.

#include <cstdio>

#include "harness.hpp"

int main(int argc, char** argv) {
  using namespace tsce;
  bench::ScenarioBenchConfig config;
  config.scenario = workload::Scenario::kQosLimited;
  bool full = false;
  util::Flags flags(
      "fig4_scenario2 — Figure 4: total worth, partial mapping, QoS-limited "
      "system (tight Table 1 mu ranges)");
  config.register_flags(flags);
  flags.add("full", &full, "paper-scale parameters (very slow)");
  if (!flags.parse(argc, argv)) return 0;
  if (full) {
    config.apply_full_scale(workload::Scenario::kQosLimited);
    // Re-parse so explicit flags (e.g. --runs=1) override the full-scale
    // defaults instead of being clobbered by them.
    if (!flags.parse(argc, argv)) return 0;
  }

  if (!config.validate()) return 1;

  std::printf("== Figure 4: total worth, scenario 2 (QoS-limited) ==\n");
  std::printf("M=%lld machines, Q=%lld strings, %lld runs\n\n",
              static_cast<long long>(config.machines),
              static_cast<long long>(config.strings),
              static_cast<long long>(config.runs));
  const auto result = bench::run_scenario_bench(config, /*slackness_metric=*/false);
  bench::print_scenario_table(config, result, "total worth", 1);
  return 0;
}
