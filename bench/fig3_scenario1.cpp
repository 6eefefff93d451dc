/// \file fig3_scenario1.cpp
/// Reproduces Figure 3: total worth of allocated strings for each heuristic
/// and the LP upper bound under *partial mapping in a highly loaded system*
/// (scenario 1: relaxed QoS, hardware capacity binds first).
///
/// Expected shape (paper §8): PSG ~ Seeded PSG > MWF, TF; UB above all; the
/// heuristic-to-UB gap is smaller than in scenario 2.

#include <cstdio>

#include "harness.hpp"

int main(int argc, char** argv) {
  using namespace tsce;
  bench::ScenarioBenchConfig config;
  config.scenario = workload::Scenario::kHighlyLoaded;
  bool full = false;
  util::Flags flags(
      "fig3_scenario1 — Figure 3: total worth, partial mapping, highly loaded "
      "system (150 strings at paper scale; defaults reduced for speed)");
  config.register_flags(flags);
  flags.add("full", &full, "paper-scale parameters (12 machines, 150 strings, "
                           "100 runs, full PSG budget; very slow)");
  if (!flags.parse(argc, argv)) return 0;
  if (full) {
    config.apply_full_scale(workload::Scenario::kHighlyLoaded);
    // Re-parse so explicit flags (e.g. --runs=1) override the full-scale
    // defaults instead of being clobbered by them.
    if (!flags.parse(argc, argv)) return 0;
  }

  if (!config.validate()) return 1;

  std::printf("== Figure 3: total worth, scenario 1 (highly loaded) ==\n");
  std::printf("M=%lld machines, Q=%lld strings, %lld runs\n\n",
              static_cast<long long>(config.machines),
              static_cast<long long>(config.strings),
              static_cast<long long>(config.runs));
  const auto result = bench::run_scenario_bench(config, /*slackness_metric=*/false);
  bench::print_scenario_table(config, result, "total worth", 1);
  return 0;
}
