/// \file fig5_scenario3.cpp
/// Reproduces Figure 5: *system slackness* for complete mapping in a lightly
/// loaded system (scenario 3: every string fits, so only the secondary
/// metric differentiates the heuristics).
///
/// Expected shape (paper §8): PSG ~ Seeded PSG >= MWF, TF, all below the
/// fractional-mapping UB on slackness.

#include <cstdio>

#include "harness.hpp"

int main(int argc, char** argv) {
  using namespace tsce;
  bench::ScenarioBenchConfig config;
  config.scenario = workload::Scenario::kLightlyLoaded;
  config.machines = 8;
  config.strings = 13;
  bool full = false;
  util::Flags flags(
      "fig5_scenario3 — Figure 5: system slackness, complete mapping, lightly "
      "loaded system (25 strings at paper scale)");
  config.register_flags(flags);
  flags.add("full", &full, "paper-scale parameters (12 machines, 25 strings, "
                           "100 runs)");
  if (!flags.parse(argc, argv)) return 0;
  if (full) {
    config.apply_full_scale(workload::Scenario::kLightlyLoaded);
    // Re-parse so explicit flags (e.g. --runs=1) override the full-scale
    // defaults instead of being clobbered by them.
    if (!flags.parse(argc, argv)) return 0;
  }

  if (!config.validate()) return 1;

  std::printf("== Figure 5: system slackness, scenario 3 (lightly loaded) ==\n");
  std::printf("M=%lld machines, Q=%lld strings, %lld runs\n\n",
              static_cast<long long>(config.machines),
              static_cast<long long>(config.strings),
              static_cast<long long>(config.runs));
  const auto result = bench::run_scenario_bench(config, /*slackness_metric=*/true);
  bench::print_scenario_table(config, result, "system slackness", 3);
  return 0;
}
