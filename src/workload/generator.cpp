#include "workload/generator.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <string>

namespace tsce::workload {

using model::AppString;
using model::SystemModel;
using model::Worth;

GeneratorConfig GeneratorConfig::for_scenario(Scenario scenario, double string_scale) {
  GeneratorConfig c;
  switch (scenario) {
    case Scenario::kHighlyLoaded:
      c.num_strings = 150;
      c.mu_latency_min = 4.0;
      c.mu_latency_max = 6.0;
      c.mu_period_min = 3.0;
      c.mu_period_max = 4.5;
      break;
    case Scenario::kQosLimited:
      c.num_strings = 150;
      c.mu_latency_min = 1.25;
      c.mu_latency_max = 2.75;
      c.mu_period_min = 1.5;
      c.mu_period_max = 2.5;
      break;
    case Scenario::kLightlyLoaded:
      c.num_strings = 25;
      c.mu_latency_min = 4.0;
      c.mu_latency_max = 6.0;
      c.mu_period_min = 3.0;
      c.mu_period_max = 4.5;
      break;
  }
  c.num_strings = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(
             static_cast<double>(c.num_strings) * string_scale)));
  return c;
}

double latency_bound(const SystemModel& model, const AppString& s, double mu) {
  double nominal = 0.0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    nominal += s.apps[i].avg_time_s();
    if (i + 1 < s.size()) {
      nominal += model.network.avg_transfer_s(s.apps[i].output_kbytes);
    }
  }
  return mu * nominal;
}

double period_bound(const SystemModel& model, const AppString& s, double mu) {
  double longest = 0.0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    longest = std::max(longest, s.apps[i].avg_time_s());
    if (i + 1 < s.size()) {
      longest = std::max(longest,
                         model.network.avg_transfer_s(s.apps[i].output_kbytes));
    }
  }
  return mu * longest;
}

SystemModel generate(const GeneratorConfig& config, util::Rng& rng) {
  if (config.num_machines == 0) {
    throw std::invalid_argument("workload::generate: num_machines must be >= 1");
  }
  if (config.min_apps_per_string == 0) {
    throw std::invalid_argument(
        "workload::generate: min_apps_per_string must be >= 1");
  }
  if (config.min_apps_per_string > config.max_apps_per_string) {
    throw std::invalid_argument(
        "workload::generate: min_apps_per_string (" +
        std::to_string(config.min_apps_per_string) +
        ") exceeds max_apps_per_string (" +
        std::to_string(config.max_apps_per_string) + ")");
  }
  SystemModel model;
  model.network = model::Network(config.num_machines);
  const auto m = static_cast<model::MachineId>(config.num_machines);
  for (model::MachineId j1 = 0; j1 < m; ++j1) {
    for (model::MachineId j2 = 0; j2 < m; ++j2) {
      if (j1 != j2) {
        model.network.set_bandwidth_mbps(
            j1, j2, rng.uniform(config.bandwidth_min_mbps, config.bandwidth_max_mbps));
      }
    }
  }

  static constexpr std::array<Worth, 3> kWorths = {Worth::kLow, Worth::kMedium,
                                                   Worth::kHigh};
  // Per-machine speed factors for the consistent heterogeneity model; every
  // pool shares one factor so pools remain internally identical.
  std::vector<double> speed(config.num_machines, 1.0);
  if (config.heterogeneity == Heterogeneity::kConsistent) {
    const std::size_t pool = std::max<std::size_t>(1, config.machines_per_pool);
    for (std::size_t j = 0; j < config.num_machines; ++j) {
      speed[j] = j % pool == 0
                     ? rng.uniform(config.speed_factor_min, config.speed_factor_max)
                     : speed[j - 1];
    }
  }
  model.strings.reserve(config.num_strings);
  for (std::size_t k = 0; k < config.num_strings; ++k) {
    AppString s;
    const auto n = static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::int64_t>(config.min_apps_per_string),
                        static_cast<std::int64_t>(config.max_apps_per_string)));
    s.apps.resize(n);
    const std::size_t pool = std::max<std::size_t>(1, config.machines_per_pool);
    for (std::size_t i = 0; i < n; ++i) {
      auto& a = s.apps[i];
      a.nominal_time_s.resize(config.num_machines);
      a.nominal_util.resize(config.num_machines);
      const double base_time =
          config.heterogeneity == Heterogeneity::kConsistent
              ? rng.uniform(config.time_min_s, config.time_max_s)
              : 0.0;
      for (std::size_t j = 0; j < config.num_machines; ++j) {
        if (j % pool == 0) {
          // First machine of a pool draws fresh values; the rest of the pool
          // replicates them (machines within a pool are identical).
          a.nominal_time_s[j] =
              config.heterogeneity == Heterogeneity::kConsistent
                  ? base_time * speed[j]
                  : rng.uniform(config.time_min_s, config.time_max_s);
          a.nominal_util[j] = rng.uniform(config.util_min, config.util_max);
        } else {
          a.nominal_time_s[j] = a.nominal_time_s[j - 1];
          a.nominal_util[j] = a.nominal_util[j - 1];
        }
      }
      // The final application's output feeds actuators, not a route (eq. 3
      // sums transfers up to n_k - 1), so it carries no modeled output.
      a.output_kbytes =
          i + 1 < n ? rng.uniform(config.output_min_kbytes, config.output_max_kbytes)
                    : 0.0;
    }
    s.worth = kWorths[rng.bounded(kWorths.size())];
    s.max_latency_s = latency_bound(
        model, s, rng.uniform(config.mu_latency_min, config.mu_latency_max));
    s.period_s =
        period_bound(model, s, rng.uniform(config.mu_period_min, config.mu_period_max));
    model.strings.push_back(std::move(s));
  }
  return model;
}

}  // namespace tsce::workload
