#include "dag/generator.hpp"

#include <algorithm>
#include <array>

namespace tsce::dag {

namespace {

/// Critical path of per-app average times plus per-edge average transfer
/// times — the DAG analogue of the §8 nominal end-to-end time.
double average_critical_path(const DagString& s, const model::Network& network) {
  const double inv_w = network.avg_inverse_bandwidth();
  std::vector<double> comp(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) comp[i] = s.apps[i].avg_time_s();
  std::vector<double> tran(s.edges.size());
  for (std::size_t e = 0; e < s.edges.size(); ++e) {
    tran[e] = model::kbytes_to_megabits(s.edges[e].output_kbytes) * inv_w;
  }
  return s.critical_path(comp, tran).length;
}

double longest_average_stage(const DagString& s, const model::Network& network) {
  const double inv_w = network.avg_inverse_bandwidth();
  double longest = 0.0;
  for (const auto& a : s.apps) longest = std::max(longest, a.avg_time_s());
  for (const auto& e : s.edges) {
    longest = std::max(longest, model::kbytes_to_megabits(e.output_kbytes) * inv_w);
  }
  return longest;
}

}  // namespace

DagSystemModel generate_dag_system(const DagGeneratorConfig& config,
                                   util::Rng& rng) {
  DagSystemModel model;
  model.network = model::Network(config.num_machines);
  const auto machines = static_cast<MachineId>(config.num_machines);
  for (MachineId j1 = 0; j1 < machines; ++j1) {
    for (MachineId j2 = 0; j2 < machines; ++j2) {
      if (j1 != j2) {
        model.network.set_bandwidth_mbps(
            j1, j2, rng.uniform(config.bandwidth_min_mbps, config.bandwidth_max_mbps));
      }
    }
  }

  static constexpr std::array<model::Worth, 3> kWorths = {
      model::Worth::kLow, model::Worth::kMedium, model::Worth::kHigh};
  model.strings.reserve(config.num_strings);
  for (std::size_t k = 0; k < config.num_strings; ++k) {
    DagString s;
    const auto n = static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::int64_t>(config.min_apps),
                        static_cast<std::int64_t>(config.max_apps)));
    s.apps.resize(n);
    for (auto& a : s.apps) {
      a.nominal_time_s.resize(config.num_machines);
      a.nominal_util.resize(config.num_machines);
      for (std::size_t j = 0; j < config.num_machines; ++j) {
        a.nominal_time_s[j] = rng.uniform(config.time_min_s, config.time_max_s);
        a.nominal_util[j] = rng.uniform(config.util_min, config.util_max);
      }
    }
    // Spanning tree over indices (guarantees weak connectivity, acyclic by
    // construction because edges always point from lower to higher index).
    for (std::size_t i = 1; i < n; ++i) {
      const auto parent = static_cast<AppIndex>(rng.bounded(i));
      s.edges.push_back({parent, static_cast<AppIndex>(i),
                         rng.uniform(config.output_min_kbytes,
                                     config.output_max_kbytes)});
    }
    for (std::size_t i = 0; i + 1 < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        if (!rng.bernoulli(config.extra_edge_prob)) continue;
        const bool exists =
            std::any_of(s.edges.begin(), s.edges.end(), [&](const DagEdge& e) {
              return e.from == static_cast<AppIndex>(i) &&
                     e.to == static_cast<AppIndex>(j);
            });
        if (!exists) {
          s.edges.push_back({static_cast<AppIndex>(i), static_cast<AppIndex>(j),
                             rng.uniform(config.output_min_kbytes,
                                         config.output_max_kbytes)});
        }
      }
    }
    s.worth = kWorths[rng.bounded(kWorths.size())];
    s.max_latency_s = rng.uniform(config.mu_latency_min, config.mu_latency_max) *
                      average_critical_path(s, model.network);
    s.period_s = rng.uniform(config.mu_period_min, config.mu_period_max) *
                 longest_average_stage(s, model.network);
    model.strings.push_back(std::move(s));
  }
  return model;
}

}  // namespace tsce::dag
