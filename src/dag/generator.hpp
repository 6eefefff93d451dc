/// \file generator.hpp
/// Random DAG workload generation mirroring the paper's §6 parameter ranges:
/// nominal times U[1,10] s, utilizations U[0.1,1], outputs U[10,100] KB,
/// route bandwidths U[1,10] Mb/s, worth uniform over {1,10,100}.  Graph
/// shape: a random spanning tree (every app after the first receives one
/// incoming edge from a uniformly chosen earlier app) plus extra forward
/// edges with a configurable probability.  Period and latency bounds reuse
/// the §8 formulas with the longest stage / critical path of averages.

#pragma once

#include "model/dag.hpp"
#include "util/rng.hpp"

namespace tsce::dag {

struct DagGeneratorConfig {
  std::size_t num_machines = 6;
  std::size_t num_strings = 10;
  std::size_t min_apps = 2;
  std::size_t max_apps = 8;
  /// Probability of each extra forward edge (i, j), i < j, beyond the tree.
  double extra_edge_prob = 0.15;

  double bandwidth_min_mbps = 1.0;
  double bandwidth_max_mbps = 10.0;
  double time_min_s = 1.0;
  double time_max_s = 10.0;
  double util_min = 0.1;
  double util_max = 1.0;
  double output_min_kbytes = 10.0;
  double output_max_kbytes = 100.0;
  double mu_latency_min = 4.0;
  double mu_latency_max = 6.0;
  double mu_period_min = 3.0;
  double mu_period_max = 4.5;
};

[[nodiscard]] DagSystemModel generate_dag_system(const DagGeneratorConfig& config,
                                                 util::Rng& rng);

}  // namespace tsce::dag
