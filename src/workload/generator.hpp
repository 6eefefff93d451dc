/// \file generator.hpp
/// Synthetic workload generation for the three simulation scenarios
/// (paper §6, §8, Table 1).
///
/// Hardware: a heterogeneous suite of M machines; every inter-machine route
/// bandwidth is sampled uniformly from [1, 10] Mb/s; intra-machine routes are
/// infinite.  Workload: strings of 1..10 applications with nominal execution
/// times U[1,10] s and nominal CPU utilizations U[0.1,1] per (app, machine)
/// pair, output sizes U[10,100] KB, and worth drawn uniformly from
/// {1, 10, 100} (the paper does not specify the worth distribution; this
/// choice is documented in DESIGN.md).  Latency and period constraints follow
/// the §8 formulas with per-string multipliers mu sampled from the Table 1
/// ranges.

#pragma once

#include <cstddef>

#include "model/system_model.hpp"
#include "util/rng.hpp"

namespace tsce::workload {

/// The paper's three workload scenarios.
enum class Scenario {
  kHighlyLoaded = 1,  ///< 150 strings, relaxed QoS: hardware capacity binds first
  kQosLimited = 2,    ///< 150 strings, tight QoS: eq. (1) binds before capacity
  kLightlyLoaded = 3, ///< 25 strings, relaxed QoS: complete mapping achievable
};

/// Task-machine heterogeneity model (Ali et al. [5], cited by the paper).
enum class Heterogeneity {
  /// Independent draw per (application, machine) pair: a machine fast for one
  /// application may be slow for another (the paper's implicit model).
  kInconsistent,
  /// Each machine has a speed factor: if machine A is faster than B for one
  /// application, it is faster for all of them.
  kConsistent,
};

struct GeneratorConfig {
  std::size_t num_machines = 12;
  std::size_t num_strings = 150;
  std::size_t min_apps_per_string = 1;
  std::size_t max_apps_per_string = 10;
  /// Machines are grouped into pools of this size; machines within a pool are
  /// identical (same nominal time/utilization per application).  The paper's
  /// footnote 1 notes resources will be divided into pools in the final ARMS
  /// system and assumes one machine per pool — the default here.
  /// num_machines need not be a multiple; the last pool is smaller.
  std::size_t machines_per_pool = 1;
  /// Heterogeneity structure of the nominal execution times.
  Heterogeneity heterogeneity = Heterogeneity::kInconsistent;
  /// Machine speed-factor range for kConsistent (nominal time = base * factor).
  double speed_factor_min = 0.5;
  double speed_factor_max = 1.5;

  double bandwidth_min_mbps = 1.0;
  double bandwidth_max_mbps = 10.0;
  double time_min_s = 1.0;
  double time_max_s = 10.0;
  double util_min = 0.1;
  double util_max = 1.0;
  double output_min_kbytes = 10.0;
  double output_max_kbytes = 100.0;

  /// Table 1: mu range for the end-to-end latency constraint Lmax[k].
  double mu_latency_min = 4.0;
  double mu_latency_max = 6.0;
  /// Table 1: mu range for the period P[k].
  double mu_period_min = 3.0;
  double mu_period_max = 4.5;

  /// Paper-scale configuration for a scenario.  \p string_scale rescales the
  /// string count (e.g. 0.4 for faster bench defaults) without touching any
  /// other parameter.
  [[nodiscard]] static GeneratorConfig for_scenario(Scenario scenario,
                                                    double string_scale = 1.0);
};

/// Draws a complete random TSCE instance.  Deterministic given \p rng state.
/// Throws std::invalid_argument when \p config has no machines, allows
/// strings with no applications, or has min_apps_per_string above
/// max_apps_per_string.
[[nodiscard]] model::SystemModel generate(const GeneratorConfig& config,
                                          util::Rng& rng);

/// The §8 latency-bound formula: mu times the average nominal end-to-end time
/// (average execution per app plus average transfer per output).
[[nodiscard]] double latency_bound(const model::SystemModel& model,
                                   const model::AppString& s, double mu);

/// The §8 period formula: mu times the largest average nominal execution or
/// transfer time along the string.
[[nodiscard]] double period_bound(const model::SystemModel& model,
                                  const model::AppString& s, double mu);

}  // namespace tsce::workload
