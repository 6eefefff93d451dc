/// \file tsce_cli.cpp
/// The "interactive software application" of §8: a command-line front end
/// that generates a workload (scenario, machine count, string count, max
/// applications per string), runs a chosen heuristic, and reports the
/// allocation, metrics, optional LP upper bound, and an optional simulation.
///
///   tsce_cli --scenario=1 --machines=6 --strings=20 --heuristic=seeded-psg
///   tsce_cli --scenario=3 --heuristic=mwf --ub --simulate

#include <cstdio>
#include <memory>
#include <string>

#include "analysis/feasibility.hpp"
#include "core/baselines.hpp"
#include "core/ordered.hpp"
#include "core/psg.hpp"
#include "lp/upper_bound.hpp"
#include "model/serialization.hpp"
#include "sim/simulator.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"
#include "workload/generator.hpp"

namespace {

tsce::core::AllocatorPtr make_allocator(const std::string& name,
                                        const tsce::core::PsgOptions& psg) {
  using namespace tsce::core;
  if (name == "mwf") return std::make_unique<MostWorthFirst>();
  if (name == "tf") return std::make_unique<TightestFirst>();
  if (name == "psg") return std::make_unique<Psg>(psg);
  if (name == "seeded-psg") return std::make_unique<SeededPsg>(psg);
  if (name == "random") return std::make_unique<RandomOrder>();
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tsce;
  std::int64_t scenario = 1;
  std::int64_t machines = 6;
  std::int64_t strings = 20;
  std::int64_t max_apps = 10;
  std::int64_t seed = 1;
  std::string heuristic = "seeded-psg";
  bool with_ub = false;
  bool with_sim = false;
  bool print_mapping = true;
  std::int64_t psg_iterations = 300;
  std::string load_model_path;
  std::string save_model_path;
  std::string save_allocation_path;
  util::Flags flags(
      "tsce_cli — generate a TSCE workload, allocate it, and report the "
      "metrics (the paper's interactive simulation application, §8)");
  flags.add("scenario", &scenario, "workload scenario 1|2|3 (Table 1)");
  flags.add("machines", &machines, "machine count M");
  flags.add("strings", &strings, "string count Q");
  flags.add("max-apps", &max_apps, "max applications per string");
  flags.add("seed", &seed, "RNG seed");
  flags.add("heuristic", &heuristic, "mwf|tf|psg|seeded-psg|random");
  flags.add("ub", &with_ub, "also compute the LP upper bound");
  flags.add("simulate", &with_sim, "validate the allocation in the simulator");
  flags.add("mapping", &print_mapping, "print the full mapping");
  flags.add("psg-iterations", &psg_iterations, "PSG iteration budget");
  flags.add("load-model", &load_model_path,
            "load the system model from this JSON file instead of generating");
  flags.add("save-model", &save_model_path,
            "write the (generated or loaded) system model to this JSON file");
  flags.add("save-allocation", &save_allocation_path,
            "write the resulting allocation to this JSON file");
  if (!flags.parse(argc, argv)) return 0;
  if (scenario < 1 || scenario > 3) {
    std::fprintf(stderr, "error: --scenario must be 1, 2 or 3\n");
    return 1;
  }
  if (!util::flag_at_least("machines", machines, 1) ||
      !util::flag_at_least("strings", strings, 1) ||
      !util::flag_at_least("max-apps", max_apps, 1) ||
      !util::flag_at_least("psg-iterations", psg_iterations, 0)) {
    return 1;
  }

  model::SystemModel m;
  if (!load_model_path.empty()) {
    try {
      m = model::load_system_model(load_model_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  } else {
    auto config = workload::GeneratorConfig::for_scenario(
        static_cast<workload::Scenario>(scenario));
    config.num_machines = static_cast<std::size_t>(machines);
    config.num_strings = static_cast<std::size_t>(strings);
    config.max_apps_per_string = static_cast<std::size_t>(max_apps);
    util::Rng rng(static_cast<std::uint64_t>(seed));
    m = workload::generate(config, rng);
  }
  if (!save_model_path.empty()) {
    model::save_system_model(save_model_path, m);
    std::printf("model written to %s\n", save_model_path.c_str());
  }

  core::PsgOptions psg_options;
  psg_options.ga.population_size = 60;
  psg_options.ga.max_iterations = static_cast<std::size_t>(psg_iterations);
  psg_options.ga.stagnation_limit = static_cast<std::size_t>(psg_iterations / 2);
  psg_options.trials = 2;
  const auto allocator = make_allocator(heuristic, psg_options);
  if (!allocator) {
    std::fprintf(stderr, "error: unknown heuristic '%s'\n", heuristic.c_str());
    return 1;
  }

  std::printf("scenario %lld: M=%zu machines, Q=%zu strings, %zu apps, worth "
              "available %d\n",
              static_cast<long long>(scenario), m.num_machines(), m.num_strings(),
              m.num_apps(), m.total_worth_available());
  util::Rng search_rng(static_cast<std::uint64_t>(seed) + 1);
  const auto result = allocator->allocate(m, search_rng);
  std::printf("heuristic %s: worth %d of %d deployed (%zu/%zu strings), "
              "slackness %.3f\n",
              allocator->name().c_str(), result.fitness.total_worth,
              m.total_worth_available(), result.allocation.num_deployed(),
              m.num_strings(), result.fitness.slackness);
  const auto report = analysis::check_feasibility(m, result.allocation);
  std::printf("two-stage feasibility: %s\n", report.feasible() ? "PASS" : "FAIL");
  for (const auto& violation : report.violations) {
    std::printf("  %s\n", violation.to_string().c_str());
  }
  if (print_mapping) {
    std::printf("\n%s", result.allocation.to_string(m).c_str());
  }
  if (!save_allocation_path.empty()) {
    model::save_allocation(save_allocation_path, result.allocation);
    std::printf("allocation written to %s\n", save_allocation_path.c_str());
  }

  if (with_ub) {
    const bool complete = scenario == 3;
    const auto ub = complete ? lp::upper_bound_slackness(m) : lp::upper_bound_worth(m);
    if (ub.status == lp::SolveStatus::kOptimal) {
      std::printf("\nLP upper bound (%s): %.2f  [LP: %zu rows, %zu cols, %zu "
                  "iterations]\n",
                  complete ? "slackness" : "total worth", ub.value, ub.lp_rows,
                  ub.lp_cols, ub.iterations);
      // Bottleneck analysis from the shadow prices.
      double best_price = 0.0;
      std::string bottleneck = "none (no binding capacity)";
      for (std::size_t j = 0; j < ub.machine_shadow_price.size(); ++j) {
        if (ub.machine_shadow_price[j] > best_price) {
          best_price = ub.machine_shadow_price[j];
          bottleneck = "machine m" + std::to_string(j);
        }
      }
      const std::size_t mm = ub.machine_shadow_price.size();
      for (std::size_t j1 = 0; j1 < mm; ++j1) {
        for (std::size_t j2 = 0; j2 < mm; ++j2) {
          if (ub.route_shadow_price[j1 * mm + j2] > best_price) {
            best_price = ub.route_shadow_price[j1 * mm + j2];
            bottleneck =
                "route m" + std::to_string(j1) + "->m" + std::to_string(j2);
          }
        }
      }
      std::printf("bottleneck resource: %s (shadow price %.3f per capacity "
                  "unit)\n",
                  bottleneck.c_str(), best_price);
    } else {
      std::printf("\nLP upper bound: %s\n", lp::to_string(ub.status));
    }
  }

  if (with_sim) {
    const auto sim = sim::simulate(m, result.allocation, {.horizon_s = 0.0});
    std::printf("\nsimulated %.0f s: %zu QoS violations across %zu deployed "
                "strings\n",
                sim.simulated_s, sim.total_violations(),
                result.allocation.num_deployed());
  }
  return 0;
}
