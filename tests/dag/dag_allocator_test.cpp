#include "dag/allocator.hpp"

#include <gtest/gtest.h>

#include "analysis/feasibility.hpp"
#include "analysis/utilization.hpp"
#include "core/imr.hpp"
#include "dag/generator.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace tsce::dag {
namespace {

DagSystemModel random_system(std::uint64_t seed, std::size_t machines = 4,
                             std::size_t strings = 8) {
  util::Rng rng(seed);
  DagGeneratorConfig config;
  config.num_machines = machines;
  config.num_strings = strings;
  return generate_dag_system(config, rng);
}

TEST(DagMapper, AssignsEveryApplication) {
  const DagSystemModel m = random_system(1);
  const analysis::Loads loads(m.num_machines());
  for (std::size_t k = 0; k < m.num_strings(); ++k) {
    const auto assignment = dag_map_string(m, loads, static_cast<StringId>(k));
    ASSERT_EQ(assignment.size(), m.strings[k].size());
    for (const auto j : assignment) {
      EXPECT_GE(j, 0);
      EXPECT_LT(j, 4);
    }
  }
}

TEST(DagMapper, Deterministic) {
  const DagSystemModel m = random_system(2);
  const analysis::Loads loads(m.num_machines());
  for (std::size_t k = 0; k < m.num_strings(); ++k) {
    EXPECT_EQ(dag_map_string(m, loads, static_cast<StringId>(k)),
              dag_map_string(m, loads, static_cast<StringId>(k)));
  }
}

TEST(DagMapper, SlowNetworkEncouragesColocation) {
  DagSystemModel m;
  m.network = model::Network(2);
  m.network.set_bandwidth_mbps(0, 1, 0.05);
  m.network.set_bandwidth_mbps(1, 0, 0.05);
  DagString s;
  s.apps.resize(3);
  for (auto& a : s.apps) {
    a.nominal_time_s = {2.0, 2.0};
    a.nominal_util = {0.3, 0.3};
  }
  s.edges = {{0, 1, 1000.0}, {0, 2, 1000.0}};
  s.period_s = 20.0;
  s.max_latency_s = 1000.0;
  m.strings.push_back(s);
  const analysis::Loads loads(m.num_machines());
  const auto assignment = dag_map_string(m, loads, 0);
  EXPECT_EQ(assignment[0], assignment[1]);
  EXPECT_EQ(assignment[0], assignment[2]);
}

TEST(DagMapper, LiftedChainMapsLikeChainImr) {
  // On a chain the DAG mapper's shortest-path march is the chain IMR's march,
  // so both must pick the same machines, on an empty system and on one that
  // already carries the first half of the strings.
  for (const auto scenario : {workload::Scenario::kHighlyLoaded,
                              workload::Scenario::kQosLimited,
                              workload::Scenario::kLightlyLoaded}) {
    for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
      auto config = workload::GeneratorConfig::for_scenario(scenario);
      config.num_machines = 4 + seed % 3 * 4;
      config.num_strings = 20;
      util::Rng rng(seed);
      const model::SystemModel chain = workload::generate(config, rng);
      const DagSystemModel lifted = lift(chain);
      analysis::UtilizationState util(chain);
      analysis::Loads loads(chain.num_machines());
      model::Allocation alloc(chain);
      const auto q = static_cast<StringId>(chain.num_strings());
      for (StringId k = 0; k < q; ++k) {
        ASSERT_EQ(dag_map_string(lifted, loads, k), core::imr_map_string(chain, util, k))
            << "seed " << seed << " string " << k << " (empty)";
      }
      for (StringId k = 0; k < q / 2; ++k) {
        const auto assignment = core::imr_map_string(chain, util, k);
        for (std::size_t i = 0; i < assignment.size(); ++i) {
          alloc.assign(k, static_cast<AppIndex>(i), assignment[i]);
        }
        alloc.set_deployed(k, true);
        util.add_string(alloc, k);
        loads.add_string(lifted, alloc, k);
      }
      for (StringId k = q / 2; k < q; ++k) {
        ASSERT_EQ(dag_map_string(lifted, loads, k), core::imr_map_string(chain, util, k))
            << "seed " << seed << " string " << k << " (loaded)";
      }
    }
  }
}

TEST(DagAllocator, MostWorthFirstIsFeasible) {
  for (std::uint64_t seed : {3u, 4u, 5u}) {
    const DagSystemModel m = random_system(seed);
    const auto result = allocate_most_worth_first(m);
    EXPECT_TRUE(analysis::check_feasibility(m, result.allocation).feasible()) << seed;
    EXPECT_EQ(result.fitness.total_worth,
              analysis::evaluate(m, result.allocation).total_worth);
    EXPECT_GT(result.strings_deployed, 0u);
  }
}

TEST(DagAllocator, LightLoadDeploysEverything) {
  util::Rng rng(6);
  DagGeneratorConfig config;
  config.num_machines = 8;
  config.num_strings = 4;
  const DagSystemModel m = generate_dag_system(config, rng);
  const auto result = allocate_most_worth_first(m);
  EXPECT_EQ(result.strings_deployed, m.num_strings());
  EXPECT_EQ(result.fitness.total_worth, m.total_worth_available());
}

TEST(DagAllocator, OverloadStopsSequentialProcess) {
  // Single machine; identical 0.6-utilization single-app strings: only one
  // fits, and the stop-at-first-failure rule leaves the third untouched.
  DagSystemModel m;
  m.network = model::Network(1, 5.0);
  for (int k = 0; k < 3; ++k) {
    DagString s;
    s.apps.resize(1);
    s.apps[0].nominal_time_s = {6.0};
    s.apps[0].nominal_util = {1.0};
    s.period_s = 10.0;
    s.max_latency_s = 1000.0;
    m.strings.push_back(s);
  }
  const auto result = allocate_most_worth_first(m);
  EXPECT_EQ(result.strings_deployed, 1u);
  EXPECT_TRUE(result.allocation.deployed(0));
  EXPECT_FALSE(result.allocation.deployed(1));
  EXPECT_FALSE(result.allocation.deployed(2));
}

TEST(DagAllocator, DecodeOrderMatters) {
  DagSystemModel m;
  m.network = model::Network(1, 5.0);
  const double utils[3] = {0.4, 0.7, 0.05};
  for (int k = 0; k < 3; ++k) {
    DagString s;
    s.apps.resize(1);
    s.apps[0].nominal_time_s = {utils[k] * 10.0};
    s.apps[0].nominal_util = {1.0};
    s.period_s = 10.0;
    s.max_latency_s = 1000.0;
    m.strings.push_back(s);
  }
  const auto bad = decode_dag_order(m, {0, 1, 2});   // 0.4 then 0.7 fails
  const auto good = decode_dag_order(m, {2, 0, 1});  // 0.05 + 0.4 fit
  EXPECT_EQ(bad.strings_deployed, 1u);
  EXPECT_EQ(good.strings_deployed, 2u);
}

}  // namespace
}  // namespace tsce::dag
