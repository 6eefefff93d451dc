// Cross-solver invariants on random small instances: the §7 LP bound is at
// least the exact permutation optimum, the exact optimum is at least every
// search's result, and every result passes an independent feasibility check.

#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "analysis/feasibility.hpp"
#include "core/exact.hpp"
#include "core/local_search.hpp"
#include "core/ordered.hpp"
#include "core/psg.hpp"
#include "lp/upper_bound.hpp"
#include "workload/generator.hpp"

namespace tsce {
namespace {

using model::SystemModel;

/// (scenario, machines, strings, generator seed).
using SweepCase = std::tuple<workload::Scenario, std::size_t, std::size_t, std::uint64_t>;

class InvariantSweep : public ::testing::TestWithParam<SweepCase> {};

std::vector<core::AllocatorPtr> searches() {
  core::PsgOptions psg;
  psg.ga.population_size = 20;
  psg.ga.max_iterations = 80;
  psg.ga.stagnation_limit = 40;
  psg.trials = 1;
  core::AnnealingOptions anneal;
  anneal.iterations = 400;
  std::vector<core::AllocatorPtr> all;
  all.push_back(std::make_unique<core::MostWorthFirst>());
  all.push_back(std::make_unique<core::TightestFirst>());
  all.push_back(std::make_unique<core::Psg>(psg));
  all.push_back(std::make_unique<core::HillClimb>(core::HillClimbOptions{200}));
  all.push_back(std::make_unique<core::SimulatedAnnealing>(anneal));
  return all;
}

TEST_P(InvariantSweep, LpBoundGeqExactGeqEverySearch) {
  const auto [scenario, machines, strings, seed] = GetParam();
  util::Rng gen(seed);
  auto config = workload::GeneratorConfig::for_scenario(scenario);
  config.num_machines = machines;
  config.num_strings = strings;
  const SystemModel m = workload::generate(config, gen);

  util::Rng rng(seed + 1);
  const core::AllocatorResult exact = core::ExactPermutationSearch{}.allocate(m, rng);
  EXPECT_TRUE(analysis::check_feasibility(m, exact.allocation).feasible());

  const lp::UpperBoundResult worth_bound = lp::upper_bound_worth(m);
  ASSERT_EQ(worth_bound.status, lp::SolveStatus::kOptimal);
  EXPECT_GE(worth_bound.value + 1e-6, exact.fitness.total_worth);
  if (exact.fitness.total_worth == m.total_worth_available()) {
    const lp::UpperBoundResult slack_bound = lp::upper_bound_slackness(m);
    ASSERT_EQ(slack_bound.status, lp::SolveStatus::kOptimal);
    EXPECT_GE(slack_bound.value + 1e-6, exact.fitness.slackness);
  }

  for (const core::AllocatorPtr& search : searches()) {
    util::Rng search_rng(seed + 2);
    const core::AllocatorResult result = search->allocate(m, search_rng);
    EXPECT_TRUE(analysis::check_feasibility(m, result.allocation).feasible())
        << search->name();
    // Every search decodes some order, so the lexicographic optimum over
    // orders is at least its result.
    EXPECT_FALSE(exact.fitness < result.fitness) << search->name();
  }
}

INSTANTIATE_TEST_SUITE_P(
    SmallInstances, InvariantSweep,
    ::testing::Combine(::testing::Values(workload::Scenario::kHighlyLoaded,
                                         workload::Scenario::kQosLimited,
                                         workload::Scenario::kLightlyLoaded),
                       ::testing::Values(2, 3, 4), ::testing::Values(7, 9),
                       ::testing::Values(1, 2)));

}  // namespace
}  // namespace tsce
