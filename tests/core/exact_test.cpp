#include "core/exact.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "analysis/feasibility.hpp"
#include "core/decode.hpp"
#include "core/ordered.hpp"
#include "core/psg.hpp"
#include "lp/upper_bound.hpp"
#include "workload/generator.hpp"

namespace tsce::core {
namespace {

using model::StringId;
using model::SystemModel;

SystemModel tiny(std::uint64_t seed, std::size_t machines = 2,
                 std::size_t strings = 6) {
  util::Rng rng(seed);
  auto config =
      workload::GeneratorConfig::for_scenario(workload::Scenario::kHighlyLoaded);
  config.num_machines = machines;
  config.num_strings = strings;
  config.max_apps_per_string = 5;
  return generate(config, rng);
}

/// Independent cross-check: the best fitness over every permutation, each
/// decoded explicitly.
analysis::Fitness brute_force_optimum(const SystemModel& m) {
  std::vector<StringId> order = identity_order(m);
  analysis::Fitness brute{};
  bool first = true;
  std::sort(order.begin(), order.end());
  do {
    const auto fitness = decode_order(m, order).fitness;
    if (first || brute < fitness) {
      brute = fitness;
      first = false;
    }
  } while (std::next_permutation(order.begin(), order.end()));
  return brute;
}

TEST(ExactSearch, MatchesBruteForceEnumeration) {
  const SystemModel m = tiny(2, 2, 5);
  util::Rng rng(1);
  const auto exact = ExactPermutationSearch{}.allocate(m, rng);
  const analysis::Fitness brute = brute_force_optimum(m);
  EXPECT_EQ(exact.fitness.total_worth, brute.total_worth);
  EXPECT_NEAR(exact.fitness.slackness, brute.slackness, 1e-12);
}

class ExactSandwich : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExactSandwich, HeuristicLeqExactLeqUpperBound) {
  const SystemModel m = tiny(GetParam(), 2, 6);
  util::Rng rng(GetParam() + 50);
  const auto exact = ExactPermutationSearch{}.allocate(m, rng);

  // Every single-pass heuristic explores one ordering: <= exact.
  util::Rng r1(1);
  const auto mwf = MostWorthFirst{}.allocate(m, r1);
  EXPECT_LE(mwf.fitness.total_worth, exact.fitness.total_worth);
  util::Rng r2(2);
  const auto tf = TightestFirst{}.allocate(m, r2);
  EXPECT_LE(tf.fitness.total_worth, exact.fitness.total_worth);

  // PSG searches the same space: <= exact as well.
  PsgOptions psg_options;
  psg_options.ga.population_size = 20;
  psg_options.ga.max_iterations = 80;
  psg_options.ga.stagnation_limit = 40;
  psg_options.trials = 1;
  util::Rng r3(3);
  const auto psg = Psg(psg_options).allocate(m, r3);
  EXPECT_LE(psg.fitness.total_worth, exact.fitness.total_worth);

  // And the fractional LP bound dominates the exact permutation optimum.
  const auto ub = lp::upper_bound_worth(m);
  ASSERT_EQ(ub.status, lp::SolveStatus::kOptimal);
  EXPECT_GE(ub.value + 1e-6, exact.fitness.total_worth);

  // The exact result itself is feasible and replayable.
  EXPECT_TRUE(analysis::check_feasibility(m, exact.allocation).feasible());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactSandwich, ::testing::Range<std::uint64_t>(1, 9));

TEST(ExactSearch, EvaluationCapReturnsBestSoFar) {
  const SystemModel m = tiny(3, 2, 7);
  ExactSearchOptions options;
  options.max_evaluations = 30;
  util::Rng rng(1);
  const auto result = ExactPermutationSearch(options).allocate(m, rng);
  EXPECT_LE(result.evaluations, 31u);
  EXPECT_TRUE(analysis::check_feasibility(m, result.allocation).feasible());
}

TEST(ExactSearch, BranchSplitFindsSerialOptimum) {
  // Without a binding budget, the bounds prune only subtrees that cannot
  // beat their branch's incumbent or branch 0's optimum, so the branch split
  // finds the optimum of a plain serial enumeration of every permutation.
  for (std::uint64_t seed : {2u, 6u, 11u}) {
    const SystemModel m = tiny(seed, 2, 6);
    const analysis::Fitness brute = brute_force_optimum(m);
    ExactSearchOptions options;
    options.threads = 2;
    util::Rng rng(1);
    const auto split = ExactPermutationSearch(options).allocate(m, rng);
    EXPECT_EQ(split.fitness.total_worth, brute.total_worth) << seed;
    EXPECT_NEAR(split.fitness.slackness, brute.slackness, 1e-12) << seed;
    EXPECT_TRUE(analysis::check_feasibility(m, split.allocation).feasible());
  }
}

TEST(ExactSearch, BranchSplitDeterministicAcrossThreadCounts) {
  const SystemModel m = tiny(7, 2, 7);
  auto run = [&](std::size_t threads) {
    ExactSearchOptions options;
    options.threads = threads;
    options.max_evaluations = 400;  // binding budget: slices must still agree
    util::Rng rng(1);
    return ExactPermutationSearch(options).allocate(m, rng);
  };
  const auto one = run(1);
  const auto two = run(2);
  const auto eight = run(8);
  EXPECT_EQ(one.fitness.total_worth, two.fitness.total_worth);
  EXPECT_EQ(one.fitness.slackness, two.fitness.slackness);
  EXPECT_EQ(one.order, two.order);
  EXPECT_EQ(one.evaluations, two.evaluations);
  EXPECT_EQ(two.order, eight.order);
  EXPECT_EQ(two.evaluations, eight.evaluations);
}

TEST(ExactSearch, BranchSplitRespectsSlicedBudget) {
  // Each of the Q top-level branches gets max_evaluations / Q decodes, so the
  // total can never exceed the budget by more than the per-branch in-flight
  // evaluation.
  const SystemModel m = tiny(8, 2, 7);
  ExactSearchOptions options;
  options.threads = 2;
  options.max_evaluations = 70;
  util::Rng rng(1);
  const auto result = ExactPermutationSearch(options).allocate(m, rng);
  EXPECT_LE(result.evaluations, 70u + m.num_strings());
  EXPECT_TRUE(analysis::check_feasibility(m, result.allocation).feasible());
}

/// The optimum a plain enumeration finds first: every permutation decoded in
/// lexicographic order, keeping the incumbent under a strict `<`.
DecodeResult first_lexicographic_optimum(const SystemModel& m) {
  std::vector<StringId> order = identity_order(m);
  DecodeResult best = decode_order(m, order);
  while (std::next_permutation(order.begin(), order.end())) {
    DecodeResult decoded = decode_order(m, order);
    if (best.fitness < decoded.fitness) best = std::move(decoded);
  }
  return best;
}

TEST(ExactSearch, ReturnsTheFirstLexicographicOptimum) {
  // Without a binding budget every bound must leave the result of a plain
  // enumeration in place: the same fitness bits and the same allocation.
  const workload::Scenario scenarios[] = {workload::Scenario::kHighlyLoaded,
                                          workload::Scenario::kQosLimited,
                                          workload::Scenario::kLightlyLoaded};
  // 36 instances: every (scenario, M in 2..4, Q in 5..7) cell, Q = 5 twice.
  for (std::uint64_t seed = 0; seed < 36; ++seed) {
    util::Rng gen(seed + 100);
    auto config = workload::GeneratorConfig::for_scenario(scenarios[seed % 3]);
    config.num_machines = 2 + (seed / 3) % 3;
    config.num_strings = 5 + (seed / 9) % 3;
    const SystemModel m = workload::generate(config, gen);
    const DecodeResult reference = first_lexicographic_optimum(m);
    for (const std::size_t threads : {1u, 2u}) {
      ExactSearchOptions options;
      options.threads = threads;
      util::Rng rng(1);
      const auto exact = ExactPermutationSearch(options).allocate(m, rng);
      EXPECT_TRUE(exact.fitness == reference.fitness)
          << "seed " << seed << " threads " << threads;
      EXPECT_TRUE(exact.allocation == reference.allocation)
          << "seed " << seed << " threads " << threads;
    }
  }
}

TEST(ExactSearch, SingleStringTrivial) {
  const SystemModel m = tiny(4, 2, 1);
  util::Rng rng(1);
  const auto result = ExactPermutationSearch{}.allocate(m, rng);
  EXPECT_EQ(result.fitness.total_worth,
            decode_order(m, identity_order(m)).fitness.total_worth);
}

}  // namespace
}  // namespace tsce::core
