#include "core/class_based.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "analysis/feasibility.hpp"
#include "model/system_model.hpp"
#include "workload/generator.hpp"

namespace tsce::core {
namespace {

using model::SystemModel;
using model::SystemModelBuilder;
using model::Worth;

TEST(ClassBased, HighWorthClassWinsEvenWhenManyMediumsWouldScoreMore) {
  // Capacity fits either one high-worth string (100) or three mediums (30
  // worth... but 10*11=110 > 100 with eleven mediums).  One machine with
  // capacity 1.0: high needs 0.9; each of 11 mediums needs 0.09 (sum 0.99).
  // The flat worth-sum optimum deploys the 11 mediums (110 > 100); the
  // class-based scheme MUST deploy the high string first.
  SystemModelBuilder b(1);
  b.begin_string(10.0, 10000.0, Worth::kHigh, "flagship");
  b.add_app(9.0, 1.0, 0.0);  // 0.9 utilization
  for (int k = 0; k < 11; ++k) {
    b.begin_string(10.0, 10000.0, Worth::kMedium);
    b.add_app(0.9, 1.0, 0.0);  // 0.09 each
  }
  const SystemModel m = b.build();
  util::Rng rng(1);
  const auto result = ClassBasedAllocator{}.allocate(m, rng);
  EXPECT_TRUE(result.allocation.deployed(0)) << "high class must be frozen first";
  // Remaining capacity 0.1 fits one medium.
  EXPECT_EQ(result.fitness.total_worth, 110);
  EXPECT_TRUE(analysis::check_feasibility(m, result.allocation).feasible());
}

TEST(ClassBased, FeasibleOnRandomWorkload) {
  util::Rng rng(2);
  auto config =
      workload::GeneratorConfig::for_scenario(workload::Scenario::kHighlyLoaded);
  config.num_machines = 3;
  config.num_strings = 12;
  const SystemModel m = generate(config, rng);
  util::Rng search_rng(3);
  const auto result = ClassBasedAllocator{}.allocate(m, search_rng);
  EXPECT_TRUE(analysis::check_feasibility(m, result.allocation).feasible());
  EXPECT_EQ(result.fitness.total_worth,
            analysis::total_worth(m, result.allocation));
}

TEST(ClassBased, DeploysEverythingWhenLightlyLoaded) {
  util::Rng rng(4);
  auto config =
      workload::GeneratorConfig::for_scenario(workload::Scenario::kLightlyLoaded);
  config.num_machines = 8;
  config.num_strings = 8;
  const SystemModel m = generate(config, rng);
  util::Rng search_rng(5);
  const auto result = ClassBasedAllocator{}.allocate(m, search_rng);
  EXPECT_EQ(result.fitness.total_worth, m.total_worth_available());
}

TEST(ClassBased, HandlesSingleClassInstances) {
  SystemModelBuilder b(2);
  b.uniform_bandwidth(5.0);
  for (int k = 0; k < 4; ++k) {
    b.begin_string(10.0, 100.0, Worth::kLow);
    b.add_app(1.0, 0.4, 0.0);
  }
  const SystemModel m = b.build();
  util::Rng rng(6);
  const auto result = ClassBasedAllocator{}.allocate(m, rng);
  EXPECT_EQ(result.fitness.total_worth, 4);
}

TEST(ClassBased, EmptyClassesAreSkipped) {
  SystemModelBuilder b(1);
  b.begin_string(10.0, 100.0, Worth::kMedium);
  b.add_app(1.0, 0.4, 0.0);
  const SystemModel m = b.build();
  util::Rng rng(7);
  const auto result = ClassBasedAllocator{}.allocate(m, rng);
  EXPECT_EQ(result.fitness.total_worth, 10);
}

TEST(ClassBased, RerunIsByteIdentical) {
  util::Rng rng(8);
  auto config =
      workload::GeneratorConfig::for_scenario(workload::Scenario::kHighlyLoaded);
  config.num_machines = 3;
  config.num_strings = 12;
  const SystemModel m = generate(config, rng);
  ClassBasedOptions options;
  options.ga.population_size = 16;
  options.ga.max_iterations = 60;
  options.ga.stagnation_limit = 30;
  auto run = [&] {
    util::Rng search_rng(9);
    return ClassBasedAllocator(options).allocate(m, search_rng);
  };
  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first.order, second.order);
  EXPECT_EQ(first.fitness.total_worth, second.fitness.total_worth);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(first.fitness.slackness),
            std::bit_cast<std::uint64_t>(second.fitness.slackness));
  EXPECT_EQ(first.evaluations, second.evaluations);
  EXPECT_EQ(first.allocation, second.allocation);
  EXPECT_TRUE(analysis::check_feasibility(m, first.allocation).feasible());
}

}  // namespace
}  // namespace tsce::core
