#include "core/ordered.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "analysis/feasibility.hpp"
#include "analysis/tightness.hpp"
#include "model/system_model.hpp"
#include "testing/builders.hpp"
#include "workload/generator.hpp"

namespace tsce::core {
namespace {

using model::StringId;
using model::SystemModel;
using model::SystemModelBuilder;
using model::Worth;

SystemModel three_worth_system() {
  SystemModelBuilder b(2);
  b.uniform_bandwidth(8.0);
  b.begin_string(10.0, 100.0, Worth::kLow, "low");
  b.add_app(1.0, 0.5, 0.0);
  b.begin_string(10.0, 100.0, Worth::kHigh, "high");
  b.add_app(1.0, 0.5, 0.0);
  b.begin_string(10.0, 100.0, Worth::kMedium, "medium");
  b.add_app(1.0, 0.5, 0.0);
  return b.build();
}

TEST(MwfOrder, RanksByDescendingWorth) {
  const SystemModel m = three_worth_system();
  const auto order = mwf_order(m);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 1);  // worth 100
  EXPECT_EQ(order[1], 2);  // worth 10
  EXPECT_EQ(order[2], 0);  // worth 1
}

TEST(MwfOrder, StableForEqualWorth) {
  SystemModelBuilder b(1);
  for (int k = 0; k < 4; ++k) {
    b.begin_string(10.0, 100.0, Worth::kMedium);
    b.add_app(1.0, 0.5, 0.0);
  }
  const SystemModel m = b.build();
  const auto order = mwf_order(m);
  EXPECT_EQ(order, (std::vector<model::StringId>{0, 1, 2, 3}));
}

TEST(TfOrder, RanksByDescendingApproxTightness) {
  const SystemModel m = testing::two_machine_system();
  const auto order = tf_order(m);
  // approx T: s0 = 6.05/30 = 0.2017 > s1 = 7.025/50 = 0.1405.
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 1);
  EXPECT_GE(analysis::approx_tightness(m, order[0]),
            analysis::approx_tightness(m, order[1]));
}

TEST(TfOrder, SortedInvariantOnRandomWorkload) {
  util::Rng rng(5);
  auto config =
      workload::GeneratorConfig::for_scenario(workload::Scenario::kLightlyLoaded);
  config.num_machines = 6;
  config.num_strings = 20;
  const SystemModel m = generate(config, rng);
  const auto order = tf_order(m);
  for (std::size_t p = 0; p + 1 < order.size(); ++p) {
    EXPECT_GE(analysis::approx_tightness(m, order[p]),
              analysis::approx_tightness(m, order[p + 1]) - 1e-12);
  }
}

TEST(MostWorthFirst, DeploysHighWorthUnderContention) {
  // One machine fits only one of two strings; MWF must pick the high-worth one.
  SystemModelBuilder b(1);
  b.begin_string(10.0, 1000.0, Worth::kLow, "low");
  b.add_app(7.0, 1.0, 0.0);  // 0.7
  b.begin_string(10.0, 1000.0, Worth::kHigh, "high");
  b.add_app(7.0, 1.0, 0.0);  // 0.7
  const SystemModel m = b.build();
  util::Rng rng(1);
  const auto result = MostWorthFirst{}.allocate(m, rng);
  EXPECT_EQ(result.fitness.total_worth, 100);
  EXPECT_TRUE(result.allocation.deployed(1));
  EXPECT_FALSE(result.allocation.deployed(0));
}

TEST(MostWorthFirst, ResultIsFeasibleOnRandomWorkload) {
  util::Rng rng(6);
  auto config =
      workload::GeneratorConfig::for_scenario(workload::Scenario::kHighlyLoaded, 0.2);
  config.num_machines = 4;
  const SystemModel m = generate(config, rng);
  const auto result = MostWorthFirst{}.allocate(m, rng);
  EXPECT_TRUE(analysis::check_feasibility(m, result.allocation).feasible());
  EXPECT_EQ(result.evaluations, 1u);
  EXPECT_EQ(result.order.size(), m.num_strings());
}

TEST(TightestFirst, ResultIsFeasibleOnRandomWorkload) {
  util::Rng rng(7);
  auto config =
      workload::GeneratorConfig::for_scenario(workload::Scenario::kQosLimited, 0.2);
  config.num_machines = 4;
  const SystemModel m = generate(config, rng);
  const auto result = TightestFirst{}.allocate(m, rng);
  EXPECT_TRUE(analysis::check_feasibility(m, result.allocation).feasible());
}

TEST(Allocators, NamesAreDistinct) {
  EXPECT_EQ(MostWorthFirst{}.name(), "MWF");
  EXPECT_EQ(TightestFirst{}.name(), "TF");
}

TEST(LpGuidedOrder, IsAPermutationAndDeterministic) {
  util::Rng rng(21);
  auto config =
      workload::GeneratorConfig::for_scenario(workload::Scenario::kHighlyLoaded, 0.2);
  config.num_machines = 4;
  const SystemModel m = generate(config, rng);
  const auto order = lp_guided_order(m);
  ASSERT_EQ(order.size(), m.num_strings());
  std::vector<bool> seen(m.num_strings(), false);
  for (const auto id : order) {
    ASSERT_FALSE(seen[static_cast<std::size_t>(id)]);
    seen[static_cast<std::size_t>(id)] = true;
  }
  EXPECT_EQ(order, lp_guided_order(m));  // LP path is deterministic
}

TEST(LpGuidedOrder, FullyDeployableStringsComeFirst) {
  // One heavy low-worth string (cannot fit) and two light high-worth ones:
  // the LP deploys the light strings fully and only a fraction of the heavy
  // one, so the lights must precede it.
  SystemModelBuilder b(1);
  b.begin_string(10.0, 100.0, Worth::kLow, "heavy");
  b.add_app(20.0, 1.0, 0.0);  // utilization 2.0 alone: f = 0.5 at best
  b.begin_string(10.0, 100.0, Worth::kHigh, "light-a");
  b.add_app(1.0, 1.0, 0.0);
  b.begin_string(10.0, 100.0, Worth::kHigh, "light-b");
  b.add_app(1.0, 1.0, 0.0);
  const SystemModel m = b.build();
  const auto order = lp_guided_order(m);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[2], 0);  // the fractional heavy string sorts last
}

TEST(LpGuidedOrder, RoundingNoiseInFractionsFallsThroughToWorth) {
  // Both strings are fully deployed; one fraction carries LP rounding noise.
  // The noise must not rank the low-worth string first.
  SystemModelBuilder b(1);
  b.begin_string(10.0, 100.0, Worth::kLow, "low");
  b.add_app(1.0, 1.0, 0.0);
  b.begin_string(10.0, 100.0, Worth::kHigh, "high");
  b.add_app(1.0, 1.0, 0.0);
  const SystemModel m = b.build();
  const std::vector<StringId> expected = {1, 0};
  EXPECT_EQ(fraction_order(m, {1.0, 1.0 - 1e-15}), expected);
  EXPECT_EQ(fraction_order(m, {1.0 - 1e-15, 1.0}), expected);
  // A real difference in deployed fraction still outranks worth.
  EXPECT_EQ(fraction_order(m, {1.0, 0.5}), (std::vector<StringId>{0, 1}));
  EXPECT_THROW((void)fraction_order(m, {1.0}), std::invalid_argument);
}

}  // namespace
}  // namespace tsce::core
