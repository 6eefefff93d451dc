#include "lp/upper_bound.hpp"

#include <gtest/gtest.h>

#include "core/psg.hpp"
#include "model/system_model.hpp"
#include "workload/generator.hpp"

namespace tsce::lp {
namespace {

using model::SystemModel;
using model::SystemModelBuilder;
using model::Worth;

TEST(UpperBound, FullyDeployableStringReachesFullWorth) {
  // One machine, one string needing 0.4 utilization: f = 1.
  const SystemModel m = SystemModelBuilder(1)
                            .begin_string(10.0, 100.0, Worth::kHigh)
                            .add_app(4.0, 1.0, 0.0)
                            .build();
  const auto ub = upper_bound_worth(m);
  ASSERT_EQ(ub.status, SolveStatus::kOptimal);
  EXPECT_NEAR(ub.value, 100.0, 1e-6);
  ASSERT_EQ(ub.string_fractions.size(), 1u);
  EXPECT_NEAR(ub.string_fractions[0], 1.0, 1e-8);
}

TEST(UpperBound, CapacityLimitsFraction) {
  // One machine, one string needing 2.0 utilization: f = 0.5, worth 50.
  const SystemModel m = SystemModelBuilder(1)
                            .begin_string(10.0, 100.0, Worth::kHigh)
                            .add_app(20.0, 1.0, 0.0)
                            .build();
  const auto ub = upper_bound_worth(m);
  ASSERT_EQ(ub.status, SolveStatus::kOptimal);
  EXPECT_NEAR(ub.value, 50.0, 1e-6);
  EXPECT_NEAR(ub.string_fractions[0], 0.5, 1e-8);
}

TEST(UpperBound, TwoMachinesDoubleCapacity) {
  // The same 2.0-utilization string split across two machines: f = 1.
  const SystemModel m = SystemModelBuilder(2)
                            .uniform_bandwidth(100.0)
                            .begin_string(10.0, 100.0, Worth::kHigh)
                            .add_app(20.0, 1.0, 0.0)
                            .build();
  const auto ub = upper_bound_worth(m);
  ASSERT_EQ(ub.status, SolveStatus::kOptimal);
  EXPECT_NEAR(ub.value, 100.0, 1e-6);
}

TEST(UpperBound, PrefersHighWorthUnderContention) {
  // Capacity 1.0; strings need 1.0 each with worths 1 and 100: the LP should
  // spend all capacity on the high-worth string.
  const SystemModel m = SystemModelBuilder(1)
                            .begin_string(10.0, 100.0, Worth::kLow)
                            .add_app(10.0, 1.0, 0.0)
                            .begin_string(10.0, 100.0, Worth::kHigh)
                            .add_app(10.0, 1.0, 0.0)
                            .build();
  const auto ub = upper_bound_worth(m);
  ASSERT_EQ(ub.status, SolveStatus::kOptimal);
  EXPECT_NEAR(ub.value, 100.0, 1e-6);
  EXPECT_NEAR(ub.string_fractions[1], 1.0, 1e-8);
  EXPECT_NEAR(ub.string_fractions[0], 0.0, 1e-8);
}

TEST(UpperBound, RouteCapacityBindsMultiAppString) {
  // Heterogeneity pins app 1 to machine 0 and app 2 to machine 1 (the other
  // machine is 2000x slower), so essentially all flow crosses route 0->1.
  // The output is 2 Mb per 1 s period over a 1 Mb/s route: y <= 0.5, so the
  // deployable fraction is ~0.5 and the worth bound ~50.
  SystemModelBuilder b(2);
  b.uniform_bandwidth(1.0);  // 1 Mb/s
  b.begin_string(1.0, 10000.0, Worth::kHigh);
  b.add_app({0.5, 1000.0}, {1.0, 1.0}, 250.0);
  b.add_app({1000.0, 0.5}, {1.0, 1.0}, 0.0);
  const SystemModel m = b.build();
  const auto ub = upper_bound_worth(m);
  ASSERT_EQ(ub.status, SolveStatus::kOptimal);
  EXPECT_NEAR(ub.value, 50.0, 0.5);
}

TEST(UpperBound, PaperLiteralObjectiveWeightsByLength) {
  // Two strings, worth 10 each, one has 1 app and one has 3 apps; capacity
  // fits only one app's utilization (0.5).  The literal objective prefers
  // fractions of the longer string; the reported value is still sum I*f.
  SystemModelBuilder b(1);
  b.begin_string(10.0, 1000.0, Worth::kMedium, "short");
  b.add_app(5.0, 1.0, 0.0);
  b.begin_string(10.0, 1000.0, Worth::kMedium, "long");
  b.add_app(5.0, 1.0, 0.0);
  b.add_app(5.0, 1.0, 0.0);
  b.add_app(5.0, 1.0, 0.0);
  const SystemModel m = b.build();
  UpperBoundOptions literal;
  literal.objective = UbObjective::kPaperLiteral;
  const auto ub_literal = upper_bound_worth(m, literal);
  const auto ub_worth = upper_bound_worth(m);
  ASSERT_EQ(ub_literal.status, SolveStatus::kOptimal);
  ASSERT_EQ(ub_worth.status, SolveStatus::kOptimal);
  // The default objective achieves at least as much *worth* as the literal.
  EXPECT_GE(ub_worth.value, ub_literal.value - 1e-6);
}

TEST(UpperBoundSlackness, SingleStringHandComputable) {
  // One machine at 0.4 utilization when fully deployed: lambda = 0.6.
  const SystemModel m = SystemModelBuilder(1)
                            .begin_string(10.0, 100.0, Worth::kHigh)
                            .add_app(4.0, 1.0, 0.0)
                            .build();
  const auto ub = upper_bound_slackness(m);
  ASSERT_EQ(ub.status, SolveStatus::kOptimal);
  EXPECT_NEAR(ub.value, 0.6, 1e-8);
}

TEST(UpperBoundSlackness, BalancesAcrossMachines) {
  // Two machines, two identical 0.5-utilization strings: fractional split
  // puts 0.5 on each machine -> lambda = 0.5.
  SystemModelBuilder b(2);
  b.uniform_bandwidth(100.0);
  for (int k = 0; k < 2; ++k) {
    b.begin_string(10.0, 100.0, Worth::kLow);
    b.add_app(5.0, 1.0, 0.0);
  }
  const SystemModel m = b.build();
  const auto ub = upper_bound_slackness(m);
  ASSERT_EQ(ub.status, SolveStatus::kOptimal);
  EXPECT_NEAR(ub.value, 0.5, 1e-8);
}

TEST(UpperBoundSlackness, RouteCanBeTheBottleneck) {
  // Heterogeneity pins app 1 to machine 0 and app 2 to machine 1; the output
  // (2 Mb per 10 s period over a 1 Mb/s route) loads route 0->1 at 0.2 while
  // the CPUs sit near 0.05: lambda is route-bound at ~0.8.
  SystemModelBuilder b(2);
  b.uniform_bandwidth(1.0);
  b.begin_string(10.0, 10000.0, Worth::kHigh);
  b.add_app({0.5, 1000.0}, {1.0, 1.0}, 250.0);
  b.add_app({1000.0, 0.5}, {1.0, 1.0}, 0.0);
  const SystemModel m = b.build();
  const auto ub = upper_bound_slackness(m);
  ASSERT_EQ(ub.status, SolveStatus::kOptimal);
  EXPECT_NEAR(ub.value, 0.8, 0.01);
}

TEST(UpperBound, IterationLimitSurfacesAsStatus) {
  const SystemModel m = SystemModelBuilder(2)
                            .uniform_bandwidth(5.0)
                            .begin_string(10.0, 100.0, Worth::kHigh)
                            .add_app(4.0, 1.0, 20.0)
                            .add_app(4.0, 1.0, 0.0)
                            .build();
  UpperBoundOptions options;
  options.simplex.max_iterations = 1;
  const auto ub = upper_bound_worth(m, options);
  // Either it finishes absurdly fast or truthfully reports the limit.
  EXPECT_TRUE(ub.status == SolveStatus::kOptimal ||
              ub.status == SolveStatus::kIterationLimit);
  if (ub.status == SolveStatus::kIterationLimit) {
    EXPECT_DOUBLE_EQ(ub.value, 0.0);
    EXPECT_TRUE(ub.string_fractions.empty());
  }
}

TEST(UpperBoundSlackness, InfeasibleWhenDemandExceedsCapacity) {
  // One machine, two strings needing 0.8 each: full deployment impossible.
  SystemModelBuilder b(1);
  for (int k = 0; k < 2; ++k) {
    b.begin_string(10.0, 100.0, Worth::kLow);
    b.add_app(8.0, 1.0, 0.0);
  }
  const SystemModel m = b.build();
  const auto ub = upper_bound_slackness(m);
  EXPECT_EQ(ub.status, SolveStatus::kInfeasible);
}

TEST(UpperBound, ShadowPriceIdentifiesMachineBottleneck) {
  // One machine, one string needing 2.0 utilization: f = cap/2, worth =
  // 100*cap/2, so dWorth/dCap = 50 on the binding machine.
  const SystemModel m = SystemModelBuilder(1)
                            .begin_string(10.0, 100.0, Worth::kHigh)
                            .add_app(20.0, 1.0, 0.0)
                            .build();
  const auto ub = upper_bound_worth(m);
  ASSERT_EQ(ub.status, SolveStatus::kOptimal);
  ASSERT_EQ(ub.machine_shadow_price.size(), 1u);
  EXPECT_NEAR(ub.machine_shadow_price[0], 50.0, 1e-6);
}

TEST(UpperBound, ShadowPriceIdentifiesRouteBottleneck) {
  // The pinned two-app string of RouteCapacityBindsMultiAppString: route 0->1
  // binds (f ~ 0.5); its shadow price is positive while the idle reverse
  // route's is ~0.
  SystemModelBuilder b(2);
  b.uniform_bandwidth(1.0);
  b.begin_string(1.0, 10000.0, Worth::kHigh);
  b.add_app({0.5, 1000.0}, {1.0, 1.0}, 250.0);
  b.add_app({1000.0, 0.5}, {1.0, 1.0}, 0.0);
  const SystemModel m = b.build();
  const auto ub = upper_bound_worth(m);
  ASSERT_EQ(ub.status, SolveStatus::kOptimal);
  ASSERT_EQ(ub.route_shadow_price.size(), 4u);
  // One extra unit of route capacity carries 1/2 more flow: +50 worth.
  EXPECT_NEAR(ub.route_shadow_price[0 * 2 + 1], 50.0, 1.0);
  EXPECT_NEAR(ub.route_shadow_price[1 * 2 + 0], 0.0, 1e-6);
  // A machine capacity unit only helps through the 1000x-slow co-located
  // path: f += 1/1000, i.e. +0.1 worth — tiny but genuinely positive.
  EXPECT_NEAR(ub.machine_shadow_price[0], 0.1, 0.01);
  // The bottleneck ranking is unambiguous.
  EXPECT_GT(ub.route_shadow_price[0 * 2 + 1], 100.0 * ub.machine_shadow_price[0]);
}

TEST(UpperBound, BuildSizesAreConsistent) {
  const SystemModel m = SystemModelBuilder(2)
                            .uniform_bandwidth(5.0)
                            .begin_string(10.0, 100.0, Worth::kLow)
                            .add_app(1.0, 0.5, 10.0)
                            .add_app(1.0, 0.5, 0.0)
                            .build();
  const LpProblem p = build_upper_bound_lp(m, /*complete=*/false,
                                           UbObjective::kTotalWorth);
  // Arc-flow form: only the arcs y = 1 edge * 4 routes; no x columns.
  EXPECT_EQ(p.num_variables(), 4u);
  // Rows: (a) 1, no internal app to conserve flow at, (f) 2, (g) 2.
  EXPECT_EQ(p.num_rows(), 5u);
}

/// Property: the LP bound dominates every heuristic on random instances.
class UbDominance : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UbDominance, UpperBoundsSeededPsg) {
  util::Rng rng(GetParam());
  auto config =
      workload::GeneratorConfig::for_scenario(workload::Scenario::kHighlyLoaded);
  config.num_machines = 3;
  config.num_strings = 8;
  const SystemModel m = generate(config, rng);

  core::PsgOptions options;
  options.ga.population_size = 20;
  options.ga.max_iterations = 80;
  options.ga.stagnation_limit = 40;
  options.trials = 1;
  util::Rng search_rng(GetParam() + 1000);
  const auto heuristic = core::SeededPsg(options).allocate(m, search_rng);

  const auto ub = upper_bound_worth(m);
  ASSERT_EQ(ub.status, SolveStatus::kOptimal);
  EXPECT_GE(ub.value + 1e-6, heuristic.fitness.total_worth)
      << "LP bound must dominate any integral allocation";
  for (const double f : ub.string_fractions) {
    EXPECT_GE(f, -1e-8);
    EXPECT_LE(f, 1.0 + 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, UbDominance,
                         ::testing::Range<std::uint64_t>(1, 11));

}  // namespace
}  // namespace tsce::lp
