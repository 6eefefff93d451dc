#include "analysis/metrics.hpp"

#include <gtest/gtest.h>

#include "testing/builders.hpp"

namespace tsce::analysis {
namespace {

using model::Allocation;
using model::SystemModel;

TEST(Metrics, TotalWorthCountsOnlyDeployed) {
  const SystemModel m = testing::two_machine_system();
  Allocation a(m);
  EXPECT_EQ(total_worth(m, a), 0);
  a.set_deployed(0, true);  // worth 100
  EXPECT_EQ(total_worth(m, a), 100);
  a.set_deployed(1, true);  // worth 10
  EXPECT_EQ(total_worth(m, a), 110);
  a.set_deployed(0, false);
  EXPECT_EQ(total_worth(m, a), 10);
}

TEST(Metrics, SlacknessOfEmptyAllocationIsOne) {
  const SystemModel m = testing::two_machine_system();
  EXPECT_DOUBLE_EQ(evaluate(m, Allocation(m)).slackness, 1.0);
}

TEST(Metrics, SlacknessReflectsBottleneckResource) {
  const SystemModel m = testing::two_machine_system();
  Allocation a(m);
  for (int i = 0; i < 2; ++i) a.assign(0, i, 0);
  a.set_deployed(0, true);
  // Machine 0 at 0.5 utilization.
  EXPECT_NEAR(evaluate(m, a).slackness, 0.5, 1e-12);
}

TEST(Metrics, EvaluateCombinesBoth) {
  const SystemModel m = testing::two_machine_system();
  Allocation a(m);
  for (int i = 0; i < 2; ++i) a.assign(0, i, 0);
  a.set_deployed(0, true);
  const Fitness f = evaluate(m, a);
  EXPECT_EQ(f.total_worth, 100);
  EXPECT_NEAR(f.slackness, 0.5, 1e-12);
}

TEST(Fitness, LexicographicOrdering) {
  const Fitness low_worth{10, 0.9};
  const Fitness high_worth{100, 0.1};
  EXPECT_LT(low_worth, high_worth);
  EXPECT_GT(high_worth, low_worth);

  const Fitness tie_low_slack{100, 0.1};
  const Fitness tie_high_slack{100, 0.2};
  EXPECT_LT(tie_low_slack, tie_high_slack);
  EXPECT_EQ(high_worth, tie_low_slack);
}

TEST(Fitness, DefaultIsZero) {
  const Fitness f{};
  EXPECT_EQ(f.total_worth, 0);
  EXPECT_DOUBLE_EQ(f.slackness, 0.0);
}

}  // namespace
}  // namespace tsce::analysis
