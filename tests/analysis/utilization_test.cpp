#include "analysis/utilization.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "testing/builders.hpp"

namespace tsce::analysis {
namespace {

using model::Allocation;
using model::SystemModel;

// two_machine_system() hand-computed utilization contributions:
//   a0: 2*0.5/10  = 0.1      a1: 4*1.0/10  = 0.4
//   b0: 5*0.8/20  = 0.2      b1: 2*0.25/20 = 0.025
//   a0 transfer (100 KB / P=10 over 8 Mb/s): 0.8/10/8   = 0.01
//   b0 transfer (50 KB / P=20 over 8 Mb/s):  0.4/20/8   = 0.0025

TEST(Utilization, MachineDeltaMatchesHandComputation) {
  const SystemModel m = testing::two_machine_system();
  UtilizationState util(m);
  EXPECT_DOUBLE_EQ(util.machine_delta(0, 0, 0), 0.1);
  EXPECT_DOUBLE_EQ(util.machine_delta(0, 1, 0), 0.4);
  EXPECT_DOUBLE_EQ(util.machine_delta(1, 0, 1), 0.2);
  EXPECT_DOUBLE_EQ(util.machine_delta(1, 1, 1), 0.025);
}

TEST(Utilization, RouteDeltaMatchesHandComputation) {
  const SystemModel m = testing::two_machine_system();
  UtilizationState util(m);
  EXPECT_DOUBLE_EQ(util.route_delta(0, 0, 0, 1), 0.01);
  EXPECT_DOUBLE_EQ(util.route_delta(1, 0, 1, 0), 0.0025);
  EXPECT_DOUBLE_EQ(util.route_delta(0, 0, 1, 1), 0.0);  // intra-machine
}

TEST(Utilization, AddStringAccumulates) {
  const SystemModel m = testing::two_machine_system();
  Allocation a(m);
  a.assign(0, 0, 0);
  a.assign(0, 1, 1);
  a.set_deployed(0, true);
  UtilizationState util(m);
  util.add_string(a, 0);
  EXPECT_DOUBLE_EQ(util.machine_util(0), 0.1);
  EXPECT_DOUBLE_EQ(util.machine_util(1), 0.4);
  EXPECT_DOUBLE_EQ(util.route_util(0, 1), 0.01);
  EXPECT_DOUBLE_EQ(util.route_util(1, 0), 0.0);
  EXPECT_EQ(util.apps_on(0).size(), 1u);
  EXPECT_EQ(util.apps_on(1).size(), 1u);
  EXPECT_EQ(util.transfers_on(0, 1).size(), 1u);
}

TEST(Utilization, SameMachineTransferNotOnRoute) {
  const SystemModel m = testing::two_machine_system();
  Allocation a(m);
  a.assign(0, 0, 0);
  a.assign(0, 1, 0);
  a.set_deployed(0, true);
  UtilizationState util(m);
  util.add_string(a, 0);
  EXPECT_DOUBLE_EQ(util.machine_util(0), 0.5);
  EXPECT_DOUBLE_EQ(util.route_util(0, 1), 0.0);
  EXPECT_TRUE(util.transfers_on(0, 1).empty());
}

TEST(Utilization, FromAllocationSkipsUndeployed) {
  const SystemModel m = testing::two_machine_system();
  Allocation a(m);
  a.assign(0, 0, 0);
  a.assign(0, 1, 0);
  a.set_deployed(0, true);
  // String 1 assigned but NOT deployed: must not count.
  a.assign(1, 0, 1);
  a.assign(1, 1, 1);
  const auto util = UtilizationState::from_allocation(m, a);
  EXPECT_DOUBLE_EQ(util.machine_util(0), 0.5);
  EXPECT_DOUBLE_EQ(util.machine_util(1), 0.0);
}

TEST(Utilization, FitsIfAddedChecksTouchedResourcesWithoutWriting) {
  const SystemModel m = testing::two_machine_system();
  Allocation a(m);
  // String 0 on machine 0 then 1: 0.1 and 0.4 utilization, 0.01 on 0->1.
  const std::vector<model::MachineId> on = {0, 1};
  a.assign(0, 0, 0);
  a.assign(0, 1, 1);
  UtilizationState util(m);
  EXPECT_TRUE(fits_if_added(util, 0, on));
  EXPECT_DOUBLE_EQ(util.machine_util(0), 0.0);
  EXPECT_DOUBLE_EQ(util.route_util(0, 1), 0.0);
  EXPECT_EQ(util.apps_on(0).size(), 0u);
  // Twice string 0's load fits; three times puts 1.2 on machine 1.
  a.set_deployed(0, true);
  util.add_string(a, 0);
  EXPECT_TRUE(fits_if_added(util, 0, on));
  util.add_string(a, 0);
  EXPECT_FALSE(fits_if_added(util, 0, on));
  EXPECT_DOUBLE_EQ(util.machine_util(1), 0.8);
}

TEST(Utilization, SlacknessIsMinResidualCapacity) {
  const SystemModel m = testing::two_machine_system();
  Allocation a(m);
  for (int i = 0; i < 2; ++i) a.assign(0, i, 0);
  for (int i = 0; i < 2; ++i) a.assign(1, i, 0);
  a.set_deployed(0, true);
  a.set_deployed(1, true);
  const auto util = UtilizationState::from_allocation(m, a);
  // Machine 0 carries everything: 0.1+0.4+0.2+0.025 = 0.725.
  EXPECT_DOUBLE_EQ(util.machine_util(0), 0.725);
  EXPECT_NEAR(util.slackness(), 0.275, 1e-12);
  EXPECT_DOUBLE_EQ(util.max_machine_util(), 0.725);
  for (model::MachineId j1 = 0; j1 < 2; ++j1) {
    for (model::MachineId j2 = 0; j2 < 2; ++j2) {
      EXPECT_DOUBLE_EQ(util.route_util(j1, j2), 0.0);
    }
  }
}

TEST(Utilization, EmptySystemHasFullSlack) {
  const SystemModel m = testing::two_machine_system();
  UtilizationState util(m);
  EXPECT_DOUBLE_EQ(util.slackness(), 1.0);
}

}  // namespace
}  // namespace tsce::analysis
