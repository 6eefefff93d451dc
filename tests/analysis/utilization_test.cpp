#include "analysis/utilization.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
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

TEST(Utilization, StageChecksTouchedResourcesWithoutWriting) {
  const SystemModel m = testing::two_machine_system();
  Allocation a(m);
  // String 0 on machine 0 then 1: 0.1 and 0.4 utilization, 0.01 on 0->1.
  const std::vector<model::MachineId> on = {0, 1};
  a.assign(0, 0, 0);
  a.assign(0, 1, 1);
  UtilizationState util(m);
  EXPECT_TRUE(util.stage(0, on));
  EXPECT_DOUBLE_EQ(util.machine_util(0), 0.0);
  EXPECT_DOUBLE_EQ(util.route_util(0, 1), 0.0);
  EXPECT_EQ(util.apps_on(0).size(), 0u);
  // Twice string 0's load fits; three times puts 1.2 on machine 1.
  a.set_deployed(0, true);
  util.add_string(a, 0);
  EXPECT_TRUE(util.stage(0, on));
  util.add_string(a, 0);
  EXPECT_FALSE(util.stage(0, on));
  EXPECT_DOUBLE_EQ(util.machine_util(1), 0.8);
}

// Stage one on strings that come back to a resource.  Two machines joined by
// 1 Mb/s routes; every period is 1 s, so a machine term is t*u and a 37.5 KB
// (75 KB) output puts 0.3 (0.6) on its route.
//   s0: 0.25, 0.125, 0.25, 0.125 with 0.3 on each transfer
//   s1: 0.25, 0.125, 0.25        with 0.3 on each transfer
//   s2: 0.0625, 0.0625           with 0.6 on its transfer
//   s3: 0.5625      s4: 0.5
SystemModel revisit_system() {
  return model::SystemModelBuilder(2)
      .uniform_bandwidth(1.0)
      .begin_string(1.0, 100.0, model::Worth::kHigh, "s0")
      .add_app(0.25, 1.0, 37.5)
      .add_app(0.125, 1.0, 37.5)
      .add_app(0.25, 1.0, 37.5)
      .add_app(0.125, 1.0, 0.0)
      .begin_string(1.0, 100.0, model::Worth::kHigh, "s1")
      .add_app(0.25, 1.0, 37.5)
      .add_app(0.125, 1.0, 37.5)
      .add_app(0.25, 1.0, 0.0)
      .begin_string(1.0, 100.0, model::Worth::kLow, "s2")
      .add_app(0.0625, 1.0, 75.0)
      .add_app(0.0625, 1.0, 0.0)
      .begin_string(1.0, 100.0, model::Worth::kLow, "s3")
      .add_app(0.5625, 1.0, 0.0)
      .begin_string(1.0, 100.0, model::Worth::kLow, "s4")
      .add_app(0.5, 1.0, 0.0)
      .build();
}

void deploy(Allocation& a, UtilizationState& util, model::StringId k,
            const std::vector<model::MachineId>& on) {
  for (std::size_t i = 0; i < on.size(); ++i) {
    a.assign(k, static_cast<model::AppIndex>(i), on[i]);
  }
  a.set_deployed(k, true);
  util.add_string(a, k);
}

bool bit_equal(double x, double y) { return std::bit_cast<std::uint64_t>(x) ==
                                            std::bit_cast<std::uint64_t>(y); }

TEST(Utilization, StageFoldsANonConsecutiveMachineRevisit) {
  const SystemModel m = revisit_system();
  Allocation a(m);
  UtilizationState util(m);
  const std::vector<model::MachineId> on = {0, 1, 0};
  ASSERT_TRUE(util.stage(1, on));
  EXPECT_EQ(util.staged_machine_util(0), 0.5);
  EXPECT_EQ(util.staged_machine_util(1), 0.125);
  const double staged_01 = util.staged_route_util(0, 1);
  const double staged_10 = util.staged_route_util(1, 0);
  EXPECT_DOUBLE_EQ(staged_01, 0.3);
  EXPECT_DOUBLE_EQ(staged_10, 0.3);
  deploy(a, util, 1, on);
  EXPECT_EQ(util.machine_util(0), 0.5);
  EXPECT_EQ(util.machine_util(1), 0.125);
  EXPECT_TRUE(bit_equal(util.route_util(0, 1), staged_01));
  EXPECT_TRUE(bit_equal(util.route_util(1, 0), staged_10));
  const auto on0 = util.apps_on(0);
  ASSERT_EQ(on0.size(), 2u);
  EXPECT_TRUE((on0[0] == AppRef{1, 0}));
  EXPECT_TRUE((on0[1] == AppRef{1, 2}));
}

TEST(Utilization, StageFoldsARepeatedRoute) {
  // {0, 1, 0, 1} revisits both machines and sends 0->1, 1->0, 0->1.
  const SystemModel m = revisit_system();
  Allocation a(m);
  UtilizationState util(m);
  deploy(a, util, 2, {0, 1});  // 0.6 on 0->1
  const std::vector<model::MachineId> on = {0, 1, 0, 1};
  // The route's sum in add order: the resident's 0.6, then 0.3 twice.
  const double d = util.route_delta(0, 0, 0, 1);
  const double expected_01 = (util.route_util(0, 1) + d) + util.route_delta(0, 2, 0, 1);
  EXPECT_FALSE(util.stage(0, on));  // 0.6 + 0.3 fits, + 0.3 more does not
  EXPECT_TRUE(bit_equal(util.staged_route_util(0, 1), expected_01));
  EXPECT_DOUBLE_EQ(util.staged_route_util(0, 1), 1.2);
  EXPECT_DOUBLE_EQ(util.staged_route_util(1, 0), 0.3);
  EXPECT_EQ(util.staged_machine_util(0), 0.0625 + 0.5);
  EXPECT_EQ(util.staged_machine_util(1), 0.0625 + 0.25);
  // Stored anyway, the sums and the resident order are the staged ones.
  deploy(a, util, 0, on);
  EXPECT_TRUE(bit_equal(util.route_util(0, 1), expected_01));
  const auto sends = util.transfers_on(0, 1);
  ASSERT_EQ(sends.size(), 3u);
  EXPECT_TRUE((sends[1] == AppRef{0, 0}));
  EXPECT_TRUE((sends[2] == AppRef{0, 2}));
  EXPECT_EQ(util.transfers_on(1, 0).size(), 1u);
}

TEST(Utilization, StageRejectsWhatOnlyTheSecondTouchOverloads) {
  const SystemModel m = revisit_system();
  Allocation a(m);
  UtilizationState util(m);
  deploy(a, util, 3, {0});  // 0.5625 on machine 0
  // 0.5625 + 0.25 = 0.8125 fits; the revisit's + 0.25 = 1.0625 does not.
  EXPECT_FALSE(util.stage(1, std::vector<model::MachineId>{0, 1, 0}));
  EXPECT_EQ(util.staged_machine_util(0), 1.0625);
  EXPECT_EQ(util.machine_util(0), 0.5625);
  EXPECT_TRUE(util.stage(1, std::vector<model::MachineId>{0, 1, 1}));
}

TEST(Utilization, StageAcceptsASumExactlyAtCapacity) {
  const SystemModel m = revisit_system();
  Allocation a(m);
  UtilizationState util(m);
  deploy(a, util, 4, {0});  // 0.5 on machine 0
  // 0.5 + 0.25 + 0.25 is exactly 1 (every term is dyadic).
  const std::vector<model::MachineId> on = {0, 1, 0};
  EXPECT_TRUE(util.stage(1, on));
  EXPECT_EQ(util.staged_machine_util(0), 1.0);
  deploy(a, util, 1, on);
  EXPECT_EQ(util.machine_util(0), 1.0);
  EXPECT_DOUBLE_EQ(util.slackness(), 0.0);
}

TEST(Utilization, EachStageStartsFromTheCurrentState) {
  // The stamp of a resource touched by an earlier stage must not carry its
  // staged sum into the next one.
  const SystemModel m = revisit_system();
  UtilizationState util(m);
  const std::vector<model::MachineId> on = {0, 1, 0};
  for (int repeat = 0; repeat < 3; ++repeat) {
    EXPECT_TRUE(util.stage(1, on)) << repeat;
    EXPECT_EQ(util.staged_machine_util(0), 0.5) << repeat;
    EXPECT_EQ(util.staged_machine_util(1), 0.125) << repeat;
  }
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
