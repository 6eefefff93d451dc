#include "analysis/session.hpp"

#include <gtest/gtest.h>

#include "analysis/feasibility.hpp"
#include "model/system_model.hpp"
#include "testing/builders.hpp"

namespace tsce::analysis {
namespace {

using model::SystemModel;
using model::SystemModelBuilder;
using model::Worth;

TEST(Session, CommitFeasibleString) {
  const SystemModel m = testing::two_machine_system();
  AllocationSession session(m);
  EXPECT_TRUE(session.try_commit(0, {0, 1}));
  EXPECT_TRUE(session.allocation().deployed(0));
  EXPECT_DOUBLE_EQ(session.util().machine_util(0), 0.1);
  EXPECT_DOUBLE_EQ(session.util().machine_util(1), 0.4);
  EXPECT_EQ(session.fitness().total_worth, 100);
}

TEST(Session, EstimatesMatchBatchComputation) {
  const SystemModel m = testing::two_machine_system();
  AllocationSession session(m);
  ASSERT_TRUE(session.try_commit(0, {0, 0}));
  ASSERT_TRUE(session.try_commit(1, {0, 0}));
  const TimeEstimates batch = estimate_all(m, session.allocation());
  for (std::size_t k = 0; k < 2; ++k) {
    const auto& inc = session.comp_estimates(static_cast<model::StringId>(k));
    ASSERT_EQ(inc.size(), batch.comp[k].size());
    for (std::size_t i = 0; i < inc.size(); ++i) {
      EXPECT_DOUBLE_EQ(inc[i], batch.comp[k][i]) << "k=" << k << " i=" << i;
    }
  }
}

TEST(Session, RejectsStageOneOverload) {
  SystemModelBuilder b(1);
  for (int k = 0; k < 3; ++k) {
    b.begin_string(10.0, 1000.0, Worth::kLow);
    b.add_app(4.0, 1.0, 0.0);  // 0.4 utilization each
  }
  const SystemModel m = b.build();
  AllocationSession session(m);
  EXPECT_TRUE(session.try_commit(0, {0}));
  EXPECT_TRUE(session.try_commit(1, {0}));
  EXPECT_FALSE(session.try_commit(2, {0}));  // 1.2 > 1
  EXPECT_FALSE(session.allocation().deployed(2));
  EXPECT_DOUBLE_EQ(session.util().machine_util(0), 0.8);
}

TEST(Session, RejectsWhenNewStringBreaksExistingOne) {
  // The loose string is feasible alone; the tighter one, added later, steals
  // priority and pushes the loose string over its latency bound.
  const SystemModel m =
      SystemModelBuilder(1)
          .begin_string(20.0, 15.0, Worth::kHigh, "tight")
          .add_app(10.0, 0.9, 0.0)
          .begin_string(5.0, 4.0, Worth::kLow, "loose")
          .add_app(2.0, 0.2, 0.0)
          .build();
  AllocationSession session(m);
  ASSERT_TRUE(session.try_commit(1, {0}));  // loose alone: latency 2 <= 4
  EXPECT_FALSE(session.try_commit(0, {0}));  // would make loose 4.25 > 4
  EXPECT_TRUE(session.allocation().deployed(1));
  EXPECT_FALSE(session.allocation().deployed(0));
}

TEST(Session, RollbackRestoresEstimates) {
  const SystemModel m =
      SystemModelBuilder(1)
          .begin_string(20.0, 15.0, Worth::kHigh, "tight")
          .add_app(10.0, 0.9, 0.0)
          .begin_string(5.0, 4.0, Worth::kLow, "loose")
          .add_app(2.0, 0.2, 0.0)
          .build();
  AllocationSession session(m);
  ASSERT_TRUE(session.try_commit(1, {0}));
  const double before = session.comp_estimates(1)[0];
  ASSERT_FALSE(session.try_commit(0, {0}));
  EXPECT_DOUBLE_EQ(session.comp_estimates(1)[0], before);
  // Utilization restored too.
  EXPECT_DOUBLE_EQ(session.util().machine_util(0), 2.0 * 0.2 / 5.0);
}

TEST(Session, FitnessTracksWorthAndSlackness) {
  const SystemModel m = testing::two_machine_system();
  AllocationSession session(m);
  EXPECT_EQ(session.fitness().total_worth, 0);
  EXPECT_DOUBLE_EQ(session.fitness().slackness, 1.0);
  ASSERT_TRUE(session.try_commit(0, {0, 0}));
  EXPECT_EQ(session.fitness().total_worth, 100);
  EXPECT_NEAR(session.fitness().slackness, 0.5, 1e-12);
  ASSERT_TRUE(session.try_commit(1, {1, 1}));
  EXPECT_EQ(session.fitness().total_worth, 110);
  EXPECT_NEAR(session.fitness().slackness, 0.5, 1e-12);
}

TEST(Session, SessionResultMatchesBatchFeasibility) {
  const SystemModel m = testing::two_machine_system();
  AllocationSession session(m);
  ASSERT_TRUE(session.try_commit(0, {0, 1}));
  ASSERT_TRUE(session.try_commit(1, {1, 0}));
  const auto report = check_feasibility(m, session.allocation());
  EXPECT_TRUE(report.feasible());
}

}  // namespace
}  // namespace tsce::analysis
