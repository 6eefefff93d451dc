#include "analysis/session.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "analysis/feasibility.hpp"
#include "core/decode.hpp"
#include "core/imr.hpp"
#include "model/system_model.hpp"
#include "testing/builders.hpp"
#include "testing/reject_counts.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

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

bool same_bytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(Session, RejectedCommitLeavesSessionByteIdentical) {
  // IMR-mapped commits in random orders with random checkpoint restores, on
  // generated scenario-1 and scenario-2 instances: every rejection must
  // leave the snapshot bytes and the state size exactly as they were.
  testing::RejectCounts rejected;
  for (const auto scenario : {workload::Scenario::kHighlyLoaded,
                              workload::Scenario::kQosLimited}) {
    for (const std::uint64_t seed : {2005u, 4242u, 7u}) {
      auto config = workload::GeneratorConfig::for_scenario(scenario);
      config.num_machines = 6;
      config.num_strings = 40;
      util::Rng rng(seed);
      const SystemModel m = workload::generate(config, rng);
      AllocationSession session(m);
      SessionSnapshot checkpoint;
      SessionSnapshot before;
      SessionSnapshot after;
      core::ImrScratch scratch;
      std::vector<model::MachineId> assignment;
      for (int round = 0; round < 4; ++round) {
        std::vector<model::StringId> order = core::identity_order(m);
        rng.shuffle(order);
        session.snapshot_into(checkpoint);
        for (const model::StringId k : order) {
          if (session.allocation().deployed(k)) continue;
          core::imr_map_string_into(m, session.util(), k, scratch, assignment);
          session.snapshot_into(before);
          const std::size_t bytes = session.state_bytes();
          const testing::RejectCounts counts = testing::RejectCounts::read();
          if (session.try_commit(k, assignment)) {
            if (rng.bounded(6) == 0) session.restore_from(checkpoint);
            continue;
          }
          const testing::RejectCounts counts_after = testing::RejectCounts::read();
          rejected.utilization += counts_after.utilization - counts.utilization;
          rejected.throughput += counts_after.throughput - counts.throughput;
          rejected.latency += counts_after.latency - counts.latency;
          session.snapshot_into(after);
          ASSERT_EQ(session.state_bytes(), bytes) << "string " << k;
          ASSERT_TRUE(after.alloc == before.alloc) << "string " << k;
          ASSERT_TRUE(after.util.bytes == before.util.bytes) << "string " << k;
          ASSERT_TRUE(same_bytes(after.t_of, before.t_of)) << "string " << k;
          ASSERT_TRUE(same_bytes(after.comp, before.comp)) << "string " << k;
          ASSERT_TRUE(same_bytes(after.tran, before.tran)) << "string " << k;
        }
      }
    }
  }
  EXPECT_GT(rejected.utilization, 0u);
  EXPECT_GT(rejected.throughput, 0u);
  EXPECT_GT(rejected.latency, 0u);
}

}  // namespace
}  // namespace tsce::analysis
