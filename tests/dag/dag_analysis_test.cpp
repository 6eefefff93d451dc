#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "analysis/estimates.hpp"
#include "analysis/feasibility.hpp"
#include "analysis/session.hpp"
#include "analysis/tightness.hpp"
#include "analysis/utilization.hpp"
#include "dag/generator.hpp"
#include "model/dag.hpp"
#include "workload/generator.hpp"

namespace tsce::dag {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// The hot-path kernels must agree bit for bit with the one from-scratch
/// reference on chains (the reference analyzes a chain as its path graph):
/// UtilizationState loads and slackness, analysis::relative_tightness, and
/// the session's commit verdicts and estimates.
class ChainEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChainEquivalence, UtilizationTightnessEstimatesAndVerdictMatch) {
  util::Rng rng(GetParam());
  auto config =
      workload::GeneratorConfig::for_scenario(workload::Scenario::kHighlyLoaded);
  config.num_machines = 4;
  config.num_strings = 8;
  const model::SystemModel linear = workload::generate(config, rng);
  const DagSystemModel dag = lift(linear);

  // A random full assignment, every string deployed.
  model::Allocation alloc(linear);
  util::Rng assign_rng(GetParam() + 99);
  for (std::size_t k = 0; k < linear.num_strings(); ++k) {
    for (std::size_t i = 0; i < linear.strings[k].size(); ++i) {
      alloc.assign(static_cast<StringId>(k), static_cast<AppIndex>(i),
                   static_cast<MachineId>(assign_rng.bounded(4)));
    }
    alloc.set_deployed(static_cast<StringId>(k), true);
  }

  // Utilizations and slackness.
  const auto kernel = analysis::UtilizationState::from_allocation(linear, alloc);
  const analysis::Loads loads = analysis::loads_of(dag, alloc);
  for (MachineId j = 0; j < 4; ++j) {
    EXPECT_EQ(bits(kernel.machine_util(j)),
              bits(loads.machine[static_cast<std::size_t>(j)]));
    for (MachineId j2 = 0; j2 < 4; ++j2) {
      EXPECT_EQ(bits(kernel.route_util(j, j2)), bits(loads.route_util(j, j2)));
    }
  }
  EXPECT_EQ(bits(kernel.slackness()), bits(loads.slackness()));

  // Tightness: the chain kernel's interleaved sum is the path's longest path.
  const analysis::TimeEstimates est = analysis::estimate_all(dag, alloc);
  for (std::size_t k = 0; k < linear.num_strings(); ++k) {
    EXPECT_EQ(bits(analysis::relative_tightness(linear, alloc, static_cast<StringId>(k))),
              bits(est.tightness[k]));
  }

  // Verdicts: the session commits strings in id order; each commit must
  // succeed exactly when the reference finds the accepted set plus the
  // candidate feasible.  Then the session's estimates and latency fold are
  // the reference's, bit for bit.
  analysis::AllocationSession session(linear);
  model::Allocation accepted(linear);
  for (std::size_t k = 0; k < linear.num_strings(); ++k) {
    const auto kid = static_cast<StringId>(k);
    model::Allocation candidate = accepted;
    std::vector<MachineId> assignment(linear.strings[k].size());
    for (std::size_t i = 0; i < assignment.size(); ++i) {
      assignment[i] = alloc.machine_of(kid, static_cast<AppIndex>(i));
      candidate.assign(kid, static_cast<AppIndex>(i), assignment[i]);
    }
    candidate.set_deployed(kid, true);
    const bool feasible = analysis::check_feasibility(dag, candidate).feasible();
    EXPECT_EQ(session.try_commit(kid, assignment), feasible) << "k=" << k;
    if (feasible) accepted = candidate;
  }
  const analysis::TimeEstimates ref = analysis::estimate_all(dag, session.allocation());
  for (std::size_t k = 0; k < linear.num_strings(); ++k) {
    const auto kid = static_cast<StringId>(k);
    if (!session.allocation().deployed(kid)) continue;
    const auto comp = session.comp_estimates(kid);
    const auto tran = session.tran_estimates(kid);
    ASSERT_EQ(comp.size(), ref.comp[k].size());
    ASSERT_EQ(tran.size(), ref.tran[k].size());
    double latency = 0.0;
    for (std::size_t i = 0; i < comp.size(); ++i) {
      EXPECT_EQ(bits(comp[i]), bits(ref.comp[k][i])) << "k=" << k << " i=" << i;
      latency += comp[i];
    }
    for (std::size_t e = 0; e < tran.size(); ++e) {
      EXPECT_EQ(bits(tran[e]), bits(ref.tran[k][e])) << "k=" << k << " e=" << e;
      latency += tran[e];
    }
    EXPECT_EQ(bits(latency), bits(ref.latency(kid))) << "k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChainEquivalence,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(DagAnalysis, DiamondLatencyIsCriticalPathNotSum) {
  // Diamond on one machine: comp 1 each, transfers free (same machine).
  // Chain-sum latency would be 4; the critical path is 3 (0 -> {1,2} -> 3).
  DagSystemModel m;
  m.network = model::Network(1, 5.0);
  DagString s;
  s.apps.resize(4);
  for (auto& a : s.apps) {
    a.nominal_time_s = {1.0};
    a.nominal_util = {0.25};
  }
  s.edges = {{0, 1, 10.0}, {0, 2, 20.0}, {1, 3, 30.0}, {2, 3, 40.0}};
  s.period_s = 10.0;
  s.max_latency_s = 50.0;
  m.strings.push_back(s);

  model::Allocation alloc(m);
  for (int i = 0; i < 4; ++i) alloc.assign(0, i, 0);
  alloc.set_deployed(0, true);
  const auto est = analysis::estimate_all(m, alloc);
  EXPECT_DOUBLE_EQ(est.latency(0), 3.0);
  EXPECT_DOUBLE_EQ(est.tightness[0], 3.0 / 50.0);
}

TEST(DagAnalysis, ParallelBranchTransfersLoadRoutesIndependently) {
  // Diamond split across two machines: branch transfers use different routes.
  DagSystemModel m;
  m.network = model::Network(2, 8.0);
  DagString s;
  s.apps.resize(4);
  for (auto& a : s.apps) {
    a.nominal_time_s = {1.0, 1.0};
    a.nominal_util = {0.25, 0.25};
  }
  s.edges = {{0, 1, 100.0}, {0, 2, 100.0}, {1, 3, 100.0}, {2, 3, 100.0}};
  s.period_s = 10.0;
  s.max_latency_s = 100.0;
  m.strings.push_back(s);

  model::Allocation alloc(m);
  alloc.assign(0, 0, 0);
  alloc.assign(0, 1, 1);  // branch 1 crosses 0->1 then 1->0
  alloc.assign(0, 2, 0);
  alloc.assign(0, 3, 0);
  alloc.set_deployed(0, true);
  const auto loads = analysis::loads_of(m, alloc);
  // Route 0->1 carries edge (0,1): 0.8 Mb / 10 s / 8 = 0.01.
  EXPECT_NEAR(loads.route_util(0, 1), 0.01, 1e-12);
  // Route 1->0 carries edge (1,3): same.
  EXPECT_NEAR(loads.route_util(1, 0), 0.01, 1e-12);
}

TEST(DagAnalysis, StageTwoViolationDetected) {
  // One slow machine; a 2-app fork whose period is too small for the work.
  DagSystemModel m;
  m.network = model::Network(1, 5.0);
  DagString tight;
  tight.apps.resize(1);
  tight.apps[0].nominal_time_s = {8.0};
  tight.apps[0].nominal_util = {0.9};
  tight.period_s = 20.0;
  tight.max_latency_s = 10.0;  // T = 0.8: high priority
  tight.worth = model::Worth::kHigh;
  m.strings.push_back(tight);
  DagString loose;
  loose.apps.resize(1);
  loose.apps[0].nominal_time_s = {2.0};
  loose.apps[0].nominal_util = {0.2};
  loose.period_s = 4.0;
  loose.max_latency_s = 1000.0;
  m.strings.push_back(loose);

  model::Allocation alloc(m);
  alloc.assign(0, 0, 0);
  alloc.assign(1, 0, 0);
  alloc.set_deployed(0, true);
  alloc.set_deployed(1, true);
  // loose: t_comp = 2 + (4/20)*7.2 = 3.44 <= 4 (ok); tighten the period:
  m.strings[1].period_s = 3.0;  // now 2 + (3/20)*7.2 = 3.08 > 3
  const auto report = analysis::check_feasibility(m, alloc);
  EXPECT_TRUE(report.stage_one_ok);
  EXPECT_FALSE(report.stage_two_ok);
}

TEST(DagAnalysis, PriorityRuleDecidesTheStageTwoVerdict) {
  // One machine, so every transfer is free.  String 0 is a diamond of four
  // 1 s apps (work 0.5 each) with P = 20, Lmax = 4: critical path 3, so
  // T = 0.75 but rate 1/20.  String 1 is one 2 s app (work 2) with P = 5,
  // Lmax = 100: T = 0.02 but rate 1/5.  Loads: 4 * 0.5 / 20 + 2 / 5 = 0.5.
  DagSystemModel m;
  m.network = model::Network(1, 5.0);
  DagString diamond;
  diamond.apps.resize(4);
  for (auto& a : diamond.apps) {
    a.nominal_time_s = {1.0};
    a.nominal_util = {0.5};
  }
  diamond.edges = {{0, 1, 10.0}, {0, 2, 10.0}, {1, 3, 10.0}, {2, 3, 10.0}};
  diamond.period_s = 20.0;
  diamond.max_latency_s = 4.0;
  m.strings.push_back(diamond);
  DagString single;
  single.apps.resize(1);
  single.apps[0].nominal_time_s = {2.0};
  single.apps[0].nominal_util = {1.0};
  single.period_s = 5.0;
  single.max_latency_s = 100.0;
  m.strings.push_back(single);

  model::Allocation alloc(m);
  for (int i = 0; i < 4; ++i) alloc.assign(0, i, 0);
  alloc.assign(1, 0, 0);
  alloc.set_deployed(0, true);
  alloc.set_deployed(1, true);

  // Relative tightness: the diamond preempts.  Its apps take 1 s each and
  // its latency is 3 <= 4; the single app waits (5/20) * 0.5 per diamond
  // app: 2 + 4 * 0.125 = 2.5 <= 5.
  using analysis::PriorityRule;
  const auto tight = analysis::estimate_all(m, alloc, PriorityRule::kRelativeTightness);
  EXPECT_DOUBLE_EQ(tight.tightness[0], 0.75);
  for (int i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(tight.comp[0][i], 1.0);
  EXPECT_DOUBLE_EQ(tight.latency(0), 3.0);
  EXPECT_DOUBLE_EQ(tight.comp[1][0], 2.5);
  EXPECT_TRUE(
      analysis::check_feasibility(m, alloc, PriorityRule::kRelativeTightness).feasible());

  // Rate-monotonic: the single app preempts.  Each diamond app waits
  // (20/5) * 2 = 8: 9 s each, within P = 20, but the critical path is
  // 27 > Lmax = 4.
  const auto rm = analysis::estimate_all(m, alloc, PriorityRule::kRateMonotonic);
  EXPECT_DOUBLE_EQ(rm.tightness[1], 0.2);
  for (int i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(rm.comp[0][i], 9.0);
  EXPECT_DOUBLE_EQ(rm.latency(0), 27.0);
  EXPECT_DOUBLE_EQ(rm.comp[1][0], 2.0);
  const auto report = analysis::check_feasibility(m, alloc, PriorityRule::kRateMonotonic);
  EXPECT_TRUE(report.stage_one_ok);
  EXPECT_FALSE(report.stage_two_ok);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].kind, analysis::ViolationKind::kLatency);
  EXPECT_EQ(report.violations[0].k, 0);
}

TEST(DagAnalysis, GeneratedSystemsAreValid) {
  util::Rng rng(7);
  DagGeneratorConfig config;
  config.num_strings = 12;
  const DagSystemModel m = generate_dag_system(config, rng);
  EXPECT_TRUE(m.validate().empty());
  EXPECT_EQ(m.num_strings(), 12u);
  for (const auto& s : m.strings) {
    EXPECT_GE(s.edges.size(), s.size() - 1);  // spanning tree at minimum
    EXPECT_FALSE(s.topological_order().empty());
    EXPECT_GT(s.period_s, 0.0);
    EXPECT_GT(s.max_latency_s, 0.0);
  }
}

}  // namespace
}  // namespace tsce::dag
