#include "model/dag.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "model/allocation.hpp"
#include "testing/builders.hpp"

namespace tsce::dag {
namespace {

DagString diamond() {
  // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3.
  DagString s;
  s.apps.resize(4);
  for (auto& a : s.apps) {
    a.nominal_time_s = {1.0};
    a.nominal_util = {0.5};
  }
  s.edges = {{0, 1, 10.0}, {0, 2, 20.0}, {1, 3, 30.0}, {2, 3, 40.0}};
  s.period_s = 10.0;
  s.max_latency_s = 50.0;
  return s;
}

TEST(DagString, TopologicalOrderOfDiamond) {
  const DagString s = diamond();
  const auto order = s.topological_order();
  ASSERT_EQ(order.size(), 4u);
  std::vector<std::size_t> pos(4);
  for (std::size_t p = 0; p < 4; ++p) pos[static_cast<std::size_t>(order[p])] = p;
  for (const DagEdge& e : s.edges) {
    EXPECT_LT(pos[static_cast<std::size_t>(e.from)],
              pos[static_cast<std::size_t>(e.to)]);
  }
}

TEST(DagString, CycleYieldsEmptyOrder) {
  DagString s = diamond();
  s.edges.push_back({3, 0, 5.0});
  EXPECT_TRUE(s.topological_order().empty());
}

TEST(DagString, EdgeAdjacency) {
  const DagString s = diamond();
  const auto in = s.edges_in();
  const auto out = s.edges_out();
  EXPECT_TRUE(in[0].empty());
  EXPECT_EQ(out[0].size(), 2u);
  EXPECT_EQ(in[3].size(), 2u);
  EXPECT_TRUE(out[3].empty());
}

TEST(DagString, EdgeAdjacencyListsEachBucketInEdgeOrder) {
  DagString s = diamond();
  std::reverse(s.edges.begin(), s.edges.end());  // 2->3, 1->3, 0->2, 0->1
  const auto in = s.edges_in();
  const auto out = s.edges_out();
  using Ids = std::vector<std::size_t>;
  const auto ids = [](std::span<const std::size_t> b) { return Ids(b.begin(), b.end()); };
  EXPECT_EQ(ids(in[0]), Ids{});
  EXPECT_EQ(ids(in[1]), Ids{3});
  EXPECT_EQ(ids(in[2]), Ids{2});
  EXPECT_EQ(ids(in[3]), (Ids{0, 1}));
  EXPECT_EQ(ids(out[0]), (Ids{2, 3}));
  EXPECT_EQ(ids(out[1]), Ids{1});
  EXPECT_EQ(ids(out[2]), Ids{0});
  EXPECT_EQ(ids(out[3]), Ids{});
}

TEST(DagSystemModel, ValidateAcceptsDiamond) {
  DagSystemModel m;
  m.network = model::Network(1, 5.0);
  m.strings.push_back(diamond());
  EXPECT_TRUE(m.validate().empty());
}

TEST(DagSystemModel, ValidateRejectsCycle) {
  DagSystemModel m;
  m.network = model::Network(1, 5.0);
  m.strings.push_back(diamond());
  m.strings[0].edges.push_back({3, 0, 5.0});
  EXPECT_FALSE(m.validate().empty());
}

TEST(DagSystemModel, ValidateRejectsSelfLoopAndBadEndpoint) {
  DagSystemModel m;
  m.network = model::Network(1, 5.0);
  m.strings.push_back(diamond());
  m.strings[0].edges.push_back({1, 1, 5.0});
  EXPECT_FALSE(m.validate().empty());
  m.strings[0].edges.back() = {0, 99, 5.0};
  EXPECT_FALSE(m.validate().empty());
}

TEST(DagConversion, ChainRoundTrip) {
  const model::SystemModel linear = testing::two_machine_system();
  for (const auto& s : linear.strings) {
    const DagString chain = chain_from_app_string(s);
    EXPECT_EQ(chain.edges.size(), s.size() - 1);
    const model::AppString back = to_app_string(chain);
    EXPECT_EQ(back.period_s, s.period_s);
    ASSERT_EQ(back.size(), s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
      EXPECT_DOUBLE_EQ(back.apps[i].output_kbytes, s.apps[i].output_kbytes);
    }
  }
}

TEST(DagConversion, NonPathRejected) {
  EXPECT_THROW((void)to_app_string(diamond()), std::invalid_argument);
}

TEST(DagConversion, LiftPreservesCounts) {
  const model::SystemModel linear = testing::two_machine_system();
  const DagSystemModel lifted = lift(linear);
  EXPECT_EQ(lifted.num_machines(), linear.num_machines());
  EXPECT_EQ(lifted.num_strings(), linear.num_strings());
  EXPECT_EQ(lifted.total_worth_available(), linear.total_worth_available());
  EXPECT_TRUE(lifted.validate().empty());
}

TEST(DagSystemModel, AllocationHasOneRowPerString) {
  DagSystemModel m;
  m.network = model::Network(2, 5.0);
  m.strings.push_back(diamond());
  m.strings[0].apps[0].nominal_time_s = {1.0, 1.0};
  // fix sizes for 2 machines
  for (auto& a : m.strings[0].apps) {
    a.nominal_time_s.assign(2, 1.0);
    a.nominal_util.assign(2, 0.5);
  }
  model::Allocation alloc(m);
  ASSERT_EQ(alloc.num_strings(), 1u);
  EXPECT_EQ(alloc.string_size(0), 4u);
  EXPECT_EQ(alloc.num_deployed(), 0u);
  alloc.assign(0, 0, 1);
  EXPECT_EQ(alloc.machine_of(0, 0), 1);
  alloc.set_deployed(0, true);
  EXPECT_EQ(alloc.num_deployed(), 1u);
  alloc.clear_string(0);
  EXPECT_EQ(alloc.machine_of(0, 0), model::kUnassigned);
  EXPECT_FALSE(alloc.deployed(0));
}

}  // namespace
}  // namespace tsce::dag
