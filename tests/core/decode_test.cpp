#include "core/decode.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "analysis/feasibility.hpp"
#include "model/system_model.hpp"
#include "testing/builders.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace tsce::core {
namespace {

using model::StringId;
using model::SystemModel;
using model::SystemModelBuilder;
using model::Worth;

TEST(Decode, AllStringsFitInRelaxedSystem) {
  const SystemModel m = testing::two_machine_system();
  const auto order = identity_order(m);
  const DecodeResult r = decode_order(m, order);
  EXPECT_EQ(r.strings_deployed, 2u);
  EXPECT_EQ(r.first_failed, -1);
  EXPECT_EQ(r.fitness.total_worth, 110);
  EXPECT_TRUE(analysis::check_feasibility(m, r.allocation).feasible());
}

TEST(Decode, PrefixOrderDeploysSubset) {
  const SystemModel m = testing::two_machine_system();
  const std::vector<StringId> order{1};
  const DecodeResult r = decode_order(m, order);
  EXPECT_EQ(r.strings_deployed, 1u);
  EXPECT_TRUE(r.allocation.deployed(1));
  EXPECT_FALSE(r.allocation.deployed(0));
  EXPECT_EQ(r.fitness.total_worth, 10);
}

/// One machine; string utilizations 0.4, 0.7, 0.05: the second commit
/// overloads the machine and terminates the decode even though the third
/// string alone would still fit.
SystemModel stop_not_skip_system() {
  SystemModelBuilder b(1);
  b.begin_string(10.0, 1000.0, Worth::kLow, "A");
  b.add_app(4.0, 1.0, 0.0);  // 0.4
  b.begin_string(10.0, 1000.0, Worth::kLow, "B");
  b.add_app(7.0, 1.0, 0.0);  // 0.7
  b.begin_string(10.0, 1000.0, Worth::kLow, "C");
  b.add_app(0.5, 1.0, 0.0);  // 0.05
  return b.build();
}

TEST(Decode, StopsAtFirstFailureNotSkips) {
  const SystemModel m = stop_not_skip_system();
  const auto order = identity_order(m);
  const DecodeResult r = decode_order(m, order);
  EXPECT_EQ(r.strings_deployed, 1u);
  EXPECT_EQ(r.first_failed, 1);
  EXPECT_TRUE(r.allocation.deployed(0));
  EXPECT_FALSE(r.allocation.deployed(1));
  EXPECT_FALSE(r.allocation.deployed(2));  // never attempted
}

TEST(Decode, OrderChangesOutcome) {
  const SystemModel m = stop_not_skip_system();
  // Order C, A, B: C (0.05) + A (0.4) fit; B (0.7) fails.
  const std::vector<StringId> order{2, 0, 1};
  const DecodeResult r = decode_order(m, order);
  EXPECT_EQ(r.strings_deployed, 2u);
  EXPECT_EQ(r.first_failed, 1);
  EXPECT_TRUE(r.allocation.deployed(0));
  EXPECT_TRUE(r.allocation.deployed(2));
}

TEST(Decode, EmptyOrderDeploysNothing) {
  const SystemModel m = testing::two_machine_system();
  const DecodeResult r = decode_order(m, {});
  EXPECT_EQ(r.strings_deployed, 0u);
  EXPECT_EQ(r.fitness.total_worth, 0);
  EXPECT_DOUBLE_EQ(r.fitness.slackness, 1.0);
}

TEST(Decode, IdentityOrderHelper) {
  const SystemModel m = testing::two_machine_system();
  const auto order = identity_order(m);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 1);
}

TEST(Decode, DeployedSetAlwaysPassesFeasibility) {
  const SystemModel m = stop_not_skip_system();
  for (const std::vector<StringId>& order :
       {std::vector<StringId>{0, 1, 2}, {1, 0, 2}, {2, 1, 0}, {2, 0, 1}}) {
    const DecodeResult r = decode_order(m, order);
    EXPECT_TRUE(analysis::check_feasibility(m, r.allocation).feasible());
  }
}

TEST(DecodeContext, PushPopRewindPrimitives) {
  const SystemModel m = testing::two_machine_system();
  DecodeContext ctx(m);
  EXPECT_EQ(ctx.depth(), 0u);
  EXPECT_TRUE(ctx.try_push(0));
  EXPECT_TRUE(ctx.try_push(1));
  EXPECT_EQ(ctx.depth(), 2u);
  EXPECT_EQ(ctx.fitness().total_worth, 110);
  ctx.pop();
  EXPECT_EQ(ctx.depth(), 1u);
  EXPECT_EQ(ctx.fitness().total_worth, 100);
  EXPECT_TRUE(ctx.try_push(1));
  ctx.rewind_to(0);
  EXPECT_EQ(ctx.depth(), 0u);
  EXPECT_EQ(ctx.fitness().total_worth, 0);
  EXPECT_DOUBLE_EQ(ctx.fitness().slackness, 1.0);
  // The context is reusable after a full rewind.
  EXPECT_TRUE(ctx.try_push(0));
  EXPECT_EQ(ctx.fitness().total_worth, 100);
}

/// Compares an incremental decode against a from-scratch decode of the same
/// order.  Equality is exact (operator==, no tolerance): the prefix-reuse
/// engine promises bit-identical results.
void expect_matches_from_scratch(DecodeContext& ctx, const SystemModel& m,
                                 const std::vector<StringId>& order) {
  const DecodeOutcome inc = decode_order_into(ctx, order);
  const DecodeResult fresh = decode_order(m, order);
  EXPECT_EQ(inc.fitness.total_worth, fresh.fitness.total_worth);
  EXPECT_EQ(inc.fitness.slackness, fresh.fitness.slackness);
  EXPECT_EQ(inc.strings_deployed, fresh.strings_deployed);
  EXPECT_EQ(inc.first_failed, fresh.first_failed);
  EXPECT_LE(inc.prefix_reused, order.size());
  for (std::size_t k = 0; k < m.num_strings(); ++k) {
    const auto id = static_cast<StringId>(k);
    ASSERT_EQ(ctx.allocation().deployed(id), fresh.allocation.deployed(id))
        << "k=" << k;
    if (!fresh.allocation.deployed(id)) continue;
    for (std::size_t i = 0; i < m.strings[k].size(); ++i) {
      EXPECT_EQ(ctx.allocation().machine_of(id, static_cast<model::AppIndex>(i)),
                fresh.allocation.machine_of(id, static_cast<model::AppIndex>(i)))
          << "k=" << k << " i=" << i;
    }
  }
}

/// Differential fuzz (fixed seeds): a long stream of swap-neighbor and
/// fully-reshuffled orders through one context must match from-scratch
/// decodes exactly, on both an overloaded and a lightly loaded instance.
TEST(DecodeContext, PrefixReuseMatchesFromScratchFuzz) {
  for (const auto scenario :
       {workload::Scenario::kHighlyLoaded, workload::Scenario::kLightlyLoaded}) {
    for (const std::uint64_t seed : {11ULL, 29ULL}) {
      util::Rng rng(seed);
      auto config = workload::GeneratorConfig::for_scenario(scenario);
      config.num_machines = 4;
      config.num_strings = 20;
      const SystemModel m = workload::generate(config, rng);
      DecodeContext ctx(m);
      std::vector<StringId> order = identity_order(m);
      rng.shuffle(order);
      for (int iter = 0; iter < 60; ++iter) {
        SCOPED_TRACE("seed=" + std::to_string(seed) + " iter=" + std::to_string(iter));
        if (iter % 15 == 14) {
          rng.shuffle(order);  // occasional full reshuffle: tiny prefix
        } else {
          const std::size_t i = rng.bounded(order.size());
          std::size_t j = rng.bounded(order.size());
          while (j == i) j = rng.bounded(order.size());
          std::swap(order[i], order[j]);
        }
        expect_matches_from_scratch(ctx, m, order);
      }
      // Shrinking and growing the order length exercises rewinds past the
      // end of the new order.
      std::vector<StringId> prefix(order.begin(), order.begin() + 5);
      expect_matches_from_scratch(ctx, m, prefix);
      expect_matches_from_scratch(ctx, m, order);
    }
  }
}

/// Random walks of the incremental primitives on two contexts of one model:
/// try_push of a random uncommitted string, pop, rewind_to a random depth
/// (0 included) and clone_state_from the other context.  After every step
/// the walked context's allocation and fitness bits equal a from-scratch
/// decode of its committed prefix.
TEST(DecodeContext, RandomWalkMatchesDecodeOfCommittedPrefix) {
  for (const auto scenario :
       {workload::Scenario::kHighlyLoaded, workload::Scenario::kQosLimited,
        workload::Scenario::kLightlyLoaded}) {
    util::Rng rng(static_cast<std::uint64_t>(scenario) * 7 + 3);
    auto config = workload::GeneratorConfig::for_scenario(scenario);
    config.num_machines = 4;
    config.num_strings = 24;
    const SystemModel m = workload::generate(config, rng);
    DecodeContext contexts[2] = {DecodeContext(m), DecodeContext(m)};
    std::size_t pushes = 0;
    std::size_t undos = 0;
    for (int step = 0; step < 400; ++step) {
      SCOPED_TRACE("scenario=" + std::to_string(static_cast<int>(scenario)) +
                   " step=" + std::to_string(step));
      const std::size_t c = rng.bounded(2);
      DecodeContext& ctx = contexts[c];
      const auto r = rng.bounded(10);
      if (r < 6) {
        std::vector<StringId> free;
        for (std::size_t k = 0; k < m.num_strings(); ++k) {
          if (!ctx.allocation().deployed(static_cast<StringId>(k))) {
            free.push_back(static_cast<StringId>(k));
          }
        }
        if (!free.empty()) pushes += ctx.try_push(free[rng.bounded(free.size())]);
      } else if (r == 6 && ctx.depth() > 0) {
        ctx.pop();
        ++undos;
      } else if (r < 9) {
        ctx.rewind_to(rng.bounded(ctx.depth() + 1));
        ++undos;
      } else {
        ctx.clone_state_from(contexts[1 - c]);
      }
      const std::vector<StringId> prefix(ctx.committed().begin(),
                                         ctx.committed().end());
      const DecodeResult fresh = decode_order(m, prefix);
      ASSERT_EQ(fresh.strings_deployed, prefix.size());
      ASSERT_TRUE(ctx.allocation() == fresh.allocation);
      ASSERT_EQ(ctx.fitness().total_worth, fresh.fitness.total_worth);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(ctx.fitness().slackness),
                std::bit_cast<std::uint64_t>(fresh.fitness.slackness));
    }
    EXPECT_GT(pushes, 50u);
    EXPECT_GT(undos, 50u);
  }
}

}  // namespace
}  // namespace tsce::core
