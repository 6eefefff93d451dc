#include "core/evaluator.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "core/decode.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace tsce::core {
namespace {

using model::StringId;
using model::SystemModel;

SystemModel make_instance(std::uint64_t seed) {
  util::Rng rng(seed);
  auto config =
      workload::GeneratorConfig::for_scenario(workload::Scenario::kHighlyLoaded);
  config.num_machines = 4;
  config.num_strings = 18;
  return workload::generate(config, rng);
}

std::vector<std::vector<StringId>> make_orders(const SystemModel& m,
                                               std::size_t count,
                                               std::uint64_t seed) {
  std::vector<std::vector<StringId>> orders(count, identity_order(m));
  util::Rng rng(seed);
  for (auto& order : orders) rng.shuffle(order);
  return orders;
}

void expect_fitness_equal(const std::vector<analysis::Fitness>& a,
                          const std::vector<analysis::Fitness>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].total_worth, b[i].total_worth) << "i=" << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i].slackness),
              std::bit_cast<std::uint64_t>(b[i].slackness))
        << "i=" << i;
  }
}

TEST(BatchEvaluator, SerialMatchesFreshDecodes) {
  const SystemModel m = make_instance(3);
  const auto orders = make_orders(m, 10, 7);
  BatchEvaluator evaluator(m, 1);
  EXPECT_EQ(evaluator.num_workers(), 1u);
  const auto fitness = evaluator.evaluate_fitness(orders);
  ASSERT_EQ(fitness.size(), orders.size());
  for (std::size_t i = 0; i < orders.size(); ++i) {
    const DecodeResult fresh = decode_order(m, orders[i]);
    EXPECT_EQ(fitness[i].total_worth, fresh.fitness.total_worth);
    EXPECT_EQ(fitness[i].slackness, fresh.fitness.slackness);
  }
}

TEST(BatchEvaluator, ByteIdenticalAcrossThreadCounts) {
  const SystemModel m = make_instance(4);
  const auto orders = make_orders(m, 24, 13);
  BatchEvaluator serial(m, 1);
  const auto baseline = serial.evaluate_fitness(orders);
  for (const std::size_t threads : {2u, 4u}) {
    BatchEvaluator parallel(m, threads);
    EXPECT_EQ(parallel.num_workers(), threads);
    expect_fitness_equal(parallel.evaluate_fitness(orders), baseline);
    // Warm contexts (arbitrary interleaving history) must not change results.
    expect_fitness_equal(parallel.evaluate_fitness(orders), baseline);
  }
}

TEST(BatchEvaluator, FitnessConvenienceMatchesEvaluate) {
  // evaluate_fitness (the decisive-prefix memo path) agrees with a full
  // decode of every order through for_each on the same workers.
  const SystemModel m = make_instance(5);
  const auto orders = make_orders(m, 12, 17);
  BatchEvaluator evaluator(m, 2);
  std::vector<analysis::Fitness> decoded(orders.size());
  evaluator.for_each(orders.size(), [&](std::size_t i, DecodeContext& ctx) {
    decoded[i] = decode_order_into(ctx, orders[i]).fitness;
  });
  expect_fitness_equal(evaluator.evaluate_fitness(orders), decoded);
}

TEST(BatchEvaluator, ForEachWithIndexedStreamsIsDeterministic) {
  const SystemModel m = make_instance(6);
  constexpr std::size_t kItems = 16;
  constexpr std::uint64_t kSeed = 99;
  auto run = [&](std::size_t threads) {
    std::vector<std::uint64_t> values(kItems);
    BatchEvaluator evaluator(m, threads);
    evaluator.for_each(kItems, [&](std::size_t i, DecodeContext&) {
      util::Rng item_rng = util::Rng::stream(kSeed, i);
      values[i] = item_rng();
    });
    return values;
  };
  const auto serial = run(1);
  EXPECT_EQ(run(2), serial);
  EXPECT_EQ(run(3), serial);
}

TEST(BatchEvaluator, ZeroThreadsUsesHardwareConcurrency) {
  const SystemModel m = make_instance(8);
  BatchEvaluator evaluator(m, 0);
  EXPECT_GE(evaluator.num_workers(), 1u);
  const auto orders = make_orders(m, 4, 21);
  BatchEvaluator serial(m, 1);
  expect_fitness_equal(evaluator.evaluate_fitness(orders),
                       serial.evaluate_fitness(orders));
}

}  // namespace
}  // namespace tsce::core
