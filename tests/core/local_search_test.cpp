#include "core/local_search.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "analysis/feasibility.hpp"
#include "core/decode.hpp"
#include "workload/generator.hpp"

namespace tsce::core {
namespace {

using model::SystemModel;

SystemModel contended(std::uint64_t seed, std::size_t machines = 3,
                      std::size_t strings = 10) {
  util::Rng rng(seed);
  auto config =
      workload::GeneratorConfig::for_scenario(workload::Scenario::kHighlyLoaded);
  config.num_machines = machines;
  config.num_strings = strings;
  return generate(config, rng);
}

TEST(HillClimb, ProducesFeasibleAllocation) {
  const SystemModel m = contended(1);
  util::Rng rng(2);
  HillClimbOptions options;
  options.max_evaluations = 300;
  const auto result = HillClimb(options).allocate(m, rng);
  EXPECT_TRUE(analysis::check_feasibility(m, result.allocation).feasible());
  EXPECT_GT(result.evaluations, 0u);
  EXPECT_EQ(result.order.size(), m.num_strings());
}

TEST(HillClimb, NeverWorseThanItsOwnStartingPoints) {
  // Restart 0 climbs from the order its stream shuffles and only accepts
  // improvements, and the best restart wins: the result dominates that
  // start.
  const SystemModel m = contended(3);
  HillClimbOptions options;
  options.max_evaluations = 200;
  util::Rng rng(4);
  const auto result = HillClimb(options).allocate(m, rng);
  util::Rng rng_replay(4);
  util::Rng restart_rng = util::Rng::stream(rng_replay(), 0);
  auto start = identity_order(m);
  restart_rng.shuffle(start);
  const auto start_fitness = decode_order(m, start).fitness;
  EXPECT_FALSE(result.fitness < start_fitness);
}

TEST(HillClimb, RespectsEvaluationBudget) {
  const SystemModel m = contended(5);
  HillClimbOptions options;
  options.max_evaluations = 3;
  util::Rng rng(6);
  const auto result = HillClimb(options).allocate(m, rng);
  // Four restarts cannot each decode once within 3 evaluations: the restart
  // count is clamped to the budget, and each restart stops after its start
  // decode.
  EXPECT_EQ(result.evaluations, 3u);
}

TEST(HillClimb, RerunIsByteIdentical) {
  const SystemModel m = contended(15);
  HillClimbOptions options;
  options.max_evaluations = 400;
  auto run = [&] {
    util::Rng rng(16);
    return HillClimb(options).allocate(m, rng);
  };
  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first.order, second.order);
  EXPECT_EQ(first.fitness.total_worth, second.fitness.total_worth);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(first.fitness.slackness),
            std::bit_cast<std::uint64_t>(second.fitness.slackness));
  EXPECT_EQ(first.evaluations, second.evaluations);
  EXPECT_EQ(first.allocation, second.allocation);
  EXPECT_TRUE(analysis::check_feasibility(m, first.allocation).feasible());
}

TEST(HillClimb, ParallelBudgetIsSplitAcrossRestarts) {
  const SystemModel m = contended(17);
  HillClimbOptions options;
  options.max_evaluations = 100;
  util::Rng rng(18);
  const auto result = HillClimb(options).allocate(m, rng);
  // Each of the four restarts gets a 25-evaluation slice plus its in-flight
  // neighbor.
  EXPECT_LE(result.evaluations, 100u + 4u);
}

TEST(HillClimb, SingleStringInstance) {
  util::Rng rng(7);
  auto config =
      workload::GeneratorConfig::for_scenario(workload::Scenario::kLightlyLoaded);
  config.num_machines = 2;
  config.num_strings = 1;
  const SystemModel m = generate(config, rng);
  util::Rng search_rng(8);
  const auto result = HillClimb{}.allocate(m, search_rng);
  EXPECT_EQ(result.order.size(), 1u);
}

TEST(SimulatedAnnealing, ProducesFeasibleAllocation) {
  const SystemModel m = contended(9);
  util::Rng rng(10);
  AnnealingOptions options;
  options.iterations = 300;
  const auto result = SimulatedAnnealing(options).allocate(m, rng);
  EXPECT_TRUE(analysis::check_feasibility(m, result.allocation).feasible());
  EXPECT_EQ(result.evaluations, options.iterations + options.replicas);
}

TEST(SimulatedAnnealing, TracksBestNotCurrent) {
  // The chains accept downhill moves, so the current order drifts below the
  // incumbent; the reported order must replay to the reported fitness.
  const SystemModel m = contended(11);
  util::Rng rng(12);
  AnnealingOptions options;
  options.iterations = 400;
  const auto result = SimulatedAnnealing(options).allocate(m, rng);
  const auto replay = decode_order(m, result.order);
  EXPECT_EQ(replay.fitness.total_worth, result.fitness.total_worth);
  EXPECT_DOUBLE_EQ(replay.fitness.slackness, result.fitness.slackness);
}

TEST(SimulatedAnnealing, TemperingDeterministicAcrossThreadCounts) {
  const SystemModel m = contended(21);
  auto run = [&](std::size_t threads) {
    AnnealingOptions options;
    options.iterations = 400;
    options.replicas = 3;
    options.threads = threads;
    util::Rng rng(22);
    return SimulatedAnnealing(options).allocate(m, rng);
  };
  const auto one = run(1);
  const auto two = run(2);
  const auto eight = run(8);  // threads > replicas: workers cap at 3
  const auto two_again = run(2);
  EXPECT_EQ(one.order, two.order);
  EXPECT_EQ(one.fitness.total_worth, two.fitness.total_worth);
  EXPECT_EQ(one.fitness.slackness, two.fitness.slackness);
  EXPECT_EQ(one.evaluations, two.evaluations);
  EXPECT_EQ(two.order, eight.order);
  EXPECT_EQ(two.evaluations, eight.evaluations);
  EXPECT_EQ(two.order, two_again.order);
  EXPECT_EQ(two.fitness.slackness, two_again.fitness.slackness);
  EXPECT_TRUE(analysis::check_feasibility(m, two.allocation).feasible());
}

/// Runs tempering on \p m at \p replicas and \p threads; everything else is
/// fixed, so two calls differ only in how replicas are split over workers.
AllocatorResult temper(const SystemModel& m, std::size_t replicas,
                       std::size_t threads) {
  AnnealingOptions options;
  options.iterations = 700;
  options.replicas = replicas;
  options.threads = threads;
  util::Rng rng(28);
  return SimulatedAnnealing(options).allocate(m, rng);
}

void expect_same_result(const AllocatorResult& a, const AllocatorResult& b) {
  EXPECT_EQ(a.order, b.order);
  EXPECT_EQ(a.fitness.total_worth, b.fitness.total_worth);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.fitness.slackness),
            std::bit_cast<std::uint64_t>(b.fitness.slackness));
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.allocation, b.allocation);
}

TEST(SimulatedAnnealing, UnevenReplicaSplitMatchesOneThread) {
  // Five replicas over 2, 3 and 4 workers leave some workers one replica
  // more than others (worker w steps replicas w, w + W, ...); 8 threads cap
  // at five workers of one replica each.  Every split must match the
  // inline run byte for byte.
  const SystemModel m = contended(27, 4, 14);
  const AllocatorResult one = temper(m, 5, 1);
  EXPECT_TRUE(analysis::check_feasibility(m, one.allocation).feasible());
  EXPECT_EQ(one.evaluations, 700u + 5u);
  for (const std::size_t threads : {2u, 3u, 4u, 8u}) {
    SCOPED_TRACE(threads);
    expect_same_result(one, temper(m, 5, threads));
  }
}

TEST(SimulatedAnnealing, SingleReplicaIgnoresExtraThreads) {
  // One replica caps the workers at one: no pool and no exchanges, so four
  // threads run exactly the inline chain.
  const SystemModel m = contended(27, 4, 14);
  const AllocatorResult one = temper(m, 1, 1);
  EXPECT_EQ(one.evaluations, 700u + 1u);
  expect_same_result(one, temper(m, 1, 4));
}

TEST(SimulatedAnnealing, TemperingBudgetMatchesSerialEngine) {
  // Tempering splits `iterations` across the replicas and each replica
  // charges one decode for its start order, so the total evaluation count is
  // iterations + replicas — a single chain's iterations + 1 generalized to N
  // chains.  Holds whether or not replicas divides evenly.
  const SystemModel m = contended(23);
  AnnealingOptions options;
  options.iterations = 305;
  options.replicas = 4;
  util::Rng rng(24);
  const auto result = SimulatedAnnealing(options).allocate(m, rng);
  EXPECT_EQ(result.evaluations, 305u + 4u);
}

TEST(SimulatedAnnealing, DegenerateReplicaCounts) {
  // replicas = 0 is clamped to one chain, so it must agree byte-for-byte
  // with replicas = 1 (both: a single chain, no exchanges possible).
  const SystemModel m = contended(25);
  auto run = [&](std::size_t replicas) {
    AnnealingOptions options;
    options.iterations = 200;
    options.replicas = replicas;
    util::Rng rng(26);
    return SimulatedAnnealing(options).allocate(m, rng);
  };
  const auto zero = run(0);
  const auto one = run(1);
  EXPECT_EQ(zero.order, one.order);
  EXPECT_EQ(zero.fitness.total_worth, one.fitness.total_worth);
  EXPECT_EQ(zero.fitness.slackness, one.fitness.slackness);
  EXPECT_EQ(zero.evaluations, one.evaluations);
  EXPECT_TRUE(analysis::check_feasibility(m, one.allocation).feasible());
}

TEST(SimulatedAnnealing, TemperingTracksBestNotCurrent) {
  // The reported order must replay to the reported fitness, across replica
  // exchanges too.
  const SystemModel m = contended(29);
  AnnealingOptions options;
  options.iterations = 400;
  options.threads = 2;
  util::Rng rng(30);
  const auto result = SimulatedAnnealing(options).allocate(m, rng);
  const auto replay = decode_order(m, result.order);
  EXPECT_EQ(replay.fitness.total_worth, result.fitness.total_worth);
  EXPECT_DOUBLE_EQ(replay.fitness.slackness, result.fitness.slackness);
}

}  // namespace
}  // namespace tsce::core
