#include "core/local_search.hpp"

#include <gtest/gtest.h>

#include <limits>

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
  options.restarts = 2;
  options.max_evaluations = 300;
  const auto result = HillClimb(options).allocate(m, rng);
  EXPECT_TRUE(analysis::check_feasibility(m, result.allocation).feasible());
  EXPECT_GT(result.evaluations, 0u);
  EXPECT_EQ(result.order.size(), m.num_strings());
}

TEST(HillClimb, NeverWorseThanItsOwnStartingPoints) {
  // With one restart and a fixed seed, the climb starts from the order
  // restart 0's stream shuffles and only accepts improvements: the result
  // dominates that start.
  const SystemModel m = contended(3);
  HillClimbOptions options;
  options.restarts = 1;
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
  options.restarts = 100;
  options.max_evaluations = 50;
  util::Rng rng(6);
  const auto result = HillClimb(options).allocate(m, rng);
  // 100 restarts cannot each decode once within 50 evaluations: the restart
  // count is clamped to the budget.
  EXPECT_LE(result.evaluations, 55u);
}

TEST(HillClimb, ParallelRestartsDeterministicAcrossThreadCounts) {
  // Every restart derives its rng stream from its index, so the result must
  // be identical at any worker count (and across reruns) — including
  // threads = 1, the inline no-pool execution.
  const SystemModel m = contended(15);
  HillClimbOptions options;
  options.restarts = 4;
  options.max_evaluations = 400;
  auto run = [&](std::size_t threads) {
    HillClimbOptions o = options;
    o.threads = threads;
    util::Rng rng(16);
    return HillClimb(o).allocate(m, rng);
  };
  const auto one = run(1);
  const auto two = run(2);
  const auto three = run(3);
  const auto two_again = run(2);
  EXPECT_EQ(two.fitness.total_worth, three.fitness.total_worth);
  EXPECT_EQ(two.fitness.slackness, three.fitness.slackness);
  EXPECT_EQ(two.order, three.order);
  EXPECT_EQ(two.evaluations, three.evaluations);
  EXPECT_EQ(one.order, two.order);
  EXPECT_EQ(one.fitness.slackness, two.fitness.slackness);
  EXPECT_EQ(one.evaluations, two.evaluations);
  EXPECT_EQ(two.order, two_again.order);
  EXPECT_EQ(two.evaluations, two_again.evaluations);
  EXPECT_TRUE(analysis::check_feasibility(m, two.allocation).feasible());
}

TEST(HillClimb, ParallelBudgetIsSplitAcrossRestarts) {
  const SystemModel m = contended(17);
  HillClimbOptions options;
  options.restarts = 4;
  options.threads = 2;
  options.max_evaluations = 100;
  util::Rng rng(18);
  const auto result = HillClimb(options).allocate(m, rng);
  // Each restart gets a 25-evaluation slice plus its in-flight neighbor.
  EXPECT_LE(result.evaluations, 100u + options.restarts);
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
  // Even with aggressive temperature (accepting many downhill moves), the
  // reported result must dominate a plain random decode from the same seed
  // family almost surely; at minimum it must be internally consistent.
  const SystemModel m = contended(11);
  util::Rng rng(12);
  AnnealingOptions options;
  options.iterations = 400;
  options.initial_temperature = 50.0;
  const auto result = SimulatedAnnealing(options).allocate(m, rng);
  const auto replay = decode_order(m, result.order);
  EXPECT_EQ(replay.fitness.total_worth, result.fitness.total_worth);
  EXPECT_DOUBLE_EQ(replay.fitness.slackness, result.fitness.slackness);
}

TEST(SimulatedAnnealing, ColdAnnealingIsGreedy) {
  // Near-zero temperature: only improving moves are accepted, so the final
  // fitness is monotone in iterations (tested indirectly: more iterations
  // never hurt).
  const SystemModel m = contended(13);
  AnnealingOptions cold_short;
  cold_short.iterations = 50;
  cold_short.initial_temperature = 1e-9;
  AnnealingOptions cold_long = cold_short;
  cold_long.iterations = 400;
  util::Rng rng1(14);
  util::Rng rng2(14);
  const auto short_result = SimulatedAnnealing(cold_short).allocate(m, rng1);
  const auto long_result = SimulatedAnnealing(cold_long).allocate(m, rng2);
  EXPECT_FALSE(long_result.fitness < short_result.fitness);
}

TEST(SimulatedAnnealing, TemperingDeterministicAcrossThreadCounts) {
  const SystemModel m = contended(21);
  auto run = [&](std::size_t threads) {
    AnnealingOptions options;
    options.iterations = 400;
    options.replicas = 3;
    options.exchange_interval = 32;
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

TEST(SimulatedAnnealing, ExchangeIntervalZeroRunsIndependentChains) {
  // exchange_interval = 0 disables the barriers: the replicas become
  // independent cooled chains folded best-of.  Still deterministic across
  // thread counts, still feasible.
  const SystemModel m = contended(27);
  auto run = [&](std::size_t threads) {
    AnnealingOptions options;
    options.iterations = 300;
    options.replicas = 3;
    options.exchange_interval = 0;
    options.threads = threads;
    util::Rng rng(28);
    return SimulatedAnnealing(options).allocate(m, rng);
  };
  const auto one = run(1);
  const auto four = run(4);
  EXPECT_EQ(one.order, four.order);
  EXPECT_EQ(one.fitness.total_worth, four.fitness.total_worth);
  EXPECT_EQ(one.fitness.slackness, four.fitness.slackness);
  EXPECT_EQ(one.evaluations, four.evaluations);
  EXPECT_TRUE(analysis::check_feasibility(m, one.allocation).feasible());
}

TEST(SimulatedAnnealing, TemperingTracksBestNotCurrent) {
  // The reported order must replay to the reported fitness, across replica
  // exchanges too.
  const SystemModel m = contended(29);
  AnnealingOptions options;
  options.iterations = 400;
  options.initial_temperature = 50.0;
  options.threads = 2;
  util::Rng rng(30);
  const auto result = SimulatedAnnealing(options).allocate(m, rng);
  const auto replay = decode_order(m, result.order);
  EXPECT_EQ(replay.fitness.total_worth, result.fitness.total_worth);
  EXPECT_DOUBLE_EQ(replay.fitness.slackness, result.fitness.slackness);
}

}  // namespace
}  // namespace tsce::core
