#include "genitor/genitor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace tsce::genitor {
namespace {

TEST(BiasedRank, ZeroDrawSelectsTopRank) {
  EXPECT_EQ(biased_rank(250, 1.6, 0.0), 0u);
}

TEST(BiasedRank, AlwaysInRange) {
  util::Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(biased_rank(250, 1.6, rng.uniform()), 250u);
  }
  // The limit u -> 1 maps to the bottom rank.
  EXPECT_EQ(biased_rank(10, 1.6, 0.999999), 9u);
}

TEST(BiasedRank, TopIsBiasTimesMoreLikelyThanMedian) {
  // Whitley's definition: with bias b, rank 0 is selected b times more often
  // than the median rank.  Estimate empirically.
  util::Rng rng(2);
  constexpr std::size_t kN = 100;
  constexpr int kDraws = 400000;
  std::vector<int> hits(kN, 0);
  for (int i = 0; i < kDraws; ++i) hits[biased_rank(kN, 1.5, rng.uniform())]++;
  const double top = hits[0];
  const double median = (hits[49] + hits[50]) / 2.0;
  EXPECT_NEAR(top / median, 1.5, 0.12);
}

TEST(BiasedRank, HigherBiasConcentratesOnTop) {
  util::Rng rng(3);
  constexpr std::size_t kN = 100;
  int top_low_bias = 0, top_high_bias = 0;
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.uniform();
    if (biased_rank(kN, 1.1, u) < 10) ++top_low_bias;
    if (biased_rank(kN, 2.0, u) < 10) ++top_high_bias;
  }
  EXPECT_GT(top_high_bias, top_low_bias);
}

/// Toy permutation problem: fitness = number of fixed points (c[i] == i).
/// Optimum is the identity permutation with fitness n.
struct FixedPointProblem {
  using Chromosome = std::vector<int>;
  using Fitness = int;

  std::size_t n;

  [[nodiscard]] Fitness evaluate(const Chromosome& c) const {
    int score = 0;
    for (std::size_t i = 0; i < c.size(); ++i) {
      if (c[i] == static_cast<int>(i)) ++score;
    }
    return score;
  }

  [[nodiscard]] std::pair<Chromosome, Chromosome> crossover(const Chromosome& a,
                                                            const Chromosome& b,
                                                            util::Rng& rng) const {
    // Reorder a's random-length prefix by the relative order in b (and vice
    // versa) — same operator family as the PSG heuristic.
    const auto cut =
        static_cast<std::size_t>(rng.uniform_int(1, static_cast<std::int64_t>(n) - 1));
    auto reorder = [&](const Chromosome& base, const Chromosome& pattern) {
      std::vector<std::size_t> pos(n);
      for (std::size_t p = 0; p < n; ++p) pos[static_cast<std::size_t>(pattern[p])] = p;
      Chromosome child = base;
      std::sort(child.begin(), child.begin() + static_cast<std::ptrdiff_t>(cut),
                [&](int x, int y) {
                  return pos[static_cast<std::size_t>(x)] < pos[static_cast<std::size_t>(y)];
                });
      return child;
    };
    return {reorder(a, b), reorder(b, a)};
  }

  [[nodiscard]] Chromosome mutate(const Chromosome& c, util::Rng& rng) const {
    Chromosome child = c;
    const std::size_t i = rng.bounded(n);
    std::size_t j = rng.bounded(n);
    while (j == i) j = rng.bounded(n);
    std::swap(child[i], child[j]);
    return child;
  }

  [[nodiscard]] Chromosome random_chromosome(util::Rng& rng) const {
    Chromosome c(n);
    std::iota(c.begin(), c.end(), 0);
    rng.shuffle(c);
    return c;
  }
};

static_assert(Problem<FixedPointProblem>);

TEST(Genitor, ImprovesOverRandomStart) {
  const FixedPointProblem problem{20};
  Config config;
  config.population_size = 40;
  config.max_iterations = 1500;
  config.stagnation_limit = 1500;
  Genitor<FixedPointProblem> ga(problem, config);
  util::Rng rng(7);

  // Baseline: best of 40 random chromosomes.
  util::Rng baseline_rng(7);
  int best_random = 0;
  for (int i = 0; i < 40; ++i) {
    best_random =
        std::max(best_random, problem.evaluate(problem.random_chromosome(baseline_rng)));
  }

  const auto result = ga.run(rng);
  EXPECT_GT(result.best_fitness, best_random);
  EXPECT_GE(result.best_fitness, 15);  // near-optimal on this easy landscape
  EXPECT_EQ(problem.evaluate(result.best), result.best_fitness);
}

TEST(Genitor, RejectsEmptyPopulation) {
  const FixedPointProblem problem{4};
  Config config;
  config.population_size = 0;
  EXPECT_THROW(Genitor<FixedPointProblem>(problem, config), std::invalid_argument);
}

TEST(Genitor, SeedsEnterPopulation) {
  const FixedPointProblem problem{12};
  Config config;
  config.population_size = 10;
  config.max_iterations = 0;  // no search: result == best initial member
  Genitor<FixedPointProblem> ga(problem, config);
  util::Rng rng(8);
  std::vector<int> identity(12);
  std::iota(identity.begin(), identity.end(), 0);
  const auto result = ga.run(rng, {identity});
  EXPECT_EQ(result.best_fitness, 12);
  EXPECT_EQ(result.best, identity);
}

TEST(Genitor, ElitePreservedWithSeededOptimum) {
  // With the optimum seeded, no offspring can displace it (elitism).
  const FixedPointProblem problem{10};
  Config config;
  config.population_size = 8;
  config.max_iterations = 300;
  config.stagnation_limit = 50;
  Genitor<FixedPointProblem> ga(problem, config);
  util::Rng rng(9);
  std::vector<int> identity(10);
  std::iota(identity.begin(), identity.end(), 0);
  const auto result = ga.run(rng, {identity});
  EXPECT_EQ(result.best_fitness, 10);
}

TEST(Genitor, StagnationStopsSearch) {
  const FixedPointProblem problem{10};
  Config config;
  config.population_size = 8;
  config.max_iterations = 100000;
  config.stagnation_limit = 20;
  Genitor<FixedPointProblem> ga(problem, config);
  util::Rng rng(10);
  std::vector<int> identity(10);
  std::iota(identity.begin(), identity.end(), 0);
  const auto result = ga.run(rng, {identity});
  // Elite can never improve past the seeded optimum: stagnation (or full
  // convergence on this tiny population) must trigger long before the budget.
  EXPECT_TRUE(result.stop_reason == StopReason::kStagnation ||
              result.stop_reason == StopReason::kConverged);
  EXPECT_LT(result.iterations, 100000u);
}

TEST(Genitor, IterationBudgetRespected) {
  const FixedPointProblem problem{30};
  Config config;
  config.population_size = 10;
  config.max_iterations = 25;
  config.stagnation_limit = 1000;
  Genitor<FixedPointProblem> ga(problem, config);
  util::Rng rng(11);
  const auto result = ga.run(rng);
  EXPECT_LE(result.iterations, 25u);
  EXPECT_EQ(result.stop_reason, StopReason::kIterationBudget);
}

TEST(Genitor, EvaluationCountIsConsistent) {
  const FixedPointProblem problem{10};
  Config config;
  config.population_size = 10;
  config.max_iterations = 5;
  config.stagnation_limit = 1000;
  Genitor<FixedPointProblem> ga(problem, config);
  util::Rng rng(12);
  const auto result = ga.run(rng);
  // 10 initial + 3 per iteration (2 crossover offspring + 1 mutation).
  EXPECT_EQ(result.evaluations, 10u + 3u * result.iterations);
}

}  // namespace
}  // namespace tsce::genitor
