/// \file genitor.hpp
/// GENITOR: a steady-state, rank-based genetic search framework
/// (Whitley 1989), used by the PSG / Seeded PSG heuristics (paper §5).
///
/// The population is kept sorted best-first.  Each iteration performs one
/// crossover (two parents chosen by the linear bias function, two offspring
/// each competing against the worst member) followed by one mutation (one
/// biased pick, one offspring competing the same way).  Elitism is implicit:
/// only the worst member is ever removed.  Stopping conditions match the
/// paper: an iteration budget, a stagnation limit on the elite, or full
/// population convergence.
///
/// The framework is problem-agnostic: a Problem type supplies the chromosome
/// representation and the evaluate / crossover / mutate operators.

#pragma once

#include <algorithm>
#include <cmath>
#include <concepts>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace tsce::genitor {

/// Whitley's linear bias function: maps a uniform draw u in [0,1) to a
/// population rank in [0, n).  A bias of 1.5 makes the top-ranked chromosome
/// 1.5x more likely to be selected than the median.  bias must lie in (1, 2].
[[nodiscard]] inline std::size_t biased_rank(std::size_t n, double bias,
                                             double u) noexcept {
  const double b = bias;
  const double x = static_cast<double>(n) *
                   (b - std::sqrt(b * b - 4.0 * (b - 1.0) * u)) / (2.0 * (b - 1.0));
  auto rank = static_cast<std::size_t>(x);
  return rank >= n ? n - 1 : rank;
}

struct Config {
  std::size_t population_size = 250;
  double bias = 1.6;
  /// One iteration = one crossover + one mutation (paper §5).
  std::size_t max_iterations = 5000;
  /// Stop after this many iterations without a change of the elite.
  std::size_t stagnation_limit = 300;
};

enum class StopReason {
  kIterationBudget,
  kStagnation,
  kConverged,
};

template <typename P>
concept Problem = requires(const P& p, const typename P::Chromosome& c,
                           util::Rng& rng) {
  { p.evaluate(c) } -> std::convertible_to<typename P::Fitness>;
  {
    p.crossover(c, c, rng)
  } -> std::convertible_to<std::pair<typename P::Chromosome, typename P::Chromosome>>;
  { p.mutate(c, rng) } -> std::convertible_to<typename P::Chromosome>;
  { p.random_chromosome(rng) } -> std::convertible_to<typename P::Chromosome>;
};

/// Problems that can evaluate a whole batch at once (e.g. across a
/// BatchEvaluator's workers).  The framework uses this for the initial
/// population, where all chromosomes are known up front; results must match
/// per-chromosome evaluate() exactly.
template <typename P>
concept BatchProblem =
    Problem<P> && requires(const P& p, std::span<const typename P::Chromosome> batch) {
      { p.evaluate_batch(batch) } -> std::convertible_to<std::vector<typename P::Fitness>>;
    };

template <Problem P>
struct Result {
  typename P::Chromosome best;
  typename P::Fitness best_fitness;
  std::size_t iterations = 0;
  std::size_t evaluations = 0;
  StopReason stop_reason = StopReason::kIterationBudget;
};

template <Problem P>
class Genitor {
 public:
  using Chromosome = typename P::Chromosome;
  using Fitness = typename P::Fitness;

  /// Throws std::invalid_argument when config.population_size is 0.
  Genitor(const P& problem, Config config) : problem_(problem), config_(config) {
    if (config_.population_size == 0) {
      throw std::invalid_argument("genitor: population_size must be >= 1");
    }
  }

  /// Runs the search.  \p seeds are inserted into the initial population
  /// verbatim (Seeded PSG); the remainder is random.
  [[nodiscard]] Result<P> run(util::Rng& rng,
                              const std::vector<Chromosome>& seeds = {}) {
    return run(rng, seeds, [](std::size_t, const Fitness&) {});
  }

  /// Observer variant: \p observe(iteration, elite_fitness) is invoked once
  /// after the initial population (iteration 0) and whenever the elite
  /// improves.  The default overload passes a no-op lambda, so callers that
  /// don't observe pay nothing.  Keeps this framework telemetry-agnostic:
  /// the obs wiring lives in the callers (PSG, class-based).
  template <typename Obs>
    requires std::invocable<Obs&, std::size_t, const Fitness&>
  [[nodiscard]] Result<P> run(util::Rng& rng, const std::vector<Chromosome>& seeds,
                              Obs&& observe) {
    Result<P> result;
    population_.clear();
    population_.reserve(config_.population_size);
    // All initial chromosomes are known before any evaluation (random ones
    // draw no fitness-dependent state), so they can be evaluated as one
    // batch — in parallel when the problem supports it.
    std::vector<Chromosome> initial;
    initial.reserve(config_.population_size);
    for (const Chromosome& seed : seeds) {
      if (initial.size() == config_.population_size) break;
      initial.push_back(seed);
    }
    while (initial.size() < config_.population_size) {
      initial.push_back(problem_.random_chromosome(rng));
    }
    result.evaluations += initial.size();
    if constexpr (BatchProblem<P>) {
      std::vector<Fitness> fitness = problem_.evaluate_batch(initial);
      for (std::size_t i = 0; i < initial.size(); ++i) {
        insert_sorted({std::move(initial[i]), std::move(fitness[i])});
      }
    } else {
      for (Chromosome& c : initial) {
        Fitness f = problem_.evaluate(c);
        insert_sorted({std::move(c), std::move(f)});
      }
    }

    std::size_t stagnant = 0;
    Fitness elite = population_.front().fitness;
    observe(std::size_t{0}, elite);
    for (std::size_t iter = 0; iter < config_.max_iterations; ++iter) {
      result.iterations = iter + 1;
      // Crossover: two distinct biased parents, two offspring.
      const std::size_t r1 = pick(rng);
      std::size_t r2 = pick(rng);
      if (population_.size() > 1) {
        while (r2 == r1) r2 = pick(rng);
      }
      auto [c1, c2] = problem_.crossover(population_[r1].chromosome,
                                         population_[r2].chromosome, rng);
      Fitness f1 = problem_.evaluate(c1);
      compete({std::move(c1), std::move(f1)});
      Fitness f2 = problem_.evaluate(c2);
      compete({std::move(c2), std::move(f2)});
      result.evaluations += 2;

      // Mutation: one biased pick, one offspring.
      const std::size_t rm = pick(rng);
      Chromosome m = problem_.mutate(population_[rm].chromosome, rng);
      Fitness fm = problem_.evaluate(m);
      compete({std::move(m), std::move(fm)});
      ++result.evaluations;

      if (elite < population_.front().fitness) {
        elite = population_.front().fitness;
        observe(iter + 1, elite);
        stagnant = 0;
      } else {
        ++stagnant;
      }
      if (stagnant >= config_.stagnation_limit) {
        result.stop_reason = StopReason::kStagnation;
        break;
      }
      if (converged()) {
        result.stop_reason = StopReason::kConverged;
        break;
      }
    }
    result.best = population_.front().chromosome;
    result.best_fitness = population_.front().fitness;
    return result;
  }

 private:
  struct Member {
    Chromosome chromosome;
    Fitness fitness;
  };

  [[nodiscard]] std::size_t pick(util::Rng& rng) const noexcept {
    return biased_rank(population_.size(), config_.bias, rng.uniform());
  }

  void insert_sorted(Member member) {
    auto it = std::lower_bound(
        population_.begin(), population_.end(), member,
        [](const Member& a, const Member& b) { return b.fitness < a.fitness; });
    population_.insert(it, std::move(member));
  }

  /// Offspring replaces the worst member iff strictly fitter (elitism).
  void compete(Member offspring) {
    if (population_.back().fitness < offspring.fitness) {
      population_.pop_back();
      insert_sorted(std::move(offspring));
    }
  }

  /// All chromosomes identical => the search cannot progress further.
  [[nodiscard]] bool converged() const {
    if (population_.front().fitness < population_.back().fitness ||
        population_.back().fitness < population_.front().fitness) {
      return false;
    }
    const Chromosome& first = population_.front().chromosome;
    return std::all_of(population_.begin() + 1, population_.end(),
                       [&](const Member& m) { return m.chromosome == first; });
  }

  const P& problem_;
  Config config_;
  std::vector<Member> population_;
};

}  // namespace tsce::genitor
