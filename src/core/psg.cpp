#include "core/psg.hpp"

#include <algorithm>
#include <cassert>

#include "core/decode.hpp"
#include "core/ordered.hpp"
#include "obs/names.hpp"
#include "obs/trace.hpp"

namespace tsce::core {

using model::StringId;
using model::SystemModel;

analysis::Fitness PermutationProblem::evaluate(const Chromosome& order) const {
  return decode_fitness_into(evaluator_.context(0), order);
}

DecodeResult PermutationProblem::decode(const Chromosome& order) const {
  DecodeContext& ctx = evaluator_.context(0);
  return ctx.materialize(decode_order_into(ctx, order));
}

std::vector<analysis::Fitness> PermutationProblem::evaluate_batch(
    std::span<const Chromosome> batch) const {
  return evaluator_.evaluate_fitness(batch);
}

PermutationProblem::Chromosome PermutationProblem::reorder_top(
    const Chromosome& receiver, const Chromosome& pattern, std::size_t cut) {
  assert(cut <= receiver.size());
  assert(receiver.size() == pattern.size());
  // Position of every string in the pattern parent.  Chromosomes may hold a
  // sparse subset of string ids (class-based search), so size by the largest
  // id rather than the chromosome length.
  StringId max_id = 0;
  for (const StringId id : pattern) max_id = std::max(max_id, id);
  std::vector<std::size_t> pos(static_cast<std::size_t>(max_id) + 1, 0);
  for (std::size_t p = 0; p < pattern.size(); ++p) {
    pos[static_cast<std::size_t>(pattern[p])] = p;
  }
  Chromosome child = receiver;
  std::sort(child.begin(), child.begin() + static_cast<std::ptrdiff_t>(cut),
            [&](StringId a, StringId b) {
              return pos[static_cast<std::size_t>(a)] < pos[static_cast<std::size_t>(b)];
            });
  return child;
}

std::pair<PermutationProblem::Chromosome, PermutationProblem::Chromosome>
PermutationProblem::crossover(const Chromosome& a, const Chromosome& b,
                              util::Rng& rng) {
  const std::size_t q = a.size();
  if (q < 2) return {a, b};
  // Cut point in [1, q-1]: both parts non-empty.
  const auto cut = static_cast<std::size_t>(rng.uniform_int(1, static_cast<std::int64_t>(q) - 1));
  return {reorder_top(a, b, cut), reorder_top(b, a, cut)};
}

PermutationProblem::Chromosome PermutationProblem::mutate(const Chromosome& c,
                                                          util::Rng& rng) {
  Chromosome child = c;
  const std::size_t q = child.size();
  if (q < 2) return child;
  const auto i = rng.bounded(q);
  auto j = rng.bounded(q);
  while (j == i) j = rng.bounded(q);
  std::swap(child[i], child[j]);
  return child;
}

PermutationProblem::Chromosome PermutationProblem::random_chromosome(
    util::Rng& rng) const {
  Chromosome c = identity_order(*model_);
  rng.shuffle(c);
  return c;
}

AllocatorResult Psg::allocate(const SystemModel& model, util::Rng& rng) const {
  const PermutationProblem problem(model, options_.eval_threads);
  const auto seed_orders = seeds(model);

  AllocatorResult best;
  bool have_best = false;
  std::size_t total_evaluations = 0;
  const std::string phase = name();
  for (std::size_t trial = 0; trial < std::max<std::size_t>(1, options_.trials);
       ++trial) {
    obs::Span span(obs::names::kSearchTrial,
                   {{"phase", phase}, {"trial", std::uint64_t{trial}}});
    util::Rng trial_rng = rng.spawn();
    genitor::Genitor<PermutationProblem> ga(problem, options_.ga);
    auto ga_result =
        ga.run(trial_rng, seed_orders,
               [&](std::size_t iteration, const analysis::Fitness& elite) {
                 obs::trace_event(obs::names::kSearchImprove,
                                  {{"phase", phase},
                                   {"trial", std::uint64_t{trial}},
                                   {"iteration", std::uint64_t{iteration}},
                                   {"worth", elite.total_worth},
                                   {"slackness", elite.slackness}});
               });
    total_evaluations += ga_result.evaluations;
    span.add("iterations", static_cast<double>(ga_result.iterations));
    span.add("evaluations", static_cast<double>(ga_result.evaluations));
    span.add("best_worth", static_cast<double>(ga_result.best_fitness.total_worth));
    if (!have_best || best.fitness < ga_result.best_fitness) {
      DecodeResult decoded = problem.decode(ga_result.best);
      best.allocation = std::move(decoded.allocation);
      best.fitness = decoded.fitness;
      best.order = std::move(ga_result.best);
      have_best = true;
    }
  }
  best.evaluations = total_evaluations;
  return best;
}

std::vector<std::vector<StringId>> SeededPsg::seeds(const SystemModel& model) const {
  return {mwf_order(model), tf_order(model)};
}

std::vector<std::vector<StringId>> LpSeededPsg::seeds(const SystemModel& model) const {
  return {mwf_order(model), tf_order(model), lp_guided_order(model)};
}

}  // namespace tsce::core
