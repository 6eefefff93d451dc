#include "core/baselines.hpp"

#include <algorithm>

#include "analysis/session.hpp"
#include "core/decode.hpp"

namespace tsce::core {

using model::MachineId;
using model::StringId;
using model::SystemModel;

AllocatorResult RandomOrder::allocate(const SystemModel& model,
                                      util::Rng& rng) const {
  std::vector<StringId> order = identity_order(model);
  rng.shuffle(order);
  DecodeResult decoded = decode_order(model, order);
  AllocatorResult result;
  result.allocation = std::move(decoded.allocation);
  result.fitness = decoded.fitness;
  result.order = std::move(order);
  result.evaluations = 1;
  return result;
}

AssignmentProblem::AssignmentProblem(const SystemModel& model)
    : model_(&model), total_apps_(model.num_apps()) {
  offset_.reserve(model.num_strings());
  std::size_t off = 0;
  for (const auto& s : model.strings) {
    offset_.push_back(off);
    off += s.size();
  }
}

AllocatorResult AssignmentProblem::project(const Chromosome& genes) const {
  analysis::AllocationSession session(*model_);
  const auto q = static_cast<StringId>(model_->num_strings());
  std::vector<MachineId> assignment;
  for (StringId k = 0; k < q; ++k) {
    const std::size_t n = model_->strings[static_cast<std::size_t>(k)].size();
    assignment.assign(genes.begin() + static_cast<std::ptrdiff_t>(offset_[static_cast<std::size_t>(k)]),
                      genes.begin() + static_cast<std::ptrdiff_t>(offset_[static_cast<std::size_t>(k)] + n));
    // Skip-and-continue: an infeasible string is left undeployed, later
    // strings still get a chance (more lenient than the permutation decode).
    (void)session.try_commit(k, assignment);
  }
  AllocatorResult result;
  result.fitness = session.fitness();
  result.allocation = session.allocation();
  result.evaluations = 1;
  return result;
}

AssignmentProblem::Fitness AssignmentProblem::evaluate(const Chromosome& genes) const {
  return project(genes).fitness;
}

std::pair<AssignmentProblem::Chromosome, AssignmentProblem::Chromosome>
AssignmentProblem::crossover(const Chromosome& a, const Chromosome& b,
                             util::Rng& rng) const {
  if (a.size() < 2) return {a, b};
  const auto cut = static_cast<std::size_t>(
      rng.uniform_int(1, static_cast<std::int64_t>(a.size()) - 1));
  Chromosome c1 = a;
  Chromosome c2 = b;
  for (std::size_t g = 0; g < cut; ++g) std::swap(c1[g], c2[g]);
  return {std::move(c1), std::move(c2)};
}

AssignmentProblem::Chromosome AssignmentProblem::mutate(const Chromosome& c,
                                                        util::Rng& rng) const {
  Chromosome child = c;
  if (child.empty()) return child;
  const std::size_t g = rng.bounded(child.size());
  child[g] = static_cast<MachineId>(rng.bounded(model_->num_machines()));
  return child;
}

AssignmentProblem::Chromosome AssignmentProblem::random_chromosome(
    util::Rng& rng) const {
  Chromosome genes(total_apps_);
  for (auto& g : genes) {
    g = static_cast<MachineId>(rng.bounded(model_->num_machines()));
  }
  return genes;
}

AllocatorResult SolutionSpaceGa::allocate(const SystemModel& model,
                                          util::Rng& rng) const {
  const AssignmentProblem problem(model);
  util::Rng trial_rng = rng.spawn();
  genitor::Genitor<AssignmentProblem> ga(problem, options_.ga);
  const auto ga_result = ga.run(trial_rng);
  AllocatorResult best = problem.project(ga_result.best);
  best.evaluations = ga_result.evaluations;
  return best;
}

}  // namespace tsce::core
